"""The fault-tolerant chunked runner: checkpoint, resume, deadline, retry.

:class:`Runner` executes a :mod:`~repro.runner.tasks` task as a sequence
of independently seeded chunks (:class:`~repro.runner.chunking.ChunkPlan`)
and makes each chunk durable the moment it finishes:

* **checkpointing** -- every completed chunk is written atomically with a
  checksummed manifest (:mod:`~repro.runner.checkpoint`), so a crash loses
  at most the chunk in flight;
* **resume** -- with ``resume=True`` and a ``checkpoint_dir``, completed
  chunks are validated and skipped; corrupt or stale ones are quarantined
  and recomputed.  Determinism: for a fixed ``(seed, n_total, n_chunks)``
  the merged sample is identical whether the run was uninterrupted,
  killed and resumed, serial, or pooled;
* **deadline** -- ``max_seconds`` is a walltime budget shared by all
  ``run()`` calls of this Runner; when it expires the runner stops
  *between* chunks and returns the merged partial sample flagged
  ``degraded=True`` instead of raising;
* **isolation & retry** -- with ``workers >= 1`` chunks execute in a
  :class:`~concurrent.futures.ProcessPoolExecutor`; a hung chunk is
  detected by ``chunk_timeout``, the pool is killed and rebuilt, and the
  chunk is retried with exponential backoff per the ``retry_policy``
  (likewise for workers that die outright and for task errors);
* **signals** -- inside a :func:`trap_signals` block, SIGINT/SIGTERM ask
  the runner to stop at the next chunk boundary; everything finished so
  far is already on disk and the outcome reports ``interrupted=True``.
"""

from __future__ import annotations

import os
import pickle
import signal as _signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import shm as _shm
from repro.runner import tasks as _tasks
from repro.runner.checkpoint import SCHEMA_VERSION, CheckpointStore
from repro.runner.chunking import ChunkPlan, clamp_chunks
from repro.runner.faults import FaultInjector
from repro.runner.supervision import (
    FATAL,
    ResourceGuards,
    ResourceMonitor,
    RetryPolicy,
    Supervisor,
    chunk_retry_key,
    validate_payload,
)
from repro.telemetry.convergence import ConvergenceConfig, ConvergenceMonitor
from repro.telemetry.recorder import get_recorder


# ------------------------------------------------------------------- signals


class _SignalTrap:
    def __init__(self) -> None:
        self.triggered: Optional[int] = None


_ACTIVE_TRAP: Optional[_SignalTrap] = None


@contextmanager
def trap_signals(signums=(_signal.SIGINT, _signal.SIGTERM)):
    """Convert SIGINT/SIGTERM into a cooperative stop request.

    While the context is active, the first signal sets a flag that
    :func:`stop_requested` exposes (the runner checks it between chunks);
    a second SIGINT raises :class:`KeyboardInterrupt` as an escape hatch.
    Previous handlers are restored on exit.
    """
    global _ACTIVE_TRAP
    trap = _SignalTrap()

    def _handler(signum, frame):
        if trap.triggered is not None and signum == _signal.SIGINT:
            raise KeyboardInterrupt
        trap.triggered = signum

    previous = {}
    for signum in signums:
        previous[signum] = _signal.signal(signum, _handler)
    outer, _ACTIVE_TRAP = _ACTIVE_TRAP, trap
    try:
        yield trap
    finally:
        _ACTIVE_TRAP = outer
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


def stop_requested() -> bool:
    """True once a trapped SIGINT/SIGTERM has been received."""
    return _ACTIVE_TRAP is not None and _ACTIVE_TRAP.triggered is not None


# ----------------------------------------------------------------- execution


def _execute_chunk(
    task,
    index: int,
    n: int,
    seed,
    injector: Optional[FaultInjector],
    attempt: int = 1,
    heartbeat: Optional[Tuple[str, float]] = None,
    profile: bool = False,
):
    """Run one chunk (in the parent or a pool worker).

    Returns ``(index, result, meta)`` where ``meta`` always carries the
    executing process's pid as ``worker_id`` and -- when ``profile`` is
    set -- the chunk's drained engine phase timings (``phases`` seconds
    per stage, ``engines`` call counts).  The parent turns the meta into
    the ``chunk_end``/``phase_profile`` events, which is how phase
    profiles escape pool workers whose recorder is a null
    :class:`WorkerHeartbeat` with no event log of its own.

    ``heartbeat`` is ``(path, interval)``: when set, a
    :class:`~repro.runner.supervision.WorkerHeartbeat` recorder is
    installed for the duration of the chunk so the engine round loops'
    ``tick()`` calls touch the per-chunk heartbeat file the parent's
    watchdog observes.  Installed *before* the injector hook runs, so an
    injected hang is exactly what it simulates: a worker that stopped
    heartbeating mid-chunk.
    """
    from repro.telemetry.recorder import get_recorder as _get_recorder

    previous = None
    if heartbeat is not None:
        from repro.runner.supervision import WorkerHeartbeat
        from repro.telemetry.recorder import set_recorder

        path, interval = heartbeat
        previous = set_recorder(WorkerHeartbeat(path, interval))
    try:
        recorder = _get_recorder()
        if (
            profile
            and not recorder.enabled
            and getattr(recorder, "profile", None) is None
        ):
            # Pool worker: its (null) recorder has no accumulator of its
            # own.  Attach one so the engines time their phases; it stays
            # for the worker's lifetime and drain() resets it per chunk.
            from repro.telemetry.profile import PhaseAccumulator

            recorder.profile = PhaseAccumulator()
        if injector is not None:
            injector.in_worker(index, attempt)
        payload = task(n, seed)
        meta: Dict[str, Any] = {"worker_id": os.getpid()}
        if profile:
            accumulator = getattr(_get_recorder(), "profile", None)
            drained = accumulator.drain() if accumulator is not None else None
            if drained is not None:
                meta["phases"], meta["engines"] = drained
        return index, payload, meta
    finally:
        if heartbeat is not None:
            set_recorder(previous)


def _pool_initializer(descriptors) -> None:
    """Attach the run's published CDF tables in a fresh pool worker.

    Passed as the :class:`ProcessPoolExecutor` initializer with the
    registry's picklable descriptors, so *every* pool this Runner builds
    -- including rebuilds after a broken pool or a hung-chunk kill --
    re-attaches the same shared segments instead of re-deriving tables.
    A vanished segment is skipped (the worker derives locally).
    """
    if descriptors:
        _shm.attach_tables(descriptors)


class _InlineExecutor:
    """The ``workers=0`` executor: runs each chunk in-process.

    ``submit`` computes the chunk at once and returns a finished
    :class:`~concurrent.futures.Future`, so the serial path goes through
    the pool's submit/collect loop unchanged.  Only ``Exception`` is
    captured: a second SIGINT's ``KeyboardInterrupt`` still escapes.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


@dataclass(frozen=True)
class Job:
    """One task execution request for :meth:`Runner.run_many`.

    A job is the unit the grid scheduler works with: a picklable task, a
    sample size, a root seed, and a label naming its checkpoint
    subdirectory and telemetry stream.  ``Runner.run(task, n, seed)`` is
    exactly ``run_many([Job(task, n, seed)])[0]``.
    """

    task: Any
    n_total: int
    seed: int
    label: str = "sample"


@dataclass
class _JobState:
    """Mutable per-job bookkeeping for the chunk loop."""

    task: Any
    plan: ChunkPlan
    label: str
    store: Optional[CheckpointStore]
    completed: Dict[int, Any]
    quarantined: List[str]
    notes: List[str]
    resumed: int
    monitor: Any
    sizes: List[int]
    seeds: List[Any]
    started: float
    retries: int = 0
    #: Per-job stop reason ("converged"/"quarantined"); global stops are
    #: passed separately.
    reason: Optional[str] = None
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Total chunk failures (any chunk, any reason) -- feeds the per-point
    #: circuit breaker.
    failures: int = 0
    quarantine_after: Optional[int] = None

    @property
    def stopped(self) -> bool:
        return self.reason is not None


@dataclass
class RunOutcome:
    """What one :meth:`Runner.run` call produced, and how it got there."""

    payload: Any
    plan: ChunkPlan
    completed_chunks: int
    total_chunks: int
    resumed_chunks: int = 0
    degraded: bool = False
    interrupted: bool = False
    converged: bool = False
    quarantined: List[str] = field(default_factory=list)
    retries: int = 0
    notes: List[str] = field(default_factory=list)
    #: The per-point circuit breaker tripped: this job was abandoned as
    #: poison and its payload merges only the chunks that did complete.
    quarantined_point: bool = False
    #: Resource watermarks degraded checkpointing to manifest-only writes.
    storage_degraded: bool = False

    @property
    def complete(self) -> bool:
        return self.completed_chunks == self.total_chunks


class ChunkFailedError(RuntimeError):
    """A chunk kept failing after exhausting its retry budget."""


class Runner:
    """Chunked, checkpointed, deadline-aware Monte-Carlo execution.

    Parameters
    ----------
    checkpoint_dir:
        Root directory for durable chunk checkpoints (one subdirectory per
        ``run()`` label).  ``None`` disables persistence (chunked execution,
        deadline, and retry still work).
    n_chunks:
        Default chunk count; clamped to ``[1, n_total]`` per call.
    workers:
        0 runs chunks one at a time in-process; ``>= 1`` runs them in a
        process pool of that size (isolation: a dying or hanging worker
        cannot take the parent down).  Both go through the same chunk
        loop, and an engine's staged block depth depends only on its
        call's live width (:func:`repro.engine.vectorized.block_rounds`),
        so the merged sample does not depend on this.
    max_seconds:
        Walltime budget shared across all ``run()`` calls of this Runner
        (the clock starts at the first call).  Expiry degrades, never raises.
    chunk_timeout:
        Per-chunk *liveness* walltime (pool mode only): workers heartbeat
        from inside the engine round loop, and a chunk silent for longer
        than this is declared hung by the watchdog, its pool killed, and
        the chunk retried (a slow-but-heartbeating straggler is left
        alone).  Workers heartbeat every ``chunk_timeout / 5`` seconds
        (clamped to ``[0.02, 0.5]``).  Must be positive.
    retry_policy:
        Retry behaviour for worker death / timeout / task errors
        (:class:`~repro.runner.supervision.RetryPolicy`): attempt budget,
        backoff shape, deterministic jitter, error classification, and
        the per-point circuit breaker (``quarantine_after``).  ``None``
        uses ``RetryPolicy()``: 4 attempts, backoff from 0.05 s.
    resource_guards:
        Optional :class:`~repro.runner.supervision.ResourceGuards`
        disk/memory watermarks; tripping one degrades checkpointing to
        manifest-only writes (``incident`` events, never a crash).
    resume:
        Allow continuing an existing checkpoint directory.  Without it, a
        populated directory raises (no silent mixing of runs).
    fault_injector:
        Optional :class:`~repro.runner.faults.FaultInjector` for tests.
    convergence:
        Optional :class:`~repro.telemetry.convergence.ConvergenceConfig`
        enabling sequential stopping: once the running Wilson interval of
        a Bernoulli payload (``.n_hits``/``.n``) is tighter than
        ``rel_ci_width``, the run finishes early with ``converged=True``
        (CLI: ``--stop-when-ci``/``--min-chunks``).  Even without it, a
        live telemetry recorder gets per-chunk ``estimate`` events and
        stall/drift ``incident`` events from a default monitor.
    recorder:
        Telemetry recorder for run/chunk/retry/deadline events and
        metrics.  ``None`` (default) uses the process-global
        :func:`repro.telemetry.get_recorder` seam, a no-op unless the
        CLI (``--log-json``/``--metrics-out``/``--progress``) or a test
        enabled telemetry.
    """

    def __init__(
        self,
        checkpoint_dir=None,
        n_chunks: int = 8,
        workers: int = 0,
        max_seconds: Optional[float] = None,
        chunk_timeout: Optional[float] = None,
        resume: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        convergence: Optional[ConvergenceConfig] = None,
        recorder=None,
        retry_policy: Optional[RetryPolicy] = None,
        resource_guards: Optional[ResourceGuards] = None,
    ) -> None:
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if chunk_timeout is not None and not chunk_timeout > 0:
            raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.n_chunks = int(n_chunks)
        self.workers = int(workers)
        self.max_seconds = max_seconds
        self.chunk_timeout = chunk_timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.resource_guards = resource_guards
        #: Segment-name prefix of the last pooled run's shared CDF-table
        #: segments (tests / leak audits); None until a pooled run on a
        #: host with named shared memory.
        self.shm_prefix: Optional[str] = None
        self.resume = bool(resume)
        self.fault_injector = fault_injector
        self.convergence = convergence
        self._recorder = recorder
        self._deadline: Optional[float] = None
        self._labels_used: Dict[str, int] = {}
        #: Aggregate flags over every run() of this Runner (CLI exit codes).
        self.degraded = False
        self.interrupted = False
        self.converged = False
        self.quarantined_points = 0
        self.storage_degraded = False

    # ----------------------------------------------------------- small utils

    def _start_clock(self) -> None:
        if self.max_seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + float(self.max_seconds)

    def _out_of_time(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _unique_label(self, label: str) -> str:
        safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in label) or "sample"
        count = self._labels_used.get(safe, 0)
        self._labels_used[safe] = count + 1
        return safe if count == 0 else f"{safe}-{count + 1}"

    def _store_for(self, label: str, recorder) -> Optional[CheckpointStore]:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir / label, recorder=recorder)

    def _write_checkpoint(self, store, task, index: int, payload, n: int, rec, label) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.before_write(index)
        path = store.write_chunk(index, task.kind, payload, n) if store else None
        if path is not None and rec.enabled:
            rec.event("checkpoint", label=label, chunk=index, path=str(path))
            rec.metrics.counter("runner.checkpoints_written").add()
        if injector is not None:
            injector.after_write(index, path)

    def _screen_payload(self, state: "_JobState", index: int, attempt: int, payload):
        """Validate a chunk's return value before it is trusted.

        Runs the injector's ``on_return`` hook first (the chaos harness's
        corrupted-return fault lives there), then checks the payload's
        sample size against the chunk plan.  A bad payload raises
        :class:`~repro.runner.supervision.CorruptPayloadError`, which the
        callers route through the normal (transient) retry path.
        """
        injector = self.fault_injector
        hook = getattr(injector, "on_return", None) if injector is not None else None
        if hook is not None:
            payload = hook(index, attempt, payload)
        return validate_payload(payload, state.sizes[index], index)

    def _handle_failure(
        self, state: "_JobState", index: int, reason: str, rec, error=None
    ) -> str:
        """Classify one chunk failure; returns ``"retry"``/``"quarantined"``.

        Bumps the chunk's attempt count and the job's failure total, then
        applies the :class:`RetryPolicy`: a transient failure inside the
        attempt budget retries (the *caller* requeues and sleeps the
        policy backoff); an exhausted or fatal one either trips the
        per-point circuit breaker (job quarantined, siblings continue) or
        -- with no breaker configured -- raises :class:`ChunkFailedError`.
        """
        policy = self.retry_policy
        state.attempts[index] = state.attempts.get(index, 0) + 1
        state.failures += 1
        attempts = state.attempts[index]
        fatal = error is not None and policy.classify(error) == FATAL
        exhausted = fatal or attempts >= policy.max_attempts
        breaker = state.quarantine_after
        if exhausted or (breaker is not None and state.failures >= breaker):
            if breaker is not None:
                self._quarantine_point(state, index, reason, rec)
                return "quarantined"
            raise ChunkFailedError(
                f"chunk {index} failed {attempts} times (last: {reason})"
            )
        state.retries += 1
        state.notes.append(f"retrying chunk {index} (attempt {attempts}: {reason})")
        rec.event(
            "retry", label=state.label, chunk=index, attempt=attempts, reason=reason
        )
        rec.metrics.counter("runner.retries").add()
        return "retry"

    def _quarantine_point(self, state: "_JobState", index: int, reason: str, rec) -> None:
        """Trip the circuit breaker: abandon this job, keep its siblings."""
        state.reason = "quarantined"
        state.notes.append(
            f"point quarantined after {state.failures} chunk failure(s) "
            f"(last: chunk {index}: {reason})"
        )
        rec.event(
            "quarantine",
            scope="point",
            label=state.label,
            chunk=index,
            failures=state.failures,
            reason=reason,
            completed=len(state.completed),
            total=state.plan.n_chunks,
        )
        rec.metrics.counter("runner.points_quarantined").add()

    def _check_resources(
        self, monitor: Optional[ResourceMonitor], states, rec, force: bool = False
    ) -> None:
        """Probe the disk/memory watermarks; degrade checkpointing once."""
        if monitor is None or not monitor.check(rec, force=force):
            return
        self.storage_degraded = True
        detail = "; ".join(monitor.reasons)
        for state in states:
            if state.store is not None and not state.store.degraded:
                state.store.degraded = True
                state.notes.append(
                    f"checkpointing degraded to manifests only ({detail})"
                )

    def _stop_reason(self, rec, label: str, completed: int, total: int) -> Optional[str]:
        """Check the two between-chunk stop conditions, emitting the event.

        Returns ``"signal"``/``"deadline"`` (and records it) or ``None``.
        The chunk loop returns immediately on a non-None reason, so the
        event is emitted once per stop, not once per remaining chunk.
        """
        reason = None
        if stop_requested():
            reason = "signal"
        elif self._out_of_time():
            reason = "deadline"
        if reason is not None:
            rec.event(reason, label=label, completed=completed, total=total)
            rec.metrics.counter(f"runner.{reason}_stops").add()
        return reason

    def _build_monitor(self, rec, label: str, completed: Dict[int, Any]):
        """A convergence monitor when stopping or telemetry wants one.

        Resumed chunks are folded in silently so a resumed run continues
        from the correct running totals (and may even stop immediately if
        the checkpointed data already meets the CI target).
        """
        if self.convergence is None and not rec.enabled:
            return None
        config = self.convergence if self.convergence is not None else ConvergenceConfig()
        monitor = ConvergenceMonitor(config, rec, label)
        for index in sorted(completed):
            monitor.observe_resumed(completed[index])
        return monitor

    # ----------------------------------------------------- prepare / finalize

    def _prepare(self, job: Job, rec) -> _JobState:
        """Build a job's plan/store/monitor and emit its ``run_start``."""
        started = time.monotonic()
        plan = ChunkPlan(
            n_total=int(job.n_total),
            n_chunks=clamp_chunks(job.n_total, self.n_chunks),
            seed=int(job.seed),
        )
        label = self._unique_label(job.label)
        rec.event(
            "run_start",
            label=label,
            kind=job.task.kind,
            n_total=plan.n_total,
            n_chunks=plan.n_chunks,
            seed=plan.seed,
            workers=self.workers,
        )
        store = self._store_for(label, rec)
        notes: List[str] = []
        quarantined: List[str] = []
        completed: Dict[int, Any] = {}
        if store is not None:
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "kind": job.task.kind,
                "task": _tasks.fingerprint(job.task),
                **plan.describe(),
            }
            had_checkpoint = store.initialise(manifest, resume=self.resume)
            if had_checkpoint:
                state = store.load_completed(job.task.kind)
                completed = {
                    index: payload
                    for index, payload in state.completed.items()
                    if 0 <= index < plan.n_chunks
                }
                quarantined = [str(p) for p in state.quarantined]
                if completed:
                    notes.append(
                        f"resumed {len(completed)}/{plan.n_chunks} chunks from {store.directory}"
                    )
                if quarantined:
                    notes.append(
                        f"quarantined {len(quarantined)} damaged checkpoint file(s)"
                    )
        resumed = len(completed)
        if resumed or quarantined:
            rec.event(
                "resume",
                label=label,
                resumed=resumed,
                quarantined=len(quarantined),
                total=plan.n_chunks,
            )
            rec.metrics.counter("runner.chunks_resumed").add(resumed)
        monitor = self._build_monitor(rec, label, completed)
        return _JobState(
            task=job.task,
            plan=plan,
            label=label,
            store=store,
            completed=completed,
            quarantined=quarantined,
            notes=notes,
            resumed=resumed,
            monitor=monitor,
            sizes=list(plan.sizes()),
            seeds=list(plan.child_seeds()),
            started=started,
        )

    def _finalize(self, state: _JobState, rec, global_reason: Optional[str]) -> RunOutcome:
        """Merge a job's chunks, classify the outcome, emit ``run_end``."""
        plan, completed, notes = state.plan, state.completed, state.notes
        reason = state.reason or global_reason
        converged = reason == "converged"
        quarantined_point = reason == "quarantined"
        resolved = converged or quarantined_point
        interrupted = reason is not None and not resolved and stop_requested()
        degraded = (
            len(completed) < plan.n_chunks and not interrupted and not resolved
        )
        storage_degraded = bool(state.store is not None and state.store.degraded)
        if converged and len(completed) < plan.n_chunks:
            notes.append(
                f"converged after {len(completed)}/{plan.n_chunks} chunks: "
                f"CI half-width target met (--stop-when-ci)"
            )
        if interrupted:
            notes.append(
                f"interrupted by signal after {len(completed)}/{plan.n_chunks} chunks; "
                "completed chunks are checkpointed"
            )
        elif degraded:
            notes.append(
                f"walltime budget exhausted after {len(completed)}/{plan.n_chunks} chunks; "
                "returning censored partial sample (degraded=True)"
            )
        self.degraded = self.degraded or degraded
        self.interrupted = self.interrupted or interrupted
        self.converged = self.converged or converged
        self.quarantined_points += int(quarantined_point)
        self.storage_degraded = self.storage_degraded or storage_degraded
        run_seconds = time.monotonic() - state.started
        rec.event(
            "run_end",
            label=state.label,
            completed=len(completed),
            total=plan.n_chunks,
            resumed=state.resumed,
            retries=state.retries,
            quarantined=len(state.quarantined),
            degraded=degraded,
            interrupted=interrupted,
            converged=converged,
            point_quarantined=quarantined_point,
            storage_degraded=storage_degraded,
            seconds=round(run_seconds, 6),
        )
        if rec.enabled:
            walks_done = sum(state.sizes[i] for i in completed)
            rec.metrics.counter("runner.runs").add()
            rec.metrics.counter("runner.walks_completed").add(walks_done)
            if run_seconds > 0:
                rec.metrics.gauge("runner.samples_per_sec").set(
                    round(walks_done / run_seconds, 3)
                )
        return RunOutcome(
            payload=state.task.merge(plan, completed),
            plan=plan,
            completed_chunks=len(completed),
            total_chunks=plan.n_chunks,
            resumed_chunks=state.resumed,
            degraded=degraded,
            interrupted=interrupted,
            converged=converged,
            quarantined=state.quarantined,
            retries=state.retries,
            notes=notes,
            quarantined_point=quarantined_point,
            storage_degraded=storage_degraded,
        )

    # ------------------------------------------------------------------- run

    def run(self, task, n_total: int, seed: int, label: str = "sample") -> RunOutcome:
        """Execute ``task`` over ``n_total`` walks and merge the chunks.

        Deterministic for fixed ``(seed, n_total, n_chunks)`` regardless of
        interruption, resume, or worker count.  Returns a
        :class:`RunOutcome`; a deadline or signal yields a *partial* merged
        payload with ``degraded``/``interrupted`` set instead of raising.
        """
        job = Job(task=task, n_total=int(n_total), seed=int(seed), label=label)
        return self.run_many([job])[0]

    def run_many(
        self, jobs: Sequence[Job], quarantine_after: Optional[int] = None
    ) -> List[RunOutcome]:
        """Execute several jobs over one shared pool, deadline, and stream.

        This is the grid scheduler behind :mod:`repro.sweep`: all jobs'
        chunks feed one queue, interleaved round-robin (chunk 0 of every
        job, then chunk 1, ...), so every grid point makes early progress
        and a per-job convergence monitor that resolves a point frees its
        remaining chunks' worker slots for unresolved points.  Outcomes
        are returned in job order.

        Per-job results are bit-identical to running each job alone (same
        ``(seed, n_total, n_chunks)``), serial or pooled: every chunk's
        seed is a pure function of its own job's plan, never of the
        scheduling order.

        ``quarantine_after`` arms the per-point circuit breaker for this
        call (overriding ``retry_policy.quarantine_after``): a job that
        accumulates that many chunk failures is abandoned as poison --
        ``RunOutcome.quarantined_point`` -- while its siblings complete.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self._start_clock()
        rec = self._recorder if self._recorder is not None else get_recorder()
        breaker = (
            quarantine_after
            if quarantine_after is not None
            else self.retry_policy.quarantine_after
        )
        if breaker is not None and breaker < 1:
            breaker = None
        states = [self._prepare(job, rec) for job in jobs]
        for state in states:
            state.quarantine_after = breaker
        resources = None
        if self.resource_guards is not None and self.resource_guards.enabled:
            resources = ResourceMonitor(
                self.resource_guards, self.checkpoint_dir or Path(".")
            )
            # Preflight: a disk already below the watermark degrades the
            # run's checkpointing before the first chunk is attempted.
            self._check_resources(resources, states, rec, force=True)
        global_reason: Optional[str] = None
        if any(len(s.completed) < s.plan.n_chunks for s in states):
            global_reason = self._run_chunks(states, rec, resources)
        return [self._finalize(state, rec, global_reason) for state in states]

    # ------------------------------------------------------------ scheduling

    @staticmethod
    def _interleaved(states: Sequence[_JobState]) -> List[Tuple[_JobState, int]]:
        """Round-robin (job, chunk) schedule over all pending chunks."""
        queue: List[Tuple[_JobState, int]] = []
        max_chunks = max((s.plan.n_chunks for s in states), default=0)
        for chunk in range(max_chunks):
            for state in states:
                if chunk < state.plan.n_chunks and chunk not in state.completed:
                    queue.append((state, chunk))
        return queue

    def _record_chunk_end(
        self,
        rec,
        label: str,
        index: int,
        n: int,
        seconds: float,
        attempt: int,
        meta: Optional[Dict[str, Any]] = None,
        ipc: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit the chunk's phase_profile (if any) and chunk_end events.

        ``meta`` is :func:`_execute_chunk`'s third return value
        (``worker_id`` plus drained phase timings); ``ipc`` is the
        parent-side serialization accounting for pooled results.  The
        phase_profile goes first so the chunk_end flush makes both
        durable together.
        """
        meta = meta or {}
        worker_id = meta.get("worker_id")
        worker_fields = {} if worker_id is None else {"worker_id": worker_id}
        phases = meta.get("phases")
        if phases:
            rec.event(
                "phase_profile",
                label=label,
                chunk=index,
                attempt=attempt,
                phases=phases,
                engines=meta.get("engines") or {},
                **worker_fields,
            )
        rec.event(
            "chunk_end",
            label=label,
            chunk=index,
            n=n,
            seconds=round(seconds, 6),
            attempt=attempt,
            **worker_fields,
            **(ipc or {}),
        )
        if rec.enabled:
            rec.metrics.counter("runner.chunks_completed").add()
            rec.metrics.histogram("runner.chunk_seconds").observe(seconds)
            for phase, phase_seconds in (phases or {}).items():
                rec.metrics.counter(f"engine.phase_seconds.{phase}").add(
                    phase_seconds
                )
            if ipc:
                rec.metrics.counter("runner.ipc_bytes").add(ipc.get("ipc_bytes", 0))
                rec.metrics.counter("runner.pickle_seconds").add(
                    ipc.get("pickle_seconds", 0.0)
                )
                rec.metrics.counter("runner.unpickle_seconds").add(
                    ipc.get("unpickle_seconds", 0.0)
                )

    # ------------------------------------------------------------ chunk loop

    def _kill_pool(self, executor) -> None:
        # ProcessPoolExecutor has no public "abandon a running worker": a
        # hung or poisoned worker must be killed or shutdown() blocks on it.
        for process in list(getattr(executor, "_processes", {}).values()):
            process.kill()
        executor.shutdown(wait=False, cancel_futures=True)

    def _run_chunks(
        self, states: Sequence[_JobState], rec, resources: Optional[ResourceMonitor] = None
    ) -> Optional[str]:
        """Run all pending chunks through one submit/collect loop.

        ``workers >= 1`` submits to a shared process pool of that size;
        ``workers=0`` to an :class:`_InlineExecutor` that runs each chunk
        in-process inside ``submit``.  Queueing, retries, convergence and
        checkpointing are the same code either way, so serial == pooled
        holds by construction.

        Returns a global stop reason ("deadline"/"signal") or None; per-job
        convergence stops are recorded on each job's ``_JobState.reason``
        and simply release that job's queued chunks to the other jobs.

        With ``chunk_timeout`` set (pool only), a :class:`Supervisor`
        watchdog watches per-chunk heartbeat files that workers touch from
        inside the engine round loops; a chunk silent past the timeout gets
        its pool killed and is rescheduled from its original seed
        (bit-identical), while a slow-but-heartbeating straggler is left
        alone.
        """
        queue = self._interleaved(states)
        # Engine phase profiles are drained per chunk when the parent wants them.
        profile = rec.enabled and getattr(rec, "profile", None) is not None
        pooled = self.workers >= 1
        registry: Optional[_shm.SharedTableRegistry] = None
        table_descriptors: Tuple[_shm.TableSegment, ...] = ()
        if pooled and _shm.shm_available():
            # Publish every job's CDF tables once; workers of every pool
            # this run builds (rebuilds included) attach the same
            # segments via the pool initializer.  Without named shared
            # memory, workers derive their tables locally.
            registry = _shm.SharedTableRegistry()
            self.shm_prefix = registry.prefix
            registry.publish_for_tasks([s.task for s in states])
            table_descriptors = registry.descriptors()
            if rec.enabled and table_descriptors:
                rec.event(
                    "shm_tables",
                    tables=len(table_descriptors),
                    bytes=registry.nbytes,
                )
                rec.metrics.counter("runner.shm_table_bytes").add(registry.nbytes)
        executor = None
        # future -> (job state, chunk index, start time)
        inflight: Dict[Any, Tuple[_JobState, int, float]] = {}
        poll = 0.05
        supervisor: Optional[Supervisor] = None
        hb_interval = 0.0
        if pooled and self.chunk_timeout is not None:
            timeout = float(self.chunk_timeout)
            poll = min(poll, timeout / 4)
            supervisor = Supervisor(tempfile.mkdtemp(prefix="repro-hb-"), timeout).start()
            hb_interval = max(0.02, min(0.5, timeout / 5.0))

        def converge(state: _JobState) -> None:
            """Stop a job whose CI target is met, dropping its queued chunks.

            A job with nothing left queued just finishes: ``converged``
            describes runs that skipped work.  Its in-flight chunks are
            left to finish (or die with the pool).
            """
            if state.stopped or state.monitor is None or not state.monitor.should_stop():
                return
            if not any(s is state for s, _ in queue):
                return
            state.reason = "converged"
            queue[:] = [(s, i) for s, i in queue if s is not state]
            rec.event(
                "converged", label=state.label, completed=len(state.completed),
                total=state.plan.n_chunks, **state.monitor.stop_fields(),
            )
            rec.metrics.counter("runner.converged_stops").add()

        def requeue(entries) -> None:
            """Handle failed (job, chunk, reason, error) tuples.

            Retryable chunks go back to the queue head and the policy
            backoff is slept once (the longest of the batch); exhausted
            ones quarantine their point or raise per the policy.
            """
            delay = 0.0
            for state, index, reason, error in entries:
                if state.stopped:
                    continue
                verdict = self._handle_failure(state, index, reason, rec, error)
                if verdict == "quarantined":
                    continue
                queue.insert(0, (state, index))
                delay = max(
                    delay,
                    self.retry_policy.backoff(
                        state.attempts[index], chunk_retry_key(state.label, index)
                    ),
                )
            # A quarantined point's remaining chunks are dropped so its
            # slots go to healthy jobs.
            queue[:] = [(s, i) for s, i in queue if not s.stopped]
            if delay > 0:
                time.sleep(delay)

        def rebuild_pool(label: str, reason: str) -> None:
            """Kill the pool and drop its in-flight chunks; the next loop
            iteration builds a fresh pool."""
            nonlocal executor
            for state, index, _ in inflight.values():
                if supervisor is not None:
                    supervisor.unregister(state.label, index)
            inflight.clear()
            self._kill_pool(executor)
            executor = None
            rec.event("pool_rebuild", label=label, reason=reason)
            rec.metrics.counter("runner.pool_rebuilds").add()

        # A resumed job's checkpointed chunks may already meet its target.
        for state in states:
            converge(state)
        try:
            while queue or inflight:
                probe = next((s for s in states if not s.stopped), states[0])
                reason = self._stop_reason(
                    rec, probe.label, len(probe.completed), probe.plan.n_chunks
                )
                if reason is not None:
                    return reason
                if not queue and all(s.stopped for s, _, _ in inflight.values()):
                    # Only resolved jobs' chunks are left in flight: abandon
                    # them (the finally block kills the pool); completed
                    # chunks are checkpointed.
                    return None
                self._check_resources(resources, states, rec)
                if executor is None:
                    executor = (
                        ProcessPoolExecutor(
                            max_workers=self.workers,
                            initializer=_pool_initializer,
                            initargs=(table_descriptors,),
                        )
                        if pooled
                        else _InlineExecutor()
                    )
                while queue and len(inflight) < max(1, self.workers):
                    state, index = queue.pop(0)
                    attempt = state.attempts.get(index, 0) + 1
                    heartbeat = None
                    if supervisor is not None:
                        heartbeat = (
                            supervisor.register(state.label, index),
                            hb_interval,
                        )
                    # Emitted before submit: the inline executor finishes
                    # the chunk inside submit.  A pooled chunk's worker is
                    # unknown until its result comes back.
                    rec.event(
                        "chunk_start",
                        label=state.label,
                        chunk=index,
                        n=state.sizes[index],
                        attempt=attempt,
                        **({} if pooled else {"worker_id": os.getpid()}),
                    )
                    started = time.monotonic()
                    future = executor.submit(
                        _execute_chunk,
                        state.task,
                        index,
                        state.sizes[index],
                        state.seeds[index],
                        self.fault_injector,
                        attempt,
                        heartbeat,
                        profile,
                    )
                    inflight[future] = (state, index, started)
                done, _ = wait(list(inflight), timeout=poll, return_when=FIRST_COMPLETED)
                broken: List[Tuple[_JobState, int]] = []
                for future in done:
                    state, index, started = inflight.pop(future)
                    if supervisor is not None:
                        supervisor.unregister(state.label, index)
                    attempt = state.attempts.get(index, 0) + 1
                    try:
                        _, payload, meta = future.result()
                        payload = self._screen_payload(state, index, attempt, payload)
                    except BrokenProcessPool:
                        broken.append((state, index))
                        continue
                    except Exception as exc:  # task error inside the chunk
                        requeue([(state, index, f"{type(exc).__name__}: {exc}", exc)])
                        continue
                    # Outside the retry guard on purpose: a checkpoint-hook
                    # fault (FaultInjected) simulates parent death and must
                    # propagate, not be retried.
                    self._write_checkpoint(
                        state.store, state.task, index, payload,
                        state.sizes[index], rec, state.label,
                    )
                    state.completed[index] = payload
                    chunk_seconds = time.monotonic() - started
                    ipc = None
                    if pooled and rec.enabled:
                        # Pool IPC accounting: the executor already paid
                        # one pickle/unpickle moving this payload across
                        # the process boundary; re-serializing it here
                        # measures that cost directly (enabled-path only,
                        # once per chunk).
                        pickle_started = time.perf_counter()
                        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                        pickled_at = time.perf_counter()
                        pickle.loads(blob)
                        ipc = {
                            "ipc_bytes": len(blob),
                            "pickle_seconds": round(pickled_at - pickle_started, 6),
                            "unpickle_seconds": round(
                                time.perf_counter() - pickled_at, 6
                            ),
                        }
                    self._record_chunk_end(
                        rec, state.label, index, state.sizes[index], chunk_seconds,
                        attempt, meta=meta, ipc=ipc,
                    )
                    if state.monitor is not None:
                        state.monitor.observe_chunk(index, payload, chunk_seconds)
                        converge(state)
                if broken:
                    # The pool is poisoned: every other in-flight chunk is
                    # lost with it.  Rebuild and retry them all.
                    broken.extend((s, i) for s, i, _ in inflight.values())
                    rebuild_pool(probe.label, "worker process died")
                    requeue([(s, i, "worker process died", None) for s, i in broken])
                    continue
                hung = supervisor.take_hung() if supervisor is not None else {}
                if hung:
                    # The watchdog flagged silent chunks.  A hung worker
                    # takes the whole pool with it: retry every in-flight
                    # chunk against a fresh pool (completed-but-unprocessed
                    # futures were drained above, so nothing is lost twice).
                    for (label, chunk), silent in sorted(hung.items()):
                        # The worker wrote its pid into the heartbeat file
                        # on first touch, so even a hung chunk can be
                        # attributed to a specific worker process.
                        pid = supervisor.worker_pid(label, chunk)
                        rec.event(
                            "heartbeat",
                            label=label,
                            chunk=chunk,
                            status="hung",
                            silent=round(silent, 3),
                            timeout=self.chunk_timeout,
                            **({} if pid is None else {"worker_id": pid}),
                        )
                        rec.metrics.counter("runner.hung_chunks").add()
                    lost = []
                    for state, index, _ in inflight.values():
                        if (state.label, index) in hung:
                            reason = (
                                f"no heartbeat for {hung[(state.label, index)]:.1f}s "
                                f"(timeout {self.chunk_timeout}s)"
                            )
                        else:
                            reason = "pool killed to recover a hung chunk"
                        lost.append((state, index, reason, None))
                    rebuild_pool(
                        probe.label,
                        f"hung-chunk watchdog ({self.chunk_timeout}s timeout)",
                    )
                    requeue(lost)
            return "signal" if stop_requested() else None
        finally:
            if supervisor is not None:
                supervisor.stop()
            if executor is not None:
                if inflight:
                    self._kill_pool(executor)
                else:
                    executor.shutdown(wait=False, cancel_futures=True)
            if registry is not None:
                registry.close()
                # Backstop sweep: anything under this run's prefix that
                # survived the registry's unlinks is a leak; reap it and
                # make the leak visible.
                leaked = _shm.cleanup_segments(registry.prefix)
                if leaked:
                    rec.event(
                        "incident",
                        kind="shm_leak",
                        segments=len(leaked),
                        action="reaped",
                    )
                    rec.metrics.counter("runner.shm_segments_reaped").add(
                        len(leaked)
                    )
