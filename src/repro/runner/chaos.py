"""Chaos-matrix harness: composable fault plans and a recovery matrix.

:class:`~repro.runner.faults.FaultInjector` stages one fault at one hook;
this module composes many into a :class:`ChaosPlan` (picklable, so it
rides into pool workers as the runner's ``fault_injector``) and adds the
fault kinds the supervision layer exists for:

===================  ======================================================
kind                 what it does
===================  ======================================================
hang                 worker sleeps forever (heartbeats stop)
slowdown             worker computes slowly but keeps heartbeating --
                     the watchdog must NOT kill it
crash                chunk raises on its first N attempts, then succeeds
corrupt-return       the chunk's returned payload is replaced by garbage
                     (caught by payload screening, not by checksums)
worker-kill          the worker process dies hard (BrokenProcessPool)
crash-before-write   parent dies after compute, before the checkpoint
crash-after-write    parent dies right after the checkpoint is durable
corrupt-checkpoint   payload garbled on disk, then the parent dies
enospc               the disk probe reports 0 MB free (degraded mode)
sigterm              a SIGTERM storm hits the parent mid-run
===================  ======================================================

Each fault is armed by its own marker file and fires once (the marker is
consumed atomically), so retries and resumes run clean -- the same
convergence contract as :class:`FaultInjector`.  ``ChaosPlan`` is a
context manager whose exit disarms every remaining marker, so a failing
test cannot leak a fault into the next run.

:func:`run_chaos_matrix` drives one scenario per fault kind (plus a
``poison`` grid-point scenario) against a small hitting-time workload and
classifies every outcome -- completed / degraded / quarantined /
interrupted -- together with bit-identity against an un-faulted reference
run.  CI runs it at smoke scale via ``repro-experiment chaos``.
"""

from __future__ import annotations

import os
import signal as _signal
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from shutil import rmtree
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.zeta import ZetaJumpDistribution
from repro.reporting.table import Table
from repro.runner.faults import FaultInjected, FaultInjector
from repro.runner.supervision import ResourceGuards, RetryPolicy
from repro.runner.tasks import HittingTimeTask

#: Fault kinds a ChaosPlan can stage (see the module table).
CHAOS_KINDS = (
    "hang",
    "slowdown",
    "crash",
    "corrupt-return",
    "worker-kill",
    "crash-before-write",
    "crash-after-write",
    "corrupt-checkpoint",
    "enospc",
    "sigterm",
)

#: Kinds delegated verbatim to :class:`FaultInjector` hooks.
_DELEGATED = {
    "hang": "hang",
    "worker-kill": "worker-kill",
    "crash-before-write": "crash-before-write",
    "crash-after-write": "crash-after-write",
    "corrupt-checkpoint": "corrupt-checkpoint",
}

#: Scenario order of the full recovery matrix ("poison" is a workload
#: property -- an always-crashing grid point -- not a ChaosPlan fault).
DEFAULT_MATRIX = CHAOS_KINDS + ("poison",)


class ChaosCrash(RuntimeError):
    """Raised by ``crash`` faults and :class:`PoisonTask` executions."""


@dataclass(frozen=True)
class ChaosFault:
    """One staged fault: what, where, and for how long/how often.

    ``attempts`` applies to ``crash`` only: the chunk fails on attempts
    ``1..attempts`` and succeeds afterwards (so ``attempts`` below the
    retry budget tests recovery, above it tests exhaustion/quarantine).
    ``seconds`` is the sleep length of ``hang``/``slowdown``.
    """

    kind: str
    chunk: int = 0
    attempts: int = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}, got {self.kind!r}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


def parse_fault(spec: str) -> ChaosFault:
    """Parse ``kind[@chunk][#attempts][/seconds]``, e.g. ``crash@1#2``."""
    text = spec.strip()
    seconds = 30.0
    attempts = 1
    chunk = 0
    if "/" in text:
        text, raw = text.rsplit("/", 1)
        seconds = float(raw)
    if "#" in text:
        text, raw = text.rsplit("#", 1)
        attempts = int(raw)
    if "@" in text:
        text, raw = text.rsplit("@", 1)
        chunk = int(raw)
    return ChaosFault(kind=text, chunk=chunk, attempts=attempts, seconds=seconds)


class _CorruptReturn:
    """Stand-in payload delivered by a ``corrupt-return`` fault.

    Its ``n`` can never match the requested chunk size, so the runner's
    payload screening must reject it and retry the chunk.
    """

    n = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<corrupt payload injected by chaos plan>"


@dataclass(frozen=True)
class ChaosPlan:
    """A composable set of armed faults, pluggable as a fault injector.

    Exposes the full injector hook surface (``in_worker`` /
    ``before_write`` / ``after_write`` plus the supervision-era
    ``on_return`` and ``disk_probe``), dispatching each hook to every
    staged fault.  Marker files live under ``arm_dir`` (one per fault),
    and both parent and workers derive the paths deterministically, so
    the plan pickles cleanly.
    """

    faults: Tuple[ChaosFault, ...]
    arm_dir: str
    hard_exit: bool = False

    # ---------------------------------------------------------------- arming

    def _arm_path(self, index: int) -> str:
        return os.path.join(
            self.arm_dir, f"chaos-{index:02d}-{self.faults[index].kind}.arm"
        )

    def arm(self) -> "ChaosPlan":
        """Create every fault's marker file; idempotent."""
        os.makedirs(self.arm_dir, exist_ok=True)
        for index in range(len(self.faults)):
            Path(self._arm_path(index)).touch()
        return self

    def disarm(self) -> None:
        """Remove any marker that has not fired (exception-safe cleanup)."""
        for index in range(len(self.faults)):
            try:
                os.unlink(self._arm_path(index))
            except FileNotFoundError:
                pass

    def armed(self, index: int = 0) -> bool:
        return os.path.exists(self._arm_path(index))

    def __enter__(self) -> "ChaosPlan":
        return self.arm()

    def __exit__(self, *exc_info) -> bool:
        self.disarm()
        return False

    def _consume(self, index: int) -> bool:
        try:
            os.unlink(self._arm_path(index))
        except FileNotFoundError:
            return False
        return True

    def _delegate(self, index: int, fault: ChaosFault) -> FaultInjector:
        return FaultInjector(
            mode=_DELEGATED[fault.kind],
            chunk_index=fault.chunk,
            arm_file=self._arm_path(index),
            hang_seconds=fault.seconds,
            hard_exit=self.hard_exit,
        )

    @staticmethod
    def _record(kind: str, chunk: int, hook: str) -> None:
        from repro.telemetry.recorder import get_recorder

        get_recorder().event("fault_injected", mode=kind, chunk=chunk, hook=hook)

    # ------------------------------------------------------------ hook points

    def in_worker(self, chunk_index: int, attempt: int = 1) -> None:
        """Worker-side faults: hang, slowdown, crash-on-Nth, worker-kill."""
        for index, fault in enumerate(self.faults):
            if fault.kind in ("hang", "worker-kill"):
                self._delegate(index, fault).in_worker(chunk_index, attempt)
            elif fault.kind == "slowdown" and chunk_index == fault.chunk:
                if self._consume(index):
                    self._crawl(fault.seconds)
            elif fault.kind == "crash" and chunk_index == fault.chunk:
                if not os.path.exists(self._arm_path(index)):
                    continue
                if attempt < fault.attempts:
                    raise ChaosCrash(
                        f"injected crash at chunk {chunk_index} "
                        f"(attempt {attempt}/{fault.attempts})"
                    )
                # Final staged failure: consume the marker so the next
                # attempt (or a parallel racer) runs clean.
                if self._consume(index) and attempt == fault.attempts:
                    raise ChaosCrash(
                        f"injected crash at chunk {chunk_index} "
                        f"(attempt {attempt}/{fault.attempts})"
                    )

    @staticmethod
    def _crawl(seconds: float) -> None:
        """Burn walltime while keeping the heartbeat alive.

        This is what distinguishes a *straggler* from a *hang*: the round
        loop still ticks, so a correctly tuned watchdog must leave the
        worker alone even though the chunk takes several timeouts.
        """
        from repro.telemetry.recorder import get_recorder

        recorder = get_recorder()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            time.sleep(0.05)
            recorder.tick()

    def before_write(self, chunk_index: int) -> None:
        """Parent-side faults firing after compute, before the write."""
        for index, fault in enumerate(self.faults):
            if fault.kind == "crash-before-write":
                self._delegate(index, fault).before_write(chunk_index)
            elif fault.kind == "sigterm" and chunk_index == fault.chunk:
                if self._consume(index):
                    self._record("sigterm", chunk_index, "before_write")
                    # A storm, not a single signal: delivery must coalesce
                    # into one cooperative stop, never a crash.
                    for _ in range(3):
                        os.kill(os.getpid(), _signal.SIGTERM)

    def after_write(self, chunk_index: int, payload_path) -> None:
        """Parent-side faults firing right after the checkpoint commits."""
        for index, fault in enumerate(self.faults):
            if fault.kind in ("crash-after-write", "corrupt-checkpoint"):
                self._delegate(index, fault).after_write(chunk_index, payload_path)

    def on_return(self, chunk_index: int, attempt: int, payload):
        """Parent-side payload swap for ``corrupt-return`` faults."""
        for index, fault in enumerate(self.faults):
            if fault.kind == "corrupt-return" and chunk_index == fault.chunk:
                if self._consume(index):
                    self._record("corrupt-return", chunk_index, "on_return")
                    return _CorruptReturn()
        return payload

    # -------------------------------------------------------- resource seams

    @property
    def needs_guards(self) -> bool:
        return any(fault.kind == "enospc" for fault in self.faults)

    def disk_probe(self) -> Optional[float]:
        """A :class:`ResourceGuards` disk probe simulating ENOSPC.

        Reports 0 MB free while an ``enospc`` fault is armed; ``None``
        (unknown -- never trips) otherwise.  The marker is *not* consumed:
        a full disk stays full for the rest of the run.
        """
        for index, fault in enumerate(self.faults):
            if fault.kind == "enospc" and os.path.exists(self._arm_path(index)):
                return 0.0
        return None


def chaos_plan(specs: Sequence[str] | str, arm_dir, hard_exit: bool = False) -> ChaosPlan:
    """Build a plan from fault specs (``"hang@1,crash@0#2"`` or a list)."""
    if isinstance(specs, str):
        specs = [part for part in specs.split(",") if part.strip()]
    faults = tuple(parse_fault(spec) for spec in specs)
    return ChaosPlan(faults=faults, arm_dir=str(arm_dir), hard_exit=hard_exit)


@dataclass(frozen=True)
class PoisonTask:
    """A grid point that can never complete: every chunk raises.

    Wraps a real task so ``kind``/``merge`` keep working (an empty merge
    yields the usual censored-empty payload); used to prove the per-point
    circuit breaker quarantines the point instead of sinking the sweep.
    """

    inner: Any
    message: str = "poison grid point"

    @property
    def kind(self) -> str:
        return self.inner.kind

    def __call__(self, n: int, seed) -> Any:
        raise ChaosCrash(self.message)

    def merge(self, plan, chunks):
        return self.inner.merge(plan, chunks)


# -------------------------------------------------------------------- matrix


@dataclass
class ChaosOutcome:
    """One row of the recovery matrix: a fault and how the run survived it."""

    fault: str
    outcome: str  # completed / degraded / quarantined / interrupted
    expected: str
    detection: str
    recovery: str
    retries: int = 0
    bit_identical: Optional[bool] = None
    exit_code: int = 0
    ok: bool = False
    detail: str = ""
    notes: List[str] = field(default_factory=list)


#: Documented CLI exit code for each classified outcome (src/repro/cli.py).
OUTCOME_EXIT_CODES = {
    "completed": 0,
    "degraded": 3,
    "quarantined": 4,
    "interrupted": 130,
    "failed": 1,
}


def render_matrix(rows: Sequence[ChaosOutcome]) -> str:
    """The fault × detection × recovery × outcome table (docs/runner.md)."""
    table = Table(
        ["fault", "detection", "recovery", "outcome", "exit", "retries",
         "bit-identical", "ok"],
        title="chaos recovery matrix",
    )
    for row in rows:
        table.add_row(
            row.fault,
            row.detection,
            row.recovery,
            row.outcome,
            row.exit_code,
            row.retries,
            "-" if row.bit_identical is None else row.bit_identical,
            row.ok,
        )
    return table.render()


def _smoke_task() -> HittingTimeTask:
    return HittingTimeTask(
        jumps=ZetaJumpDistribution(2.5), target=(5, 3), horizon=150
    )


def run_chaos_matrix(
    faults: Optional[Sequence[str]] = None,
    workers: int = 2,
    chunk_timeout: float = 1.0,
    n_walks: int = 400,
    n_chunks: int = 4,
    seed: int = 42,
    workdir=None,
) -> List[ChaosOutcome]:
    """Run one scenario per requested fault kind and classify the outcomes.

    Every scenario uses the same smoke workload and compares the final
    merged sample bit-for-bit against an un-faulted serial reference, so
    "recovered" always means *recovered the right answer*.  ``workdir``
    (default: a temp dir, removed afterwards) holds per-scenario arm
    files and checkpoints.
    """
    from repro.runner.runner import (  # local import: runner imports this module's deps
        ChunkFailedError,
        Job,
        Runner,
        trap_signals,
    )

    kinds = list(faults) if faults else list(DEFAULT_MATRIX)
    unknown = [k for k in kinds if k not in DEFAULT_MATRIX]
    if unknown:
        raise ValueError(f"unknown chaos fault(s) {unknown}; pick from {DEFAULT_MATRIX}")

    task = _smoke_task()
    base = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    cleanup = workdir is None
    policy = RetryPolicy(max_attempts=4, backoff_base=0.01, backoff_max=0.1)
    pooled = max(1, int(workers))
    hang_seconds = max(30.0, 10.0 * chunk_timeout)

    reference = (
        Runner(n_chunks=n_chunks).run(task, n_walks, seed, label="reference").payload
    )

    def identical(payload) -> bool:
        return bool(np.array_equal(payload.times, reference.times))

    def classify(outcome) -> str:
        if outcome.interrupted:
            return "interrupted"
        if getattr(outcome, "quarantined_point", False):
            return "quarantined"
        if outcome.degraded or getattr(outcome, "storage_degraded", False):
            return "degraded"
        return "completed" if outcome.complete else "failed"

    def finish(row: ChaosOutcome, outcome, bit: Optional[bool], expect_ok) -> ChaosOutcome:
        row.outcome = classify(outcome)
        row.retries = outcome.retries
        row.bit_identical = bit
        row.exit_code = OUTCOME_EXIT_CODES.get(row.outcome, 1)
        row.notes = list(outcome.notes)
        row.ok = bool(expect_ok(outcome)) and (bit is None or bit)
        return row

    def scenario(kind: str) -> ChaosOutcome:
        subdir = base / f"scenario-{kind}"
        arm_dir = str(subdir / "arm")
        ckpt = subdir / "checkpoints"

        if kind == "hang":
            row = ChaosOutcome(
                kind, "", expected="completed",
                detection=f"no heartbeat for >{chunk_timeout:g}s (watchdog)",
                recovery="kill pool, reschedule chunk from its seed",
            )
            with ChaosPlan((ChaosFault("hang", chunk=1, seconds=hang_seconds),), arm_dir) as plan:
                runner = Runner(
                    workers=pooled, n_chunks=n_chunks, chunk_timeout=chunk_timeout,
                    retry_policy=policy, fault_injector=plan,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.retries >= 1,
            )

        if kind == "slowdown":
            row = ChaosOutcome(
                kind, "", expected="completed",
                detection="none needed: heartbeats keep flowing",
                recovery="watchdog leaves the straggler alone",
            )
            with ChaosPlan(
                (ChaosFault("slowdown", chunk=1, seconds=3.0 * chunk_timeout),), arm_dir
            ) as plan:
                runner = Runner(
                    workers=pooled, n_chunks=n_chunks, chunk_timeout=chunk_timeout,
                    retry_policy=policy, fault_injector=plan,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.retries == 0,
            )

        if kind == "worker-kill":
            # A SIGKILLed worker is the harshest exit a pooled run sees, so
            # the row also asserts the runner left none of its shared
            # CDF-table segments behind in /dev/shm.
            from repro.engine import shm as _shm

            row = ChaosOutcome(
                kind, "", expected="completed",
                detection="BrokenProcessPool from the dead worker",
                recovery="rebuild pool, retry in-flight chunks, unlink "
                "the run's shm table segments",
            )
            with ChaosPlan((ChaosFault("worker-kill", chunk=1),), arm_dir) as plan:
                runner = Runner(
                    workers=pooled, n_chunks=n_chunks, retry_policy=policy,
                    fault_injector=plan,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            leaked = (
                _shm.list_segments(runner.shm_prefix)
                if runner.shm_prefix else []
            )
            row = finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.retries >= 1,
            )
            if runner.shm_prefix:
                if leaked:
                    row.ok = False
                    row.notes.append(
                        f"LEAK: {len(leaked)} shm segment(s) survived the "
                        f"kill: {', '.join(sorted(leaked))}"
                    )
                else:
                    row.notes.append(
                        "shm tables: 0 segments leaked after worker kill"
                    )
            return row

        if kind == "crash":
            row = ChaosOutcome(
                kind, "", expected="completed",
                detection="task exception surfaced by the pool",
                recovery="exponential backoff, retry same seed",
            )
            with ChaosPlan((ChaosFault("crash", chunk=1, attempts=2),), arm_dir) as plan:
                runner = Runner(
                    workers=workers, n_chunks=n_chunks, retry_policy=policy,
                    fault_injector=plan,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.retries >= 2,
            )

        if kind == "corrupt-return":
            row = ChaosOutcome(
                kind, "", expected="completed",
                detection="payload screening (size mismatch)",
                recovery="discard payload, retry same seed",
            )
            with ChaosPlan((ChaosFault("corrupt-return", chunk=1),), arm_dir) as plan:
                runner = Runner(
                    workers=workers, n_chunks=n_chunks, retry_policy=policy,
                    fault_injector=plan,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.retries >= 1,
            )

        if kind in ("crash-before-write", "crash-after-write", "corrupt-checkpoint"):
            detection = {
                "crash-before-write": "process death; chunk absent on resume",
                "crash-after-write": "process death; chunk durable on resume",
                "corrupt-checkpoint": "checksum validation on resume",
            }[kind]
            recovery = {
                "crash-before-write": "resume recomputes the lost chunk",
                "crash-after-write": "resume skips the durable chunk",
                "corrupt-checkpoint": "quarantine files, recompute chunk",
            }[kind]
            row = ChaosOutcome(kind, "", expected="completed",
                               detection=detection, recovery=recovery)
            with ChaosPlan((ChaosFault(kind, chunk=1),), arm_dir) as plan:
                crashed = False
                try:
                    Runner(
                        checkpoint_dir=ckpt, n_chunks=n_chunks, fault_injector=plan,
                    ).run(task, n_walks, seed, label=kind)
                except FaultInjected:
                    crashed = True
            outcome = Runner(checkpoint_dir=ckpt, n_chunks=n_chunks, resume=True).run(
                task, n_walks, seed, label=kind
            )
            expect_quarantine = kind == "corrupt-checkpoint"
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: (
                    crashed and o.complete and o.resumed_chunks >= 1
                    and (bool(o.quarantined) == expect_quarantine)
                ),
            )

        if kind == "enospc":
            row = ChaosOutcome(
                kind, "", expected="degraded",
                detection="disk watermark probe (preflight + in-run)",
                recovery="manifest-only checkpoints; payloads recomputed on resume",
            )
            with ChaosPlan((ChaosFault("enospc"),), arm_dir) as plan:
                guards = ResourceGuards(
                    min_disk_mb=1.0, check_every=0.0, disk_probe=plan.disk_probe
                )
                runner = Runner(
                    checkpoint_dir=ckpt, n_chunks=n_chunks, workers=workers,
                    retry_policy=policy, resource_guards=guards,
                )
                outcome = runner.run(task, n_walks, seed, label=kind)
            payloads = list(ckpt.glob("*/chunks/chunk_*.npz"))
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: o.complete and o.storage_degraded and not payloads,
            )

        if kind == "sigterm":
            row = ChaosOutcome(
                kind, "", expected="completed",
                detection="signal trap (cooperative stop flag)",
                recovery="stop at chunk boundary; checkpoint resume",
            )
            with ChaosPlan((ChaosFault("sigterm", chunk=1),), arm_dir) as plan:
                runner = Runner(
                    checkpoint_dir=ckpt, workers=workers, n_chunks=n_chunks,
                    retry_policy=policy, fault_injector=plan,
                )
                with trap_signals():
                    first = runner.run(task, n_walks, seed, label=kind)
            interrupted = first.interrupted
            outcome = Runner(
                checkpoint_dir=ckpt, workers=workers, n_chunks=n_chunks, resume=True
            ).run(task, n_walks, seed, label=kind)
            return finish(
                row, outcome, identical(outcome.payload),
                lambda o: interrupted and o.complete and o.resumed_chunks >= 1,
            )

        if kind == "poison":
            row = ChaosOutcome(
                kind, "", expected="quarantined",
                detection="per-point circuit breaker (repeated failures)",
                recovery="quarantine the point; siblings complete",
            )
            runner = Runner(
                workers=workers, n_chunks=n_chunks,
                retry_policy=replace(policy, max_attempts=2, quarantine_after=2),
            )
            outcomes = runner.run_many(
                [
                    Job(PoisonTask(task), n_walks, seed, label="poison"),
                    Job(task, n_walks, seed, label="healthy"),
                ]
            )
            poison, healthy = outcomes
            row = finish(
                row, poison, identical(healthy.payload),
                lambda o: o.quarantined_point and healthy.complete,
            )
            return row

        raise AssertionError(f"unhandled chaos kind {kind!r}")  # pragma: no cover

    try:
        rows = []
        for kind in kinds:
            try:
                rows.append(scenario(kind))
            except (ChaosCrash, ChunkFailedError, FaultInjected) as exc:
                rows.append(
                    ChaosOutcome(
                        kind, "failed", expected="recovered",
                        detection="-", recovery="-", exit_code=1, ok=False,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
        return rows
    finally:
        if cleanup:
            rmtree(base, ignore_errors=True)
