"""Shared scaffolding for the experiment harnesses.

Every experiment module exposes::

    EXPERIMENT_ID  -- short id matching DESIGN.md's per-experiment index
    TITLE          -- one-line description
    run(scale="small", seed=0) -> ExperimentResult
    main(argv=None)            -- CLI entry point

``scale`` selects a preset size: ``smoke`` (seconds; used by the pytest
benchmarks and CI), ``small`` (tens of seconds; the default), ``full``
(minutes; the numbers recorded in EXPERIMENTS.md).  Every run is seeded
and prints its seed, so any figure in EXPERIMENTS.md can be regenerated
exactly.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.reporting.table import Table
from repro.rng import SeedLike, as_generator
from repro.telemetry.recorder import get_recorder

SCALES = ("smoke", "small", "full")


def default_target(l: int) -> tuple[int, int]:
    """A generic target node at Manhattan distance ``l`` from the origin.

    The theorems hold for *any* node of ``R_l(0)``; we pick an off-axis,
    off-diagonal direction (roughly one third of the way around the ring)
    so results are not accidentally flattered by the extra symmetry of
    axis or diagonal targets.
    """
    if l < 1:
        raise ValueError(f"target distance must be positive, got {l}")
    x = l - l // 3
    return (x, l - x)


@dataclass(frozen=True)
class Check:
    """One pass/fail comparison between measurement and theory."""

    description: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.description}{suffix}"


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    scale: str
    seed: int
    tables: List[Table] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    plots: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed (vacuously true with no checks)."""
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"scale={self.scale} seed={self.seed}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for plot in self.plots:
            lines.append(plot)
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.checks:
            lines.append("")
            for check in self.checks:
                lines.append(check.render())
            verdict = "ALL CHECKS PASSED" if self.passed else "SOME CHECKS FAILED"
            lines.append(verdict)
        return "\n".join(lines)


def sample_hitting_times(
    jumps,
    target,
    horizon: int,
    n_walks: int,
    rng: SeedLike,
    runner=None,
    label: str = "hitting",
    detect_during_jump: bool = True,
    flight: bool = False,
):
    """Engine call that optionally routes through a fault-tolerant runner.

    With ``runner=None`` this is exactly
    :func:`repro.engine.vectorized.walk_hitting_times` (or the flight
    variant).  With a :class:`repro.runner.Runner`, the sample is drawn in
    checkpointed chunks under ``label``; the call then consumes exactly one
    integer from ``rng`` (the chunk-plan root seed), so a resumed
    experiment re-derives identical seeds for every sampling call.  A
    deadline-expired or interrupted runner yields a *partial* (still valid,
    censored) sample; the runner records the degradation for the CLI.
    """
    rng = as_generator(rng)
    with get_recorder().span("task", task=label, kind="hitting", n_walks=int(n_walks)):
        if runner is None:
            from repro.engine.vectorized import flight_hitting_times, walk_hitting_times

            if flight:
                return flight_hitting_times(jumps, target, horizon=horizon, n=n_walks, rng=rng)
            return walk_hitting_times(
                jumps,
                target,
                horizon=horizon,
                n=n_walks,
                rng=rng,
                detect_during_jump=detect_during_jump,
            )
        from repro.runner.tasks import HittingTimeTask

        task = HittingTimeTask(
            jumps=jumps,
            target=(int(target[0]), int(target[1])),
            horizon=int(horizon),
            detect_during_jump=detect_during_jump,
            flight=flight,
        )
        seed = int(rng.integers(0, 2**63 - 1))
        return runner.run(task, n_walks, seed, label=label).payload


def sample_foraging(
    jumps,
    targets,
    horizon: int,
    n_walks: int,
    rng: SeedLike,
    runner=None,
    label: str = "foraging",
):
    """Multi-target search that optionally routes through a runner.

    Same contract as :func:`sample_hitting_times`, for
    :func:`repro.engine.multi_target.multi_target_search`.
    """
    rng = as_generator(rng)
    with get_recorder().span("task", task=label, kind="foraging", n_walks=int(n_walks)):
        if runner is None:
            from repro.engine.multi_target import multi_target_search

            return multi_target_search(jumps, targets, horizon=horizon, n=n_walks, rng=rng)
        from repro.runner.tasks import ForagingTask

        task = ForagingTask.with_targets(jumps, targets, int(horizon))
        seed = int(rng.integers(0, 2**63 - 1))
        return runner.run(task, n_walks, seed, label=label).payload


def validate_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


def bounded(convert, low, *, strict: bool = False):
    """An argparse ``type=`` that also rejects values below ``low``.

    With ``strict`` the bound itself is rejected too.  Out-of-range (and
    NaN) values become usage errors -- exit 2 with a message -- instead
    of a traceback from the code that would have used them.
    """

    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}"
            )
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = convert.__name__
    return parse


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the fault-tolerant runner's CLI flags on ``parser``."""
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for durable per-chunk checkpoints (enables resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous run from --checkpoint-dir, skipping valid chunks",
    )
    parser.add_argument(
        "--max-seconds",
        type=bounded(float, 0),
        default=None,
        help="walltime budget; expiry returns partial (degraded) samples",
    )
    parser.add_argument(
        "--workers",
        type=bounded(int, 0),
        default=0,
        help="run chunks in a process pool of this size (0 = in-process)",
    )
    parser.add_argument(
        "--chunks",
        type=bounded(int, 1),
        default=None,
        help="chunks per sampling call (default 8 when a runner is active)",
    )
    parser.add_argument(
        "--stop-when-ci",
        type=float,
        default=None,
        metavar="REL",
        dest="stop_when_ci",
        help="sequential stopping: finish each sampling call early once its "
        "95%% Wilson CI half-width is below REL times the point estimate "
        "(e.g. 0.1 = +/-10%%); the run reports converged, not degraded",
    )
    parser.add_argument(
        "--min-chunks",
        type=int,
        default=3,
        dest="min_chunks",
        help="never stop before this many chunks completed (with --stop-when-ci)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=bounded(float, 0, strict=True),
        default=None,
        dest="chunk_timeout",
        help="hung-chunk watchdog: kill and reschedule any pooled chunk "
        "whose worker heartbeat goes silent for this many seconds",
    )
    parser.add_argument(
        "--max-attempts",
        type=bounded(int, 1),
        default=None,
        dest="max_attempts",
        help="retry budget per chunk including the first try (default 4); "
        "backoff between attempts is exponential with seeded jitter",
    )
    parser.add_argument(
        "--quarantine-after",
        type=bounded(int, 1),
        default=None,
        dest="quarantine_after",
        metavar="N",
        help="circuit breaker: quarantine a grid point after N chunk "
        "failures instead of failing the whole run (exit code 4)",
    )
    parser.add_argument(
        "--min-disk-mb",
        type=float,
        default=None,
        dest="min_disk_mb",
        metavar="MB",
        help="degrade checkpointing to manifest-only mode when free disk "
        "in the checkpoint directory drops below MB",
    )
    parser.add_argument(
        "--min-memory-mb",
        type=float,
        default=None,
        dest="min_memory_mb",
        metavar="MB",
        help="degrade checkpointing to manifest-only mode when available "
        "memory drops below MB",
    )


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the telemetry CLI flags (see docs/observability.md)."""
    parser.add_argument(
        "--log-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="append structured run events (JSONL) to PATH; render later "
        "with 'repro-experiment report PATH'",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON metrics snapshot (counters/gauges/histograms) to "
        "PATH at the end of the run",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a live one-line heartbeat to stderr per chunk/retry/run event",
    )


def add_registry_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the run-registry CLI flags (see docs/observability.md)."""
    from repro.telemetry.registry import DEFAULT_REGISTRY_DIR

    parser.add_argument(
        "--registry-dir",
        type=Path,
        default=Path(DEFAULT_REGISTRY_DIR),
        metavar="DIR",
        help="run-registry directory; every run appends a RunRecord to "
        f"DIR/runs.jsonl (default {DEFAULT_REGISTRY_DIR}/); inspect with "
        "'repro-experiment runs list'",
    )
    parser.add_argument(
        "--no-registry",
        action="store_true",
        dest="no_registry",
        help="do not register this run in the run registry",
    )


def registry_from_args(args: argparse.Namespace):
    """The :class:`~repro.telemetry.registry.RunRegistry` for this run.

    Returns ``None`` when registration is disabled (``--no-registry``)
    or the parser never grew the registry flags.
    """
    if getattr(args, "no_registry", False):
        return None
    registry_dir = getattr(args, "registry_dir", None)
    if registry_dir is None:
        return None
    from repro.telemetry.registry import RunRegistry

    return RunRegistry(registry_dir)


def telemetry_from_args(args: argparse.Namespace, run_id: Optional[str] = None):
    """Install a live recorder from parsed telemetry flags.

    Returns ``(recorder, previous)`` -- ``(None, None)`` when no
    telemetry flag was used, so plain runs keep the no-op recorder.  The
    caller must call :func:`finish_telemetry` with the pair when done.
    ``run_id`` is stamped into the event log's ``log_open`` header and
    the ``--metrics-out`` snapshot, joining both artifacts to the run's
    registry record.
    """
    wants = (
        args.log_json is not None
        or args.metrics_out is not None
        or getattr(args, "progress", False)
    )
    if not wants:
        return None, None
    from repro import telemetry

    previous = telemetry.get_recorder()
    recorder = telemetry.configure(
        log_path=args.log_json,
        progress=sys.stderr if args.progress else None,
        run_id=run_id,
    )
    return recorder, previous


def finish_telemetry(
    args: argparse.Namespace,
    recorder,
    previous,
    run_id: Optional[str] = None,
) -> None:
    """Export the metrics snapshot, close the event log, restore the seam."""
    if recorder is None:
        return
    from repro import telemetry

    try:
        if args.metrics_out is not None:
            meta = None
            if run_id is not None:
                from repro.telemetry.registry import utc_now_iso

                meta = {"run_id": run_id, "created_at": utc_now_iso()}
            recorder.metrics.write_json(args.metrics_out, meta=meta)
    finally:
        recorder.close()
        telemetry.set_recorder(previous)


def runner_from_args(args: argparse.Namespace):
    """Build a :class:`repro.runner.Runner` from parsed runner flags.

    Returns ``None`` when no runner-related flag was used, so plain runs
    keep the zero-overhead direct engine path.
    """
    stop_when_ci = getattr(args, "stop_when_ci", None)
    chunk_timeout = getattr(args, "chunk_timeout", None)
    max_attempts = getattr(args, "max_attempts", None)
    quarantine_after = getattr(args, "quarantine_after", None)
    min_disk_mb = getattr(args, "min_disk_mb", None)
    min_memory_mb = getattr(args, "min_memory_mb", None)
    wants_runner = (
        args.checkpoint_dir is not None
        or args.resume
        or args.max_seconds is not None
        or args.workers
        or args.chunks is not None
        or stop_when_ci is not None
        or chunk_timeout is not None
        or max_attempts is not None
        or quarantine_after is not None
        or min_disk_mb is not None
        or min_memory_mb is not None
    )
    if not wants_runner:
        return None
    from repro.runner import Runner

    convergence = None
    if stop_when_ci is not None:
        from repro.telemetry.convergence import ConvergenceConfig

        convergence = ConvergenceConfig(
            rel_ci_width=stop_when_ci,
            min_chunks=getattr(args, "min_chunks", 3),
        )
    retry_policy = None
    if max_attempts is not None or quarantine_after is not None:
        from repro.runner import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=max_attempts if max_attempts is not None else 4,
            quarantine_after=quarantine_after,
        )
    resource_guards = None
    if min_disk_mb is not None or min_memory_mb is not None:
        from repro.runner import ResourceGuards

        resource_guards = ResourceGuards(
            min_disk_mb=min_disk_mb or 0.0,
            min_memory_mb=min_memory_mb or 0.0,
        )
    return Runner(
        checkpoint_dir=args.checkpoint_dir,
        n_chunks=args.chunks if args.chunks is not None else 8,
        workers=args.workers,
        max_seconds=args.max_seconds,
        chunk_timeout=chunk_timeout,
        resume=args.resume,
        convergence=convergence,
        retry_policy=retry_policy,
        resource_guards=resource_guards,
    )


def run_accepts_runner(run) -> bool:
    """True when an experiment's ``run`` has grown a ``runner`` parameter."""
    import inspect

    try:
        return "runner" in inspect.signature(run).parameters
    except (TypeError, ValueError):
        return False


def register_run(
    args: argparse.Namespace,
    *,
    command: str,
    label: str,
    run_id: str,
    exit_code: int,
    recorder=None,
    estimates: Sequence = (),
    walltime_seconds: Optional[float] = None,
    config: Optional[dict] = None,
    notes: Sequence[str] = (),
) -> None:
    """Append this run's :class:`RunRecord` to the configured registry.

    Registration is best-effort bookkeeping: a full disk or read-only
    registry directory must never turn a finished run into a failure, so
    every OSError is reported as a warning and swallowed.
    """
    registry = registry_from_args(args)
    if registry is None:
        return
    from repro.telemetry.registry import build_run_record

    artifacts = {
        "events": getattr(args, "log_json", None),
        "metrics": getattr(args, "metrics_out", None),
        "checkpoint_dir": getattr(args, "checkpoint_dir", None),
        "json": getattr(args, "json_out", None),
    }
    # Pool effectiveness comes from the closed event log's worker
    # intervals (the same analysis `profile` renders); no log, no number.
    pool = {}
    log_path = getattr(args, "log_json", None)
    if log_path is not None and Path(log_path).exists():
        try:
            from repro.telemetry.events import read_events
            from repro.telemetry.profile import summarize_profile

            profile = summarize_profile(read_events(log_path))
            if profile.effective_parallelism is not None:
                pool["effective_parallelism"] = round(
                    profile.effective_parallelism, 3
                )
                workers = getattr(args, "workers", 0) or 0
                if workers > 0:
                    pool["pool_speedup"] = round(
                        profile.effective_parallelism, 3
                    )
        except (OSError, ValueError):
            pass
    record = build_run_record(
        command=command,
        label=label,
        run_id=run_id,
        seed=getattr(args, "seed", None),
        scale=getattr(args, "scale", None),
        config=config,
        exit_code=exit_code,
        estimates=estimates,
        recorder=recorder,
        walltime_seconds=walltime_seconds,
        workers=getattr(args, "workers", None) or None,
        pool=pool,
        artifacts=artifacts,
        notes=notes,
    )
    try:
        registry.register(record)
    except OSError as exc:
        print(f"warning: could not register run in {registry.path}: {exc}",
              file=sys.stderr)


def experiment_main(run, argv: Optional[Sequence[str]] = None) -> int:
    """Standard CLI wrapper used by every experiment's ``main``."""
    import time

    from repro.telemetry.registry import new_run_id

    parser = argparse.ArgumentParser(description=run.__doc__)
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--seed", type=int, default=0)
    add_runner_arguments(parser)
    add_telemetry_arguments(parser)
    add_registry_arguments(parser)
    args = parser.parse_args(argv)
    run_id = new_run_id()
    recorder, previous = telemetry_from_args(args, run_id=run_id)
    if recorder is not None:
        recorder.bind(scale=args.scale, seed=args.seed)
    started = time.monotonic()
    try:
        runner = runner_from_args(args)
        if runner is not None and run_accepts_runner(run):
            result = run(scale=args.scale, seed=args.seed, runner=runner)
        else:
            if runner is not None:
                # Diagnostics go to stderr: stdout is the experiment report
                # and may be piped into CSV/markdown tooling.
                print(
                    "note: this experiment does not support the chunked runner; "
                    "runner flags ignored",
                    file=sys.stderr,
                )
            result = run(scale=args.scale, seed=args.seed)
        exit_code = 0 if result.passed else 1
        register_run(
            args,
            command="experiment",
            label=result.experiment_id,
            run_id=run_id,
            exit_code=exit_code,
            recorder=recorder,
            walltime_seconds=time.monotonic() - started,
            config={"scale": args.scale, "seed": args.seed},
            notes=[c.description for c in result.checks if not c.passed],
        )
    finally:
        finish_telemetry(args, recorder, previous, run_id=run_id)
    print(result.render())
    return exit_code
