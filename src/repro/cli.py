"""Command-line entry point: run paper experiments from a terminal.

Installed as ``repro-experiment`` (see pyproject.toml)::

    repro-experiment list
    repro-experiment run EXP-T1.6 --scale small --seed 1
    repro-experiment run all --scale smoke --csv-dir results/
    repro-experiment run EXP-T1.1 --scale full \\
        --checkpoint-dir ckpt/ --chunks 32 --workers 4 --resume \\
        --max-seconds 3600 --stop-when-ci 0.1 \\
        --log-json events.jsonl --metrics-out metrics.json --progress
    repro-experiment report events.jsonl
    repro-experiment profile events.jsonl --diff baseline.jsonl
    repro-experiment watch events.jsonl
    repro-experiment bench-history BENCH_runner.json fresh.json \\
        --max-regression 25%

Telemetry (docs/observability.md): ``--log-json`` appends structured
JSONL events (run/chunk/retry/checkpoint/quarantine/deadline/signal,
plus per-chunk ``estimate`` events with running Wilson CIs and
``incident`` anomaly events), ``--metrics-out`` exports a
counters/gauges/histograms snapshot, ``--progress`` prints a live
heartbeat to stderr.  ``report`` renders an event log into chunk
timelines, estimate/retry/incident summaries, and throughput; ``watch``
follows a *growing* log live; ``--stop-when-ci`` enables sequential
stopping (finish early once the CI is tight -- a *converged* run, exit
0, distinct from a deadline-degraded one); ``bench-history`` diffs
committed ``BENCH_*.json`` snapshots against a fresh benchmark run.

Exit codes (documented in docs/runner.md):

* 0 -- every requested experiment ran and all checks passed (including
  runs that stopped early because their CI target converged);
* 1 -- at least one experiment failed its checks or raised;
* 2 -- usage error (e.g. unknown experiment id);
* 3 -- all checks passed but a walltime budget expired (or checkpointing
  fell back to degraded manifest-only mode under resource pressure), so
  some artefacts are partial (degraded);
* 4 -- at least one grid point was quarantined by the retry circuit
  breaker (a poison point kept failing; the rest of the grid completed);
* 130 -- interrupted by SIGINT/SIGTERM; completed chunks are checkpointed
  and a ``--resume`` rerun continues where this one stopped.

``chaos`` runs the self-validating fault-injection matrix from
:mod:`repro.runner.chaos` (docs/runner.md, "Failure model"): every fault
must end in a classified outcome with the documented exit code.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.common import (
    SCALES,
    add_registry_arguments,
    add_runner_arguments,
    add_telemetry_arguments,
    bounded,
    finish_telemetry,
    register_run,
    run_accepts_runner,
    runner_from_args,
    telemetry_from_args,
)
from repro.experiments.registry import experiment_ids, get_experiment, run_experiment
from repro.reporting.table import Table

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_QUARANTINED = 4
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduction experiments for 'Search via Parallel Levy Walks "
            "on Z^2' (PODC 2021)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiment ids")
    runner = subparsers.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", help="experiment id from 'list', or 'all'")
    runner.add_argument("--scale", choices=SCALES, default="small")
    runner.add_argument("--seed", type=int, default=0)
    runner.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also dump every result table as CSV into this directory",
    )
    add_runner_arguments(runner)
    add_telemetry_arguments(runner)
    add_registry_arguments(runner)
    sweeper = subparsers.add_parser(
        "sweep",
        help="run a declarative parameter grid over one shared runner pool",
        description=(
            "Declare a grid (axes: --alpha/--bout x --l x --detect), execute "
            "every point over ONE shared pool/deadline/checkpoint "
            "store/telemetry stream, and print the per-point summary.  "
            "Per-point samples are bit-identical across --workers settings "
            "and resumes (see docs/sweep.md)."
        ),
    )
    sweeper.add_argument(
        "--alpha",
        default=None,
        metavar="A1,A2,...",
        help="Levy exponent axis (comma-separated floats)",
    )
    sweeper.add_argument(
        "--bout",
        default=None,
        metavar="B1,B2,...",
        help="CCRW mean-bout-length axis (comma-separated floats); "
        "mutually exclusive with --alpha",
    )
    sweeper.add_argument(
        "--l",
        required=True,
        dest="l_values",
        metavar="L1,L2,...",
        help="target distance axis (comma-separated ints)",
    )
    sweeper.add_argument(
        "--detect",
        default=None,
        metavar="MODE,...",
        help="detection-mode axis: 'during' (paper), 'endpoint' "
        "(intermittent), or both comma-separated",
    )
    sweeper.add_argument(
        "--n-walks",
        type=int,
        default=2_000,
        dest="n_walks",
        help="single walks simulated per grid point (default 2000)",
    )
    sweeper.add_argument(
        "--horizon",
        default="l2",
        help="per-point step budget: an integer, or 'l2' for l^2 (default)",
    )
    sweeper.add_argument(
        "--k",
        type=int,
        default=None,
        help="group size for parallel-time estimates (optional)",
    )
    sweeper.add_argument(
        "--n-groups",
        type=int,
        default=None,
        dest="n_groups",
        help="bootstrap resamples per point (with --k; omit for exact "
        "consecutive-block grouping)",
    )
    sweeper.add_argument("--seed", type=int, default=0)
    sweeper.add_argument(
        "--label", default="sweep", help="label prefix for checkpoints/events"
    )
    sweeper.add_argument(
        "--json",
        type=Path,
        default=None,
        dest="json_out",
        metavar="PATH",
        help="also write the per-point summary as JSON to PATH",
    )
    add_runner_arguments(sweeper)
    add_telemetry_arguments(sweeper)
    add_registry_arguments(sweeper)
    reporter = subparsers.add_parser(
        "report", help="render a --log-json event log into text tables"
    )
    reporter.add_argument("path", type=Path, help="JSONL event log to render")
    reporter.add_argument(
        "--strict",
        action="store_true",
        help="fail on corrupt interior log lines instead of skipping them",
    )
    profiler = subparsers.add_parser(
        "profile",
        help="analyse where walltime went: engine phases, worker "
        "utilization, IPC",
        description=(
            "Render a performance profile from a --log-json event log: "
            "engine phase breakdown (rng / cdf_lookup / state_update / "
            "target_check / compaction) with percentage bars, per-worker "
            "utilization gantt and effective parallelism, IPC bytes and "
            "pickle costs, and the top-N slowest chunks with phase "
            "attribution.  Pure log analysis: works on torn, killed, and "
            "pre-v3 logs (the phase sections degrade to a note)."
        ),
    )
    profiler.add_argument("path", type=Path, help="JSONL event log to profile")
    profiler.add_argument(
        "--diff",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a baseline event log (before/after a change)",
    )
    profiler.add_argument(
        "--top",
        type=int,
        default=8,
        help="how many slowest chunks to list (default 8)",
    )
    profiler.add_argument(
        "--width", type=int, default=48, help="bar/gantt width (default 48)"
    )
    profiler.add_argument(
        "--strict",
        action="store_true",
        help="fail on corrupt interior log lines instead of skipping them",
    )
    watcher = subparsers.add_parser(
        "watch", help="follow a growing --log-json event log live"
    )
    watcher.add_argument("path", type=Path, help="JSONL event log to follow")
    watcher.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    watcher.add_argument(
        "--once",
        action="store_true",
        help="render one frame from the current log contents and exit",
    )
    watcher.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        dest="watch_max_seconds",
        help="stop following after this many seconds (default: until the log closes)",
    )
    watcher.add_argument(
        "--width", type=int, default=40, help="bar width for the CI chart"
    )
    bench = subparsers.add_parser(
        "bench-history",
        help="diff two BENCH_*.json benchmark snapshots and fail on regressions",
    )
    bench.add_argument(
        "baseline",
        type=Path,
        nargs="?",
        default=None,
        help="committed snapshot (the reference); omit with --from-registry",
    )
    bench.add_argument(
        "current",
        type=Path,
        nargs="?",
        default=None,
        help="freshly generated snapshot; omit with --from-registry",
    )
    bench.add_argument(
        "--from-registry",
        action="store_true",
        dest="from_registry",
        help="render walltime/estimate/parallelism trend sparklines over "
        "the last registered runs instead of diffing two snapshot files",
    )
    bench.add_argument(
        "--registry-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="registry to read with --from-registry (default .repro-registry/)",
    )
    bench.add_argument(
        "--last",
        type=int,
        default=10,
        metavar="N",
        help="how many registered runs to trend with --from-registry (default 10)",
    )
    bench.add_argument(
        "--max-regression",
        default="25%",
        metavar="PCT",
        help="regression threshold, e.g. 25%% or 0.25 (default 25%%)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help=(
            "report regressions without failing (CI's engine-timing mode); "
            "*_fused_mean_seconds regressions still fail"
        ),
    )
    bench.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail (exit 2) when a snapshot is missing or unparseable; "
            "the default warns and skips the comparison"
        ),
    )
    chaos = subparsers.add_parser(
        "chaos",
        help="run the fault-injection chaos matrix and verify every recovery",
        description=(
            "Inject each requested fault (hang, crash, corrupt-return, "
            "worker-kill, checkpoint corruption, ENOSPC, SIGTERM, poison "
            "point, ...) into a small supervised run and assert it ends in "
            "the documented outcome with the documented exit code and a "
            "bit-identical recovered sample.  Exit 0 iff every scenario "
            "behaves; see docs/runner.md, 'Failure model'."
        ),
    )
    chaos.add_argument(
        "--faults",
        default=None,
        metavar="KIND,...",
        help=(
            "comma-separated fault kinds to run (default: the full matrix); "
            "known kinds: hang, slowdown, crash, corrupt-return, worker-kill, "
            "crash-before-write, crash-after-write, corrupt-checkpoint, "
            "enospc, sigterm, poison"
        ),
    )
    chaos.add_argument(
        "--workers",
        type=bounded(int, 0),
        default=2,
        help="pool size for pooled scenarios (default 2)",
    )
    chaos.add_argument(
        "--chunk-timeout",
        type=bounded(float, 0, strict=True),
        default=1.0,
        dest="chunk_timeout",
        help="hung-chunk watchdog timeout in seconds (default 1)",
    )
    chaos.add_argument(
        "--n-walks",
        type=int,
        default=400,
        dest="n_walks",
        help="walks per scenario run (default 400)",
    )
    chaos.add_argument("--seed", type=int, default=42)

    runs = subparsers.add_parser(
        "runs",
        help="inspect the run registry: list, show, compare (drift), gc",
        description=(
            "Every run/sweep/experiment invocation appends a RunRecord "
            "(provenance, outcome, Wilson-CI estimates, phase profile, "
            "incidents) to the append-only registry.  'compare' performs "
            "CI-aware statistical drift detection between two runs: "
            "disjoint 95% Wilson intervals on the same grid point flag "
            "DRIFT (non-zero exit under --strict)."
        ),
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _registry_dir_flag(p):
        p.add_argument(
            "--registry-dir",
            type=Path,
            default=None,
            metavar="DIR",
            help="registry directory (default .repro-registry/)",
        )

    runs_list = runs_sub.add_parser("list", help="list registered runs")
    _registry_dir_flag(runs_list)
    runs_list.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the newest N records",
    )
    runs_list.add_argument(
        "--command", default=None, dest="runs_filter_command",
        metavar="CMD", help="only records of this command (run/sweep/experiment)",
    )
    runs_show = runs_sub.add_parser("show", help="show one run record in full")
    _registry_dir_flag(runs_show)
    runs_show.add_argument(
        "run", help="run id, unique id prefix, or 'last'/'prev'"
    )
    runs_compare = runs_sub.add_parser(
        "compare",
        help="CI-aware drift detection between two registered runs",
    )
    _registry_dir_flag(runs_compare)
    runs_compare.add_argument("run_a", help="baseline run (id/prefix/'prev')")
    runs_compare.add_argument("run_b", help="candidate run (id/prefix/'last')")
    runs_compare.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any grid point's Wilson CIs are disjoint",
    )
    runs_gc = runs_sub.add_parser(
        "gc", help="compact the registry, keeping recent records"
    )
    _registry_dir_flag(runs_gc)
    runs_gc.add_argument(
        "--keep", type=int, default=50, metavar="N",
        help="newest records to keep (default 50)",
    )
    runs_gc.add_argument(
        "--max-age-days", type=float, default=None, dest="max_age_days",
        metavar="D", help="additionally drop kept-range records older than D days",
    )
    runs_gc.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="report what would be dropped without rewriting the registry",
    )

    dashboard = subparsers.add_parser(
        "dashboard",
        help="render the run registry as one self-contained HTML file",
        description=(
            "Emit a single static HTML document (inline CSS + SVG, zero "
            "JavaScript, no external assets) with estimate trajectories "
            "per grid point across runs (95% Wilson CIs as whiskers), "
            "walltime and convergence trends, phase-seconds stacked "
            "bars, and the incident/quarantine ledger."
        ),
    )
    dashboard.add_argument("output", type=Path, help="HTML file to write")
    dashboard.add_argument(
        "--registry-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="registry directory (default .repro-registry/)",
    )
    dashboard.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only render the newest N records",
    )
    dashboard.add_argument(
        "--title", default="Run registry dashboard", help="page title"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived estimation daemon (docs/serve.md)",
        description=(
            "Answer typed hitting-probability queries over a unix or TCP "
            "socket (newline-delimited JSON) in three tiers: persistent "
            "result-cache hit, instant theory surrogate, background "
            "Monte-Carlo refinement streaming progressive responses.  "
            "Concurrent queries for the same canonical (law, geometry, "
            "horizon) key coalesce into one shared engine call.  On "
            "startup the run registry's estimates warm the cache, so "
            "prior sweeps answer queries without re-simulating.  SIGTERM "
            "or a client 'shutdown' op stops the daemon cleanly."
        ),
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="ADDR",
        help="unix-socket path, or host:port for TCP "
        "(default .repro-serve.sock)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persistent result-cache directory (default .repro-cache/)",
    )
    serve.add_argument(
        "--registry-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="run registry to warm-start from (default .repro-registry/)",
    )
    serve.add_argument(
        "--no-warm-start",
        action="store_true",
        help="skip the registry entirely (no warm start, no warm lookups)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="how long a fresh refinement job waits for duplicate queries "
        "to join it before calling the engine (default 0.05)",
    )
    serve.add_argument(
        "--round-walks", type=int, default=2_000, metavar="N",
        help="walks in the first refinement round (rounds double; default 2000)",
    )
    serve.add_argument(
        "--max-walks", type=int, default=200_000, metavar="N",
        help="per-query walk budget (default 200000)",
    )
    serve.add_argument(
        "--chunks", type=int, default=8, metavar="N",
        help="runner chunks per refinement round (default 8)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="override the per-key deterministic refinement seed",
    )
    add_telemetry_arguments(serve)

    query = subparsers.add_parser(
        "query",
        help="ask a running estimation daemon one typed question",
        description=(
            "Client for 'serve': sends one EstimateRequest and prints "
            "each response line as it streams back (theory surrogate "
            "first, then progressive CI-tightening simulation responses, "
            "then the final answer).  Also exposes the daemon's ping/"
            "stats/shutdown ops."
        ),
    )
    query.add_argument(
        "--socket",
        default=None,
        metavar="ADDR",
        help="daemon address: unix-socket path or host:port "
        "(default .repro-serve.sock)",
    )
    query.add_argument("--alpha", type=float, default=None, help="Levy exponent (> 1)")
    query.add_argument(
        "--l", type=int, default=None, dest="l",
        help="target distance from the origin (>= 1)",
    )
    query.add_argument(
        "--k", type=int, default=1, help="parallel walkers (default 1)"
    )
    query.add_argument(
        "--horizon", type=int, default=None, metavar="T",
        help="step budget (default l**2, the paper's)",
    )
    query.add_argument(
        "--max-ci", type=float, default=None, dest="max_ci", metavar="W",
        help="target absolute 95%% Wilson half-width; omitting it accepts "
        "an instant theory surrogate",
    )
    query.add_argument(
        "--no-detect", action="store_true",
        help="endpoint-only detection (the paper's model detects mid-jump)",
    )
    query.add_argument(
        "--final-only", action="store_true",
        help="suppress progressive lines; print only the final answer",
    )
    query.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print raw response JSON lines instead of the human form",
    )
    query.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="socket timeout (default 600)",
    )
    query.add_argument(
        "--stats", action="store_true", help="print daemon stats and exit"
    )
    query.add_argument(
        "--ping", action="store_true", help="liveness probe: exit 0 if alive"
    )
    query.add_argument(
        "--shutdown", action="store_true", help="stop the daemon cleanly"
    )
    return parser


def _dump_csv(result, csv_dir: Path) -> None:
    csv_dir.mkdir(parents=True, exist_ok=True)
    safe_id = result.experiment_id.replace("/", "_").replace(".", "_")
    for index, table in enumerate(result.tables):
        table.to_csv(csv_dir / f"{safe_id}_table{index}.csv")


def _safe_dirname(experiment_id: str) -> str:
    return "".join(c if (c.isalnum() or c in "._-") else "_" for c in experiment_id)


def _run_one(experiment_id: str, args, checkpoint_root: Optional[Path]):
    """Run one experiment with a per-experiment runner (if requested).

    Returns ``(result_or_None, runner_or_None, error_or_None)``.
    """
    runner_args = argparse.Namespace(**vars(args))
    if checkpoint_root is not None:
        runner_args.checkpoint_dir = checkpoint_root / _safe_dirname(experiment_id)
    runner = runner_from_args(runner_args)
    if runner is not None and not run_accepts_runner(get_experiment(experiment_id).run):
        print(
            f"note: {experiment_id} does not support the chunked runner; "
            "running it directly",
            file=sys.stderr,
        )
        runner = None
    try:
        result = run_experiment(
            experiment_id, scale=args.scale, seed=args.seed, runner=runner
        )
        return result, runner, None
    except Exception as exc:  # noqa: BLE001 -- one bad experiment must not kill a sweep
        return None, runner, exc


def _parse_axis(text: Optional[str], convert, option: str) -> Optional[list]:
    if text is None:
        return None
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        print(f"error: {option} expects comma-separated values, got {text!r}",
              file=sys.stderr)
        return None
    if not values:
        print(f"error: {option} has no values", file=sys.stderr)
        return None
    return values


def _sweep_grid(args) -> int:
    """The ``sweep`` subcommand: declare, schedule, summarise a grid."""
    from repro.io_utils import atomic_write_json
    from repro.runner import trap_signals
    from repro.sweep import SweepSpec, run_sweep

    alphas = _parse_axis(args.alpha, float, "--alpha")
    bouts = _parse_axis(args.bout, float, "--bout")
    ls = _parse_axis(args.l_values, int, "--l")
    if ls is None:
        return EXIT_USAGE
    if (alphas is None) == (bouts is None):
        print("error: give exactly one of --alpha (Levy) or --bout (CCRW)",
              file=sys.stderr)
        return EXIT_USAGE
    axes = {}
    if alphas is not None:
        axes["alpha"] = alphas
    else:
        axes["bout"] = bouts
    axes["l"] = ls
    if args.detect is not None:
        modes = []
        for mode in args.detect.split(","):
            mode = mode.strip()
            if mode == "during":
                modes.append(True)
            elif mode == "endpoint":
                modes.append(False)
            elif mode:
                print(f"error: --detect modes are 'during'/'endpoint', got {mode!r}",
                      file=sys.stderr)
                return EXIT_USAGE
        if bouts is not None and modes:
            print("error: --detect does not apply to the CCRW (--bout) walk",
                  file=sys.stderr)
            return EXIT_USAGE
        if modes:
            axes["detect"] = modes
    if args.horizon == "l2":
        horizon = lambda p: p["l"] ** 2  # noqa: E731
    else:
        try:
            horizon = int(args.horizon)
        except ValueError:
            print(f"error: --horizon expects an integer or 'l2', got {args.horizon!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    spec = SweepSpec(
        axes=axes,
        n=args.n_walks,
        horizon=horizon,
        k=args.k,
        n_groups=args.n_groups,
    )
    from repro.telemetry.registry import estimates_from_sweep, new_run_id

    run_id = new_run_id()
    runner = runner_from_args(args)
    recorder, previous = telemetry_from_args(args, run_id=run_id)
    if recorder is not None:
        recorder.bind(seed=args.seed)
    started = time.monotonic()
    try:
        with trap_signals():
            result = run_sweep(spec, seed=args.seed, runner=runner, label=args.label)
    finally:
        finish_telemetry(args, recorder, previous, run_id=run_id)
    walltime = time.monotonic() - started
    print(result.summary_table().render())
    if result.converged:
        print(f"{result.converged} point(s) stopped early on their CI target")
    if args.json_out is not None:
        atomic_write_json(result.to_dict(), args.json_out)
    if result.interrupted:
        print("interrupted; completed chunks are checkpointed", file=sys.stderr)
        code = EXIT_INTERRUPTED
    elif result.quarantined_points:
        print(
            f"{result.quarantined_points} poison point(s) quarantined by the "
            "retry circuit breaker; the rest of the grid completed",
            file=sys.stderr,
        )
        code = EXIT_QUARANTINED
    elif result.degraded:
        print("walltime budget expired; some points are partial (degraded)",
              file=sys.stderr)
        code = EXIT_DEGRADED
    else:
        code = EXIT_OK
    register_run(
        args,
        command="sweep",
        label=args.label,
        run_id=run_id,
        exit_code=code,
        recorder=recorder,
        estimates=estimates_from_sweep(result),
        walltime_seconds=walltime,
        config={
            "axes": {name: list(values) for name, values in axes.items()},
            "n_walks": args.n_walks,
            "horizon": args.horizon,
            "k": args.k,
            "n_groups": args.n_groups,
            "seed": args.seed,
        },
    )
    return code


def _report(args) -> int:
    from repro.io_utils import CorruptResultError
    from repro.telemetry.report import render_file

    try:
        print(render_file(args.path, strict=args.strict))
    except FileNotFoundError:
        print(f"error: no event log at {args.path}", file=sys.stderr)
        return EXIT_USAGE
    except CorruptResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        _swallow_broken_pipe()
    return EXIT_OK


def _profile(args) -> int:
    from repro.io_utils import CorruptResultError
    from repro.telemetry.events import read_events
    from repro.telemetry.profile import render_profile, render_profile_diff

    try:
        events = read_events(args.path, strict=args.strict)
        if args.diff is not None:
            baseline = read_events(args.diff, strict=args.strict)
            print(render_profile_diff(events, baseline, width=args.width))
        else:
            print(render_profile(events, top=args.top, width=args.width))
    except FileNotFoundError as exc:
        print(f"error: no event log at {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorruptResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        _swallow_broken_pipe()
    return EXIT_OK


def _watch(args) -> int:
    from repro.telemetry.watch import follow

    try:
        return follow(
            args.path,
            sys.stdout,
            interval=args.interval,
            once=args.once,
            max_seconds=args.watch_max_seconds,
            width=args.width,
        )
    except KeyboardInterrupt:
        return EXIT_OK
    except BrokenPipeError:
        _swallow_broken_pipe()
        return EXIT_OK


def _bench_history(args) -> int:
    from repro.telemetry.bench_history import compare_files, parse_threshold

    if args.from_registry:
        from repro.telemetry.bench_history import render_registry_trends
        from repro.telemetry.registry import DEFAULT_REGISTRY_DIR, RunRegistry

        registry = RunRegistry(args.registry_dir or DEFAULT_REGISTRY_DIR)
        records = registry.latest(args.last)
        if not records:
            print(f"warning: no registered runs in {registry.path}",
                  file=sys.stderr)
            return EXIT_OK
        print(render_registry_trends(records))
        return EXIT_OK
    if args.baseline is None or args.current is None:
        print("error: bench-history needs BASELINE and CURRENT snapshots "
              "(or --from-registry)", file=sys.stderr)
        return EXIT_USAGE
    try:
        threshold = parse_threshold(args.max_regression)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # A missing or unparseable snapshot is expected when a benchmark was
    # renamed or has not been re-baselined yet: warn and skip so one stale
    # file cannot wedge the whole history gate.  --strict restores the
    # hard failure for jobs that must not silently skip comparisons.
    try:
        text, regressed, hard = compare_files(
            args.baseline, args.current, threshold, warn_only=args.warn_only
        )
    except FileNotFoundError as exc:
        severity = "error" if args.strict else "warning"
        print(f"{severity}: no benchmark snapshot at {exc.filename}; "
              "skipping comparison", file=sys.stderr)
        return EXIT_USAGE if args.strict else EXIT_OK
    except ValueError as exc:
        severity = "error" if args.strict else "warning"
        print(f"{severity}: unreadable benchmark snapshot ({exc}); "
              "skipping comparison", file=sys.stderr)
        return EXIT_USAGE if args.strict else EXIT_OK
    print(text)
    # Gated fused-kernel regressions fail even under --warn-only.
    if hard or (regressed and not args.warn_only):
        return EXIT_FAILED
    return EXIT_OK


def _chaos(args) -> int:
    from repro.runner.chaos import DEFAULT_MATRIX, run_chaos_matrix, render_matrix

    faults = None
    if args.faults is not None:
        faults = [part.strip() for part in args.faults.split(",") if part.strip()]
        unknown = sorted(set(faults) - set(DEFAULT_MATRIX))
        if unknown:
            print(
                "error: unknown fault kind(s) "
                + ", ".join(unknown)
                + "; known: "
                + ", ".join(DEFAULT_MATRIX),
                file=sys.stderr,
            )
            return EXIT_USAGE
        if not faults:
            print("error: --faults has no values", file=sys.stderr)
            return EXIT_USAGE
    rows = run_chaos_matrix(
        faults=faults,
        workers=args.workers,
        chunk_timeout=args.chunk_timeout,
        n_walks=args.n_walks,
        seed=args.seed,
    )
    print(render_matrix(rows))
    bad = [row for row in rows if not row.ok]
    if bad:
        print(
            f"{len(bad)} scenario(s) misbehaved: "
            + ", ".join(row.fault for row in bad),
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _open_registry(args):
    from repro.telemetry.registry import DEFAULT_REGISTRY_DIR, RunRegistry

    return RunRegistry(args.registry_dir or DEFAULT_REGISTRY_DIR)


def _runs(args) -> int:
    """The ``runs`` subcommand group: list / show / compare / gc."""
    from repro.io_utils import CorruptResultError
    from repro.telemetry.registry import (
        compare_records,
        render_record,
        render_runs_table,
    )

    registry = _open_registry(args)
    try:
        if args.runs_command == "list":
            records = registry.latest(
                args.last, command=args.runs_filter_command
            )
            if not records:
                print(f"no registered runs in {registry.path}")
                return EXIT_OK
            print(render_runs_table(records))
            return EXIT_OK
        if args.runs_command == "show":
            print(render_record(registry.resolve(args.run)))
            return EXIT_OK
        if args.runs_command == "compare":
            a = registry.resolve(args.run_a)
            b = registry.resolve(args.run_b)
            text, drifted, warned = compare_records(a, b)
            print(text)
            if drifted and args.strict:
                return EXIT_FAILED
            return EXIT_OK
        # gc
        kept, dropped = registry.gc(
            keep=args.keep,
            max_age_days=args.max_age_days,
            dry_run=args.dry_run,
        )
        verb = "would drop" if args.dry_run else "dropped"
        print(
            f"{verb} {len(dropped)} record(s), kept {len(kept)} in "
            f"{registry.path}"
        )
        protected = [
            r.run_id
            for r in kept
            if r.artifacts.get("checkpoint_dir")
            and Path(r.artifacts["checkpoint_dir"]).exists()
        ]
        if protected:
            print(
                f"{len(protected)} record(s) kept regardless of age: their "
                "checkpoint directories still exist"
            )
        return EXIT_OK
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except CorruptResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except BrokenPipeError:
        _swallow_broken_pipe()
        return EXIT_OK


def _dashboard(args) -> int:
    from repro.reporting.dashboard import write_dashboard

    registry = _open_registry(args)
    records = registry.latest(args.last)
    path = write_dashboard(records, args.output, title=args.title)
    print(f"wrote {path} ({len(records)} run(s))")
    if not records:
        print(
            f"note: the registry at {registry.path} is empty; run a sweep "
            "or experiment first",
            file=sys.stderr,
        )
    return EXIT_OK


def _serve(args) -> int:
    """The ``serve`` subcommand: run the estimation daemon until stopped."""
    import asyncio

    from repro.serve import (
        DEFAULT_SOCKET,
        EstimationService,
        ResultCache,
        parse_address,
        serve_forever,
    )
    from repro.serve.daemon import DEFAULT_BATCH_WINDOW
    from repro.telemetry.registry import (
        DEFAULT_REGISTRY_DIR,
        RunRegistry,
        new_run_id,
    )

    run_id = new_run_id()
    recorder, previous = telemetry_from_args(args, run_id=run_id)
    address = parse_address(args.socket or DEFAULT_SOCKET)
    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    registry = None
    if not args.no_warm_start:
        registry = RunRegistry(args.registry_dir or DEFAULT_REGISTRY_DIR)
    service = EstimationService(
        cache,
        registry,
        recorder=recorder,
        batch_window=(
            args.batch_window if args.batch_window is not None else DEFAULT_BATCH_WINDOW
        ),
        round_walks=args.round_walks,
        max_walks=args.max_walks,
        chunks=args.chunks,
        seed=args.seed,
    )
    if registry is not None:
        imported = service.warm_start()
        print(
            f"warm start: {imported} estimate(s) from {registry.path}",
            file=sys.stderr,
        )
    print(f"serving on {address}", file=sys.stderr)
    try:
        asyncio.run(serve_forever(address, service))
    except KeyboardInterrupt:
        pass
    finally:
        finish_telemetry(args, recorder, previous, run_id=run_id)
    return EXIT_OK


def _query(args) -> int:
    """The ``query`` subcommand: one request against a running daemon."""
    import json

    from repro.api.query import EstimateRequest
    from repro.serve import DEFAULT_SOCKET, parse_address
    from repro.serve.client import ServeClient

    address = parse_address(args.socket or DEFAULT_SOCKET)
    try:
        client = ServeClient(address, timeout=args.timeout)
    except (OSError, ConnectionError) as exc:
        print(f"error: no daemon at {address}: {exc}", file=sys.stderr)
        return EXIT_FAILED
    with client:
        if args.ping:
            print("alive")
            return EXIT_OK
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.shutdown:
            client.shutdown()
            print("daemon stopped", file=sys.stderr)
            return EXIT_OK
        if args.alpha is None or args.l is None:
            print(
                "error: query needs --alpha and --l "
                "(or one of --ping/--stats/--shutdown)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            request = EstimateRequest(
                alpha=args.alpha,
                l=args.l,
                k=args.k,
                horizon=args.horizon,
                max_ci=args.max_ci,
                detect=not args.no_detect,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            for response in client.estimate(request, stream=not args.final_only):
                if args.as_json:
                    print(json.dumps(response.to_dict()), flush=True)
                else:
                    marker = "~" if response.approximate else ""
                    state = "final" if response.final else f"#{response.seq}"
                    print(
                        f"[{response.tier}{marker} {state}] "
                        f"p={response.p:.6f} "
                        f"95% CI [{response.low:.6f}, {response.high:.6f}] "
                        f"half={response.half_width:.6f} "
                        f"trials={response.trials}",
                        flush=True,
                    )
        except (ConnectionError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILED
    return EXIT_OK


def _swallow_broken_pipe() -> None:
    """Piped into ``head``/``less -F`` which closed stdout early; redirect
    the remaining flush to devnull so no traceback leaks on exit."""
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        try:
            for experiment_id in experiment_ids():
                print(experiment_id)
        except BrokenPipeError:
            _swallow_broken_pipe()
        return EXIT_OK
    if args.command == "sweep":
        return _sweep_grid(args)
    if args.command == "report":
        return _report(args)
    if args.command == "profile":
        return _profile(args)
    if args.command == "watch":
        return _watch(args)
    if args.command == "bench-history":
        return _bench_history(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "runs":
        return _runs(args)
    if args.command == "dashboard":
        return _dashboard(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "query":
        return _query(args)

    known = experiment_ids()
    if args.experiment == "all":
        targets = known
    elif args.experiment in known:
        targets = [args.experiment]
    else:
        print(
            f"error: unknown experiment {args.experiment!r}; known ids: "
            + ", ".join(known),
            file=sys.stderr,
        )
        return EXIT_USAGE

    from repro.telemetry.registry import new_run_id

    run_id = new_run_id()
    checkpoint_root = args.checkpoint_dir
    statuses = []  # (experiment id, status, detail, seconds)
    any_degraded = False
    interrupted = False
    recorder, previous_recorder = telemetry_from_args(args, run_id=run_id)
    if recorder is not None:
        recorder.bind(scale=args.scale, seed=args.seed)

    def run_with_telemetry(experiment_id):
        """One experiment under bound telemetry context + lifecycle events."""
        if recorder is None:
            return _run_one(experiment_id, args, checkpoint_root)
        recorder.bind(experiment=experiment_id)
        recorder.event("experiment_start", experiment=experiment_id)
        try:
            result, runner, error = _run_one(experiment_id, args, checkpoint_root)
            # Same cause-not-symptom classification as the sweep loop: an
            # analysis raise after a degraded/interrupted runner is not an
            # experiment error.
            if runner is not None and runner.interrupted:
                status = "interrupted"
            elif runner is not None and runner.degraded:
                status = "degraded"
            elif error is not None:
                status = "error"
            else:
                status = "pass" if result.passed else "fail"
            recorder.event("experiment_end", experiment=experiment_id, status=status)
            return result, runner, error
        finally:
            recorder.unbind("experiment")

    started = time.monotonic()
    try:
        code = _run_sweep(
            args, targets, statuses, run_with_telemetry, any_degraded, interrupted
        )
    finally:
        finish_telemetry(args, recorder, previous_recorder, run_id=run_id)
    # Headline estimates: the convergence monitor's final per-label Wilson
    # CIs, recoverable from the (now closed) event log when one was kept.
    estimates = []
    if args.log_json is not None and args.log_json.exists():
        from repro.telemetry.events import read_events
        from repro.telemetry.registry import estimates_from_events

        try:
            estimates = estimates_from_events(read_events(args.log_json))
        except (OSError, ValueError):
            pass
    failed = [
        f"{experiment_id}: {status.lower()}"
        for experiment_id, status, _, _ in statuses
        if status in ("FAIL", "ERROR")
    ]
    register_run(
        args,
        command="run",
        label=args.experiment,
        run_id=run_id,
        exit_code=code,
        recorder=recorder,
        estimates=estimates,
        walltime_seconds=time.monotonic() - started,
        config={"experiment": args.experiment, "scale": args.scale,
                "seed": args.seed},
        notes=failed,
    )
    return code


def _run_sweep(args, targets, statuses, run_one, any_degraded, interrupted) -> int:
    from repro.runner import (
        CheckpointExistsError,
        CheckpointMismatchError,
        stop_requested,
        trap_signals,
    )

    with trap_signals():
        for experiment_id in targets:
            if stop_requested():
                interrupted = True
                statuses.append((experiment_id, "SKIPPED", "interrupted", 0.0))
                continue
            started = time.monotonic()
            result, runner, error = run_one(experiment_id)
            elapsed = time.monotonic() - started
            if error is not None:
                # A raise *after* the runner stopped early is not an
                # experiment bug: the analysis ran on partial (possibly
                # empty) samples.  Classify by cause, not by symptom.
                if runner is not None and (runner.interrupted or stop_requested()):
                    interrupted = True
                    print(
                        f"=== {experiment_id}: INTERRUPTED "
                        "(checkpoints saved; rerun with --resume) ===",
                        file=sys.stderr,
                    )
                    statuses.append(
                        (experiment_id, "SKIPPED", "interrupted; checkpoints saved", elapsed)
                    )
                    continue
                if runner is not None and runner.degraded:
                    any_degraded = True
                    print(
                        f"=== {experiment_id}: DEGRADED — walltime budget "
                        f"expired before the analysis could finish "
                        f"({type(error).__name__}: {error}); completed "
                        "chunks are checkpointed ===",
                        file=sys.stderr,
                    )
                    statuses.append(
                        (experiment_id, "DEGRADED", "budget expired mid-analysis", elapsed)
                    )
                    continue
                if isinstance(error, (CheckpointExistsError, CheckpointMismatchError)):
                    # Checkpoint misuse is a usage problem, not a crash --
                    # the message says exactly how to recover; no traceback.
                    print(f"error: {error}", file=sys.stderr)
                    statuses.append(
                        (experiment_id, "ERROR", f"{type(error).__name__}", elapsed)
                    )
                    continue
                print(f"=== {experiment_id}: ERROR ===", file=sys.stderr)
                traceback.print_exception(type(error), error, error.__traceback__)
                statuses.append(
                    (experiment_id, "ERROR", f"{type(error).__name__}: {error}", elapsed)
                )
                continue
            print(result.render())
            print()
            if args.csv_dir is not None:
                _dump_csv(result, args.csv_dir)
            status = "PASS" if result.passed else "FAIL"
            detail = ""
            if runner is not None and runner.converged:
                detail = "converged early (CI target met)"
            if runner is not None and runner.degraded:
                any_degraded = True
                detail = "degraded (walltime budget hit)"
            if runner is not None and runner.interrupted:
                interrupted = True
                detail = "interrupted; checkpoints saved"
            statuses.append((experiment_id, status, detail, elapsed))
        interrupted = interrupted or stop_requested()

    if len(targets) > 1:
        summary = Table(
            ["experiment", "status", "seconds", "detail"],
            title="sweep summary",
        )
        for experiment_id, status, detail, elapsed in statuses:
            summary.add_row(experiment_id, status, round(elapsed, 2), detail)
        print(summary.render())
        counts = {status: 0 for status in ("PASS", "FAIL", "ERROR", "SKIPPED")}
        for _, status, _, _ in statuses:
            counts[status] = counts.get(status, 0) + 1
        line = (
            f"{counts['PASS']} passed, {counts['FAIL']} failed, "
            f"{counts['ERROR']} errored, {counts['SKIPPED']} skipped"
        )
        if counts.get("DEGRADED", 0):
            line += f", {counts['DEGRADED']} degraded"
        print(line)

    if interrupted:
        return EXIT_INTERRUPTED
    if any(status in ("FAIL", "ERROR") for _, status, _, _ in statuses):
        return EXIT_FAILED
    if any_degraded:
        return EXIT_DEGRADED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
