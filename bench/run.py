"""Run the benchmark: one workload per process, untraced or traced.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]

Without ``--workload`` every workload runs, each in its own fresh
process.  An untraced run (``--trace 0``, the default) measures the
end-to-end metrics; a traced run (``--trace 1``) alternates
untraced and traced passes and reports the per-layer metrics, writing its
spans to ``bench/out/<workload>.trace.json``.  Every metric prints as
``name value unit``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the same result,
stamped with the host shape and run identity, goes to ``--out``.  The
exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import END_TO_END, OUT, PER_LAYER, WORKLOADS, median, steady  # noqa: E402

DEFAULT_SECONDS = 20.0
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A run stops itself here, inside the 180 s any run may take.
RUN_LIMIT_S = 170


class RunTimeout(BaseException):
    """Not an ``Exception``, so that no per-op handler can swallow it."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: per-layer run")
    parser.add_argument(
        "--out", type=Path, default=OUT / "results", help="directory for the stamped result JSON"
    )
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child_args(args, workload: str) -> list:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--out", str(args.out)] + (["--tiny"] if args.tiny else [])
    return argv


def probe_setup(args) -> list:
    """Walltime of fresh processes doing the workload's set-up, then exiting."""
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        started = time.perf_counter()
        done = subprocess.run(
            _child_args(args, args.workload) + ["--setup-probe"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed: " + done.stderr.decode(errors="replace"))
    return samples


def run_passes(workload, ledger, tracer, seconds: float):
    """Repeat passes until the next one would end nearer to ``seconds`` past.

    Traced runs alternate untraced and traced passes, starting untraced,
    and always run one of each; untraced runs always run three passes,
    so that :func:`harness.steady` interpolates within them.  Returns
    ``(passes, windows)``: each pass's ``(index, traced, seconds)`` and
    the traced passes' clock windows.
    """
    passes, windows = [], []
    started = time.perf_counter()
    minimum = 2 if tracer is not None else 3
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ledger.pass_index, ledger.traced = index, traced
        if traced:
            tracer.install()
        begin = time.perf_counter_ns()
        try:
            workload.run_pass(index, ledger)
        finally:
            end = time.perf_counter_ns()
            if traced:
                tracer.uninstall()
        if traced:
            windows.append((begin, end))
        passes.append((index, traced, (end - begin) / 1e9))
        workload.after_pass(index)
        index += 1
        elapsed = time.perf_counter() - started
        if index >= minimum and elapsed + elapsed / index / 2 >= seconds:
            return passes, windows


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(ledger, passes, setup) -> tuple:
    """End-to-end metrics: each pass is one repeat of the same work, and
    per-pass values are aggregated with :func:`harness.steady`."""
    timed = [(index, s) for index, traced, s in passes if not traced]
    by_pass = {index: [] for index, _ in timed}
    for seconds, walks, index, _ in ledger.ops:
        if index in by_pass:
            by_pass[index].append((seconds, walks))
    values = {
        "setup_s": median(setup),
        "walks_per_s": steady([sum(w for _, w in by_pass[i]) / s for i, s in timed], "higher"),
        "op_p50_ms": steady([median([s for s, _ in by_pass[i]]) for i, _ in timed]) * 1e3,
        "pass_s": steady([s for _, s in timed]),
        "peak_rss_mb": peak_rss_mb(),
    }
    latencies = [s for ops in by_pass.values() for s, _ in ops]
    context = [f"ops {len(latencies)} in {len(timed)} passes; setup samples {setup}"]
    q = harness.tail_percentile(len(latencies))
    if q is not None:
        tail = harness.percentile(latencies, q) * 1e3
        context.append(f"op_p{q}_ms {tail!r} ms (highest percentile with >= 10 of {len(latencies)} ops beyond)")
    return values, context


def per_layer(workload, ledger, tracer, passes, windows) -> dict:
    from tracing import layer_metrics

    values = layer_metrics(tracer, windows, workload.cdf_table.cache_stats()["misses"])
    traced = [index for index, is_traced, _ in passes if is_traced]
    values.update(workload.layer_extras(ledger, traced))
    traced_s = median([s for _, is_traced, s in passes if is_traced])
    untraced_s = median([s for _, is_traced, s in passes if not is_traced])
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    return values


def report(args, run_info: dict, ledger, values: dict, table: dict, context: list, counts: dict) -> int:
    """Print and store the result.  ``counts`` are the workload's exact
    counts per pass; they go to the stamped JSON, where ``compare.py``
    checks them."""
    attempted = len(ledger.units)
    failed = ledger.units.count(False)
    correct = attempted > 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": harness.metric_entries(values, table),
    }
    stamp = {"host": harness.host_stamp(), "run": run_info}
    for key, value in {**stamp["host"], **stamp["run"]}.items():
        print(f"# {key}: {value}")
    for line in context + ledger.notes:
        print(f"# {line}")
    for name, (unit, *_rest) in table.items():
        print(f"{name} {values[name]!r} {unit}")
    for name, (unit, per_pass) in counts.items():
        print(f"{name} {per_pass[0] if len(set(per_pass)) == 1 else per_pass} {unit}")
    print(f"failed_frac {failed / attempted if attempted else 1.0!r} fraction")
    if counts:
        stamp["counts"] = {name: per_pass for name, (_, per_pass) in counts.items()}
    args.out.mkdir(parents=True, exist_ok=True)
    started = stamp["run"]["started_at"].replace(":", "").replace("-", "")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{started}-{os.getpid()}.json"
    (args.out / name).write_text(json.dumps({**stamp, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_workload(args) -> int:
    try:
        harness.import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {harness.SRC}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        workload.setup()
        workload.close()
        return 0
    run_info = harness.run_stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    tracer = None
    try:
        setup = [] if args.trace else probe_setup(args)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()  # set-up spans: CDF table builds
        try:
            workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        ledger = workloads.Ledger()
        ledger.tracer = tracer
        passes, windows = run_passes(workload, ledger, tracer, args.seconds)
        ledger.check_groups(workload.reference)
        if tracer is None:
            values, context = end_to_end(ledger, passes, setup)
            counts = workload.exact_counts([index for index, _, _ in passes])
            return report(args, run_info, ledger, values, END_TO_END, context, counts)
        values = per_layer(workload, ledger, tracer, passes, windows)
        trace_path = OUT / f"{args.workload}.trace.json"
        tracer.write(trace_path, windows, {"workload": args.workload, "seed": args.seed})
        context = [f"passes {len(passes)} ({len(windows)} traced); spans in {trace_path}"]
        return report(args, run_info, ledger, values, PER_LAYER, context, {})
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        workload.close()


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        status = subprocess.run(_child_args(args, name)).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Keep every temporary file the program makes inside the checkout.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
