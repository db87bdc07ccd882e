"""Throughput and determinism of the declarative sweep scheduler.

One smoke-size grid (8 points) runs serially (``workers=0``) and
through a 2-worker pool -- the same Runner chunk loop with an in-process
or a process-pool executor -- and the benchmark:

* **asserts two-way bit-identity**: every point's sample and parallel
  estimates must match element-for-element across both executions.  This
  is the sweep's determinism contract (docs/sweep.md): seeds derive from
  the grid-point *index*, never from worker scheduling order, and the
  pool's result pipe only moves bytes, it never touches the RNG stream;
* **records the honest speedup** ``serial_seconds / pooled_seconds``
  only when the host can grant the requested parallelism.  The pool size
  is the *requested* worker count clamped to ``os.cpu_count()`` --
  oversubscribing a small CI container once produced a fictitious 1.49x
  "speedup" on a single CPU -- so on a clamped host the snapshot carries
  ``"clamped": true`` and *no* ``pool_speedup`` key at all (see
  :func:`repro.telemetry.bench_history.pool_speedup_record`).

Both legs are warmed up once untimed (imports, CDF tables, pool start-up),
then timed as alternating serial/pooled pairs; the recorded seconds are
the medians over the pairs, so host drift hits both legs alike.
"""

import os
import statistics
import time

import numpy as np

from bench_utils import record_bench
from repro.runner import Runner
from repro.sweep import SweepSpec, run_sweep
from repro.telemetry.bench_history import pool_speedup_record

_SEED = 0
_REQUESTED_WORKERS = 2
_PAIRS = 3
_WORKERS = max(1, min(_REQUESTED_WORKERS, os.cpu_count() or 1))


def _spec() -> SweepSpec:
    return SweepSpec(
        axes={"alpha": (2.2, 2.5, 2.8, 3.0), "l": (24, 48)},
        n=2_000,
        horizon=lambda p: p["l"] ** 2,
        k=8,
        n_groups=200,
    )


def _run(workers: int):
    started = time.perf_counter()
    result = run_sweep(_spec(), seed=_SEED, runner=Runner(workers=workers))
    return result, time.perf_counter() - started


def test_sweep_pool_is_deterministic_and_timed(benchmark):
    """Pooled grid matches serial bit-for-bit."""
    # Untimed warm-ups, one per leg.
    serial, _ = _run(workers=0)
    pooled, _ = benchmark.pedantic(_run, args=(_WORKERS,), rounds=1, iterations=1)

    assert len(serial) == len(pooled) == 8
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.sample.times, b.sample.times)
        np.testing.assert_array_equal(a.parallel, b.parallel)

    serial_times, pooled_times = [], []
    for _ in range(_PAIRS):
        serial_times.append(_run(workers=0)[1])
        pooled_times.append(_run(_WORKERS)[1])
    serial_seconds = statistics.median(serial_times)
    pooled_seconds = statistics.median(pooled_times)

    record = pool_speedup_record(
        serial_seconds,
        pooled_seconds,
        workers_requested=_REQUESTED_WORKERS,
        workers=_WORKERS,
        host_cpus=os.cpu_count(),
    )
    speedup = record.get("pool_speedup")
    verdict = (
        f"speedup {speedup:.2f}x" if speedup is not None
        else "clamped host -- no speedup verdict"
    )
    print(
        f"\nsweep 8 points x 2000 walks, median of {_PAIRS} pairs: serial "
        f"{serial_seconds:.3f}s | pooled x{_WORKERS} {pooled_seconds:.3f}s | {verdict} "
        f"on {os.cpu_count()} CPU(s) | bit-identical: yes"
    )
    record_bench(
        "sweep",
        {
            **record,
            "n_points": len(serial),
            "n_walks_per_point": 2_000,
            "bit_identical": True,
        },
    )
