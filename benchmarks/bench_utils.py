"""Shared helpers for persisting benchmark results.

``record_bench`` merges one benchmark group's numbers into a
``BENCH_<group>.json`` snapshot at the repo root (atomic write via
:mod:`repro.io_utils`, so a crashed benchmark run never leaves a torn
file).  Snapshots are flat ``{metric: value}`` maps plus a ``meta``
block (UTC timestamp, bench scale), diffable across commits to track
perf trajectories without any external benchmarking service.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.io_utils import atomic_write_json

#: Repo root (benchmarks/ lives directly under it).
_ROOT = Path(__file__).resolve().parent.parent


def bench_path(group: str) -> Path:
    """Snapshot path for one benchmark group (e.g. ``runner``, ``engine``)."""
    return _ROOT / f"BENCH_{group}.json"


def record_bench(group: str, metrics: dict) -> Path:
    """Merge ``metrics`` into ``BENCH_<group>.json`` and return the path.

    Existing metrics not named in ``metrics`` are preserved, so per-test
    recorders (one call per pytest-benchmark test) accumulate into one
    snapshot per group.  A metric valued ``None`` is a *tombstone*: it
    deletes the key from the snapshot instead of writing ``null``, so a
    benchmark can scrub a stale value a differently-shaped host left
    behind (e.g. ``pool_speedup`` on a clamped CI box).  A corrupt or
    hand-edited snapshot is replaced rather than crashing the run.
    """
    path = bench_path(group)
    snapshot: dict = {}
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(snapshot, dict):
            snapshot = {}
    except (FileNotFoundError, json.JSONDecodeError):
        snapshot = {}
    for key, value in metrics.items():
        if value is None:
            snapshot.pop(key, None)
        else:
            snapshot[key] = _round(value)
    snapshot["meta"] = {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "smoke"),
    }
    atomic_write_json(snapshot, path)
    return path


def _round(value):
    # Six significant digits, not decimals: the jump-draw keys are ~1e-5 s.
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value
