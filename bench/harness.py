"""Shared pieces of the benchmark: metric table, statistics, references, stamps.

Everything here is pure bookkeeping -- no workload code -- so that
``run.py``, ``compare.py``, ``make_reference.py`` and the tests agree on
one definition of every metric, bound and output check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("narrow-batch", "wide-batch", "sweep-pool", "estimate-ci")

#: End-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one of them; ``bound`` is the largest allowed worsening
#: of the median, as a share of the parent's median.  The timing bounds
#: are 20%, not 10%: on a shared 2-vCPU host the spread of ten runs
#: reached 10.2% on narrow-batch and 13-16% on sweep-pool, and neither
#: longer nor shorter sweep passes narrowed it (see README.md).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "walks_per_s": ("walks/s", "higher", 0.20),
    "op_p50_ms": ("ms", "lower", 0.20),
    "pass_s": ("s", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Per-layer metrics from the traced run: name -> (unit, better).  Times
#: and counts are per traced pass, except ``distributions.table_*``
#: (whole process, set-up included) and the ``trace.*``/``serve.*_p50``
#: ratios and latencies.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "engine.calls": ("count", "higher"),
    "engine.walks": ("walks", "higher"),
    "engine.batch_mean": ("walks", "higher"),
    "engine.self_s": ("s", "lower"),
    "distributions.sample_calls": ("count", "lower"),
    "distributions.sample_s": ("s", "lower"),
    "distributions.table_misses": ("count", "lower"),
    "distributions.table_build_s": ("s", "lower"),
    "lattice.ring_offsets_calls": ("count", "lower"),
    "lattice.ring_offsets_s": ("s", "lower"),
    "lattice.direct_path_calls": ("count", "lower"),
    "lattice.direct_path_rows": ("count", "lower"),
    "lattice.direct_path_s": ("s", "lower"),
    "engine.phase.rng_s": ("s", "lower"),
    "engine.phase.cdf_lookup_s": ("s", "lower"),
    "engine.phase.state_update_s": ("s", "lower"),
    "engine.phase.target_check_s": ("s", "lower"),
    "engine.phase.compaction_s": ("s", "lower"),
    "runner.run_s": ("s", "lower"),
    "runner.chunks": ("count", "lower"),
    "runner.chunk_busy_s": ("s", "lower"),
    "runner.worker_util": ("fraction", "higher"),
    "runner.parent_overhead_s": ("s", "lower"),
    "runner.transport_bytes": ("bytes", "lower"),
    "runner.transport_s": ("s", "lower"),
    "runner.pickle_fallbacks": ("count", "lower"),
    "runner.checkpoint_writes": ("count", "lower"),
    "runner.checkpoint_bytes": ("bytes", "lower"),
    "runner.checkpoint_s": ("s", "lower"),
    "telemetry.events": ("count", "lower"),
    "telemetry.event_bytes": ("bytes", "lower"),
    "telemetry.write_s": ("s", "lower"),
    "sweep.points": ("count", "higher"),
    "sweep.bootstrap_s": ("s", "lower"),
    "serve.cache_get_s": ("s", "lower"),
    "serve.cache_put_s": ("s", "lower"),
    "serve.cache_load_s": ("s", "lower"),
    "serve.cache_hits": ("count", "higher"),
    "serve.cache_bytes": ("bytes", "lower"),
    "serve.refine_calls": ("count", "lower"),
    "serve.refine_rounds": ("count", "lower"),
    "serve.refine_s": ("s", "lower"),
    "serve.useful_walk_frac": ("fraction", "higher"),
    "serve.walks_to_ci": ("walks", "lower"),
    "serve.cold_p50_ms": ("ms", "lower"),
    "serve.hit_p50_us": ("us", "lower"),
    "api.registry_lookup_s": ("s", "lower"),
    "api.theory_s": ("s", "lower"),
    "trace.overhead": ("fraction", "lower"),
    "trace.coverage": ("fraction", "higher"),
}

#: Output checks accept a hit fraction within this many binomial standard
#: deviations of its reference.
BAND_SIGMAS = 5.0

#: Tail latencies are reported only at a percentile with at least this
#: many samples beyond it.
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------- program


def import_program():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere.

    Raises ``ImportError`` when the checkout has no program (the
    benchmark must then fail instead of measuring some other copy).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {SRC}")
    return repro


# -------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> Optional[int]:
    """Highest whole percentile (>= 50) with ``min_beyond`` of ``n`` samples above it."""
    if n <= 0:
        return None
    best = math.floor(100 - 100 * min_beyond / n + 1e-9)
    return best if best >= 50 else None


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method, as ``statistics.quantiles``)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    With fewer than three values the quartiles extrapolate past the data.
    """
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def steady(values: Sequence[float], better: str = "lower") -> float:
    """The undisturbed level of repeated measurements of the same work.

    Interference from other tenants only ever adds time, and on a shared
    host it comes in bursts of seconds, so a run's median moves with the
    neighbours while its better quartile moves with the code.  Returns
    the lower quartile for lower-is-better values, else the upper one.
    """
    q1, _, q3 = quartiles(values)
    return q1 if better == "lower" else q3


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def within_band(hits: int, n: int, p_ref: float, n_ref: Optional[int]) -> bool:
    """Is ``hits / n`` within :data:`BAND_SIGMAS` binomial sigmas of ``p_ref``?

    ``n_ref`` is the reference's own sample size (``None`` for exact
    references); its sampling error widens the band.
    """
    if n <= 0:
        return False
    variance = p_ref * (1.0 - p_ref) / n
    if n_ref:
        variance += p_ref * (1.0 - p_ref) / n_ref
    return abs(hits / n - p_ref) <= BAND_SIGMAS * math.sqrt(variance)


# -------------------------------------------------------------- references


def ref_key(
    engine: str, alpha: float, l: int, horizon: int, radius: int = 0, cap: Optional[int] = None
) -> str:
    """The law-level key of one reference hit probability."""
    cap_part = "" if cap is None else f" cap={cap}"
    return f"{engine} alpha={alpha:g} l={l} horizon={horizon} radius={radius}{cap_part}"


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, dict]:
    """``ref_key -> entry`` from ``reference.json``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["key"]: entry for entry in data["entries"]}


# ------------------------------------------------------------------ stamps


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(src: Path = SRC) -> str:
    """sha256 (12 hex) over the program's ``.py`` files: identifies the code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def host_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_stamp(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Identity of one run; call after :func:`import_program`."""
    from repro.telemetry.registry import git_revision

    # Git must not search above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": git_revision(ROOT) or "unknown",
        "src_digest": source_digest(),
        "started_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
    }


def metric_entries(values: Dict[str, float], table: Dict[str, tuple]) -> Dict[str, dict]:
    """``{name: {"value": v, "unit": u}}`` in the table's order."""
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def read_results(directory: Path) -> List[dict]:
    """Every result JSON in ``directory`` (as written by ``run.py --out``)."""
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "result" in data and "run" in data:
            results.append(data)
    return results
