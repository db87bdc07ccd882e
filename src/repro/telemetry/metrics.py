"""Process-local metrics: counters, gauges, fixed-bucket histograms.

Zero-dependency (stdlib only, importable from the hottest code paths
without dragging numpy/scipy/io machinery in) and zero-cost when unused:
the engines only touch a registry after checking
``get_recorder().enabled``, so the default (disabled) telemetry path
never allocates a metric.

Snapshot model: metrics accumulate in process memory and are exported on
demand as one JSON document (``MetricsRegistry.snapshot()`` /
``write_json()``, the latter atomic via :mod:`repro.io_utils`).  There is
no background thread and no sampling; what you export is exactly what was
counted.

Naming convention (documented in docs/observability.md): dotted
lower-case paths, ``<layer>.<quantity>`` -- e.g. ``runner.retries``,
``engine.steps``, ``engine.jumps_sampled``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]

#: Decade bucket bounds for length-like histograms: bucket 0 is ``d < 1``,
#: bucket k is ``10^(k-1) <= d < 10^k``, the last bucket is the overflow.
DECADE_BOUNDS = tuple(10**k for k in range(10))

#: Default buckets for duration histograms (seconds), log-spaced from
#: 1 ms to ~1 h; chunk walltimes vary by orders of magnitude across alpha.
DURATION_BOUNDS = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
    100.0, 300.0, 1000.0, 3600.0,
)


class Counter:
    """A monotonically increasing integer (events happened N times)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Number]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Optional[Number]]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram: counts per ``[bounds[i-1], bounds[i])``.

    ``bounds`` are strictly increasing upper bounds; values below
    ``bounds[0]`` land in bucket 0 and values ``>= bounds[-1]`` in the
    implicit overflow bucket, so there are ``len(bounds) + 1`` buckets.
    Fixed buckets keep observation O(log n_buckets) and snapshots
    mergeable across runs (same bounds => addable counts).
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[Number]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def add_bucket_counts(self, counts: Sequence[int]) -> None:
        """Bulk-merge pre-bucketed counts (e.g. from ``numpy.bincount``).

        ``counts`` may be shorter than the bucket list (missing tail
        buckets mean zero); per-value sum/min/max are not tracked for
        bulk merges.
        """
        if len(counts) > len(self.counts):
            raise ValueError(
                f"histogram {self.name} has {len(self.counts)} buckets, "
                f"got {len(counts)} counts"
            )
        for index, count in enumerate(counts):
            self.counts[index] += int(count)
            self.total += int(count)

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create home for every metric of one process.

    Thread-safe for creation (the runner's pool bookkeeping and a
    progress printer may race); individual updates are plain int/float
    operations under the GIL.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(self, name: str, bounds: Sequence[Number] = DURATION_BOUNDS) -> Histogram:
        histogram = self._get_or_create(name, lambda: Histogram(name, bounds), Histogram)
        if histogram.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds {histogram.bounds}"
            )
        return histogram

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """One JSON-ready dict: metric name -> typed snapshot."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def write_json(self, path, meta: Optional[Dict] = None) -> None:
        """Atomically export :meth:`snapshot` as pretty JSON.

        ``meta`` (e.g. ``{"run_id": ..., "created_at": ...}``) is stored
        under the reserved ``"_meta"`` key -- underscore-prefixed so it
        can never collide with a dotted metric name, and shaped like a
        typed snapshot (``"type": "meta"``) so readers that iterate the
        document's typed entries need no special case.
        """
        # Local import: io_utils pulls in the engine stack, which itself
        # imports the telemetry recorder -- a module-level import here
        # would create a cycle.
        from repro.io_utils import atomic_write_json

        snapshot = self.snapshot()
        if meta:
            snapshot["_meta"] = {"type": "meta", **meta}
        atomic_write_json(snapshot, path)
