"""In-memory spans around the program's layer boundaries, from outside.

The traced run installs wrappers at the module and class attributes the
program's callers actually use (``repro.runner.tasks.walk_hitting_times``
as well as ``repro.engine.vectorized.walk_hitting_times``, ...), so no
file under ``src/`` changes.  Each stored span is

    [name, start_ns, end_ns, parent, trace, leaf_ns, attrs]

where ``parent`` is the index of the enclosing stored span (-1 at top
level), ``trace`` the benchmark op index that caused it, and ``leaf_ns``
the time spent in *leaf* layers called directly inside it.  Leaf layers
(the per-round sampler and lattice calls, thousands per engine call) are
not stored one by one: their calls, time and rows are summed per layer
and charged to the enclosing span, which keeps self time exact while the
trace stays small.  Spans cannot leave pool workers; the sweep's
inside-worker numbers come from the program's own ``chunk_end`` and
``phase_profile`` events, captured here at ``TelemetryRecorder.event``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import PER_LAYER, union_ns

SPAN_COLUMNS = ("name", "start_ns", "end_ns", "parent", "trace", "leaf_ns", "attrs")

_CHUNK_FIELDS = (
    "seconds",
    "n",
    "ipc_bytes",
    "shm_bytes",
    "shm_seconds",
    "pickle_seconds",
    "unpickle_seconds",
    "transport",
)


def _engine_attrs(args, kwargs):
    return {"n": int(kwargs.get("n", 0))}


def _runner_attrs(args, kwargs):
    return {"workers": int(args[0].workers)}


def _event_attrs(args, kwargs):
    type_ = args[1] if len(args) > 1 else kwargs.get("type_")
    if type_ == "chunk_end":
        return {"type": type_, **{f: kwargs[f] for f in _CHUNK_FIELDS if f in kwargs}}
    if type_ == "phase_profile":
        return {"type": type_, "phases": dict(kwargs.get("phases") or {})}
    return {"type": type_}


def _path_rows(args, kwargs):
    return len(args[0])


#: (module, attribute path, layer span name, leaf?, attrs or rows extractor)
POINTS: Tuple[Tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("repro.engine.vectorized", "walk_hitting_times", "engine", False, _engine_attrs),
    ("repro.engine.vectorized", "flight_hitting_times", "engine", False, _engine_attrs),
    ("repro.engine.ball_targets", "ball_hitting_times", "engine", False, _engine_attrs),
    ("repro.runner.tasks", "walk_hitting_times", "engine", False, _engine_attrs),
    ("repro.runner.tasks", "flight_hitting_times", "engine", False, _engine_attrs),
    ("repro.engine.samplers", "HomogeneousSampler.sample", "distributions.sample", True, None),
    ("repro.distributions.cdf_table", "required_length", "distributions.table_build", False, None),
    ("repro.distributions.cdf_table", "JumpCdfTable.__init__", "distributions.table_build", False, None),
    ("repro.engine.vectorized", "sample_ring_offsets", "lattice.ring_offsets", True, None),
    ("repro.engine.ball_targets", "sample_ring_offsets", "lattice.ring_offsets", True, None),
    ("repro.engine.vectorized", "sample_direct_path_nodes", "lattice.direct_path", True, _path_rows),
    ("repro.engine.ball_targets", "sample_direct_path_nodes", "lattice.direct_path", True, _path_rows),
    ("repro.runner.runner", "Runner.run_many", "runner.run", False, _runner_attrs),
    ("repro.runner.checkpoint", "CheckpointStore.write_chunk", "runner.checkpoint", False, None),
    ("repro.telemetry.recorder", "TelemetryRecorder.event", "telemetry.event", False, _event_attrs),
    ("repro.sweep", "run_sweep", "sweep.run", False, None),
    ("repro.engine.results", "bootstrap_parallel", "sweep.bootstrap", False, None),
    ("repro.api.query", "estimate", "api.estimate", False, None),
    ("repro.api.query", "theory_estimate", "api.theory", False, None),
    ("repro.telemetry.registry", "RunRegistry.lookup", "api.registry_lookup", False, None),
    ("repro.serve.cache", "ResultCache.get", "serve.cache_get", False, None),
    ("repro.serve.cache", "ResultCache.put", "serve.cache_put", False, None),
    ("repro.serve.cache", "ResultCache._ensure_loaded", "serve.cache_load", False, None),
    ("repro.serve.refine", "refine_estimate", "serve.refine", False, None),
)

#: Imported before any attribute is patched, so that no module binds a
#: wrapper into its own namespace by a ``from ... import`` at import time.
_PRELOAD = ("repro.api", "repro.engine", "repro.runner", "repro.sweep")


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the program."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: leaf layer -> [calls, ns, rows]
        self.leaf: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Op index stamped on new spans (set by the workload before each op).
        self.trace_id: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name: str, fn, attrs):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name,
                clock(),
                0,
                stack[-1] if stack else -1,
                tracer.trace_id,
                0,
                attrs(args, kwargs) if attrs is not None else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _leaf(self, name: str, fn, rows):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        totals = self.leaf[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = clock() - start
                totals[0] += 1
                totals[1] += ns
                if rows is not None:
                    totals[2] += rows(args, kwargs)
                if stack:
                    spans[stack[-1]][5] += ns

        return traced

    # ------------------------------------------------------ install/remove

    def install(self) -> None:
        if self._patches:
            return
        modules = {name: importlib.import_module(name) for name in _PRELOAD}
        for module_name, _, _, _, _ in POINTS:
            modules.setdefault(module_name, importlib.import_module(module_name))
        for module_name, path, name, leaf, extract in POINTS:
            *owners, attr = path.split(".")
            owner = modules[module_name]
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._leaf(name, original, extract) if leaf else self._span(name, original, extract)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def write(self, path: Path, windows: Sequence[Tuple[int, int]], meta: dict) -> None:
        """Write every span, relative to the first traced pass, as JSON."""
        base = windows[0][0] if windows else 0
        rows = [
            [s[0], s[1] - base, s[2] - base, s[3], s[4], s[5], s[6]] for s in self.spans
        ]
        data = {
            **meta,
            "clock": "perf_counter_ns, relative to the first traced pass",
            "windows": [[a - base, b - base] for a, b in windows],
            "leaf_totals": {
                name: {"calls": c, "ns": ns, "rows": r} for name, (c, ns, r) in self.leaf.items()
            },
            "span_columns": list(SPAN_COLUMNS),
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, separators=(",", ":"), default=str), encoding="utf-8")


# ----------------------------------------------------------------- analysis


def self_times_ns(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the union of its children and its leaf time."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - union_ns(children.get(i, ())) - span[5]
        for i, span in enumerate(spans)
    ]


def coverage(spans: Sequence[list], windows: Sequence[Tuple[int, int]]) -> float:
    """Share of the traced passes' walltime covered by top-level layer spans."""
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 0.0
    covered = 0
    for w_start, w_end in windows:
        clipped = [
            (max(s[1], w_start), min(s[2], w_end))
            for s in spans
            if s[3] < 0 and s[1] < w_end and s[2] > w_start
        ]
        covered += union_ns(clipped)
    return covered / total


def layer_metrics(
    tracer: Tracer, windows: Sequence[Tuple[int, int]], table_misses: int
) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced passes, per traced pass.

    Workload-specific entries (sweep points, cache bytes, ...) and the
    ``trace.overhead`` ratio are filled in by the caller; everything
    absent from a workload's layers reads 0.
    """
    spans = tracer.spans
    passes = max(1, len(windows))
    inside = [
        any(start <= span[1] <= end for start, end in windows) for span in spans
    ]
    self_ns = self_times_ns(spans)
    by_name: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if inside[index]:
            by_name[span[0]].append(index)

    def seconds(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] for i in by_name[name]) / 1e9 / passes

    def count(name: str) -> float:
        return len(by_name[name]) / passes

    def leaf(name: str, column: int) -> float:
        value = tracer.leaf[name][column] if name in tracer.leaf else 0
        return value / (1e9 if column == 1 else 1) / passes

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    engine = by_name["engine"]
    walks = sum(spans[i][6]["n"] for i in engine)
    m["engine.calls"] = len(engine) / passes
    m["engine.walks"] = walks / passes
    m["engine.batch_mean"] = walks / len(engine) if engine else 0.0
    m["engine.self_s"] = sum(self_ns[i] for i in engine) / 1e9 / passes
    m["distributions.sample_calls"] = leaf("distributions.sample", 0)
    m["distributions.sample_s"] = leaf("distributions.sample", 1)
    m["distributions.table_misses"] = float(table_misses)
    m["distributions.table_build_s"] = (
        sum(s[2] - s[1] for s in spans if s[0] == "distributions.table_build") / 1e9
    )
    m["lattice.ring_offsets_calls"] = leaf("lattice.ring_offsets", 0)
    m["lattice.ring_offsets_s"] = leaf("lattice.ring_offsets", 1)
    m["lattice.direct_path_calls"] = leaf("lattice.direct_path", 0)
    m["lattice.direct_path_rows"] = leaf("lattice.direct_path", 2)
    m["lattice.direct_path_s"] = leaf("lattice.direct_path", 1)

    events = [spans[i] for i in by_name["telemetry.event"]]
    for event in events:
        if event[6]["type"] == "phase_profile":
            for phase, value in event[6]["phases"].items():
                key = f"engine.phase.{phase}_s"
                if key in m:
                    m[key] += value / passes

    runs = by_name["runner.run"]
    busy_by_run: Dict[int, float] = defaultdict(float)
    chunks = transport_bytes = fallbacks = 0
    transport_s = 0.0
    for event in events:
        attrs = event[6]
        if attrs["type"] != "chunk_end":
            continue
        chunks += 1
        busy_by_run[event[3]] += float(attrs.get("seconds", 0.0))
        transport_bytes += int(attrs.get("ipc_bytes", 0)) + int(attrs.get("shm_bytes", 0))
        transport_s += sum(
            float(attrs.get(f, 0.0)) for f in ("pickle_seconds", "unpickle_seconds", "shm_seconds")
        )
        fallbacks += attrs.get("transport") == "pickle-fallback"
    run_s = capacity = overhead = 0.0
    for i in runs:
        duration = (spans[i][2] - spans[i][1]) / 1e9
        workers = max(1, spans[i][6]["workers"])
        run_s += duration
        capacity += duration * workers
        overhead += duration - busy_by_run.get(i, 0.0) / workers
    busy = sum(busy_by_run.get(i, 0.0) for i in runs)
    m["runner.run_s"] = run_s / passes
    m["runner.chunks"] = chunks / passes
    m["runner.chunk_busy_s"] = busy / passes
    m["runner.worker_util"] = busy / capacity if capacity else 0.0
    m["runner.parent_overhead_s"] = overhead / passes
    m["runner.transport_bytes"] = transport_bytes / passes
    m["runner.transport_s"] = transport_s / passes
    m["runner.pickle_fallbacks"] = fallbacks / passes
    m["runner.checkpoint_writes"] = count("runner.checkpoint")
    m["runner.checkpoint_s"] = seconds("runner.checkpoint")
    m["telemetry.events"] = count("telemetry.event")
    m["telemetry.write_s"] = seconds("telemetry.event")
    m["sweep.bootstrap_s"] = seconds("sweep.bootstrap")
    m["serve.cache_get_s"] = seconds("serve.cache_get")
    m["serve.cache_put_s"] = seconds("serve.cache_put")
    m["serve.cache_load_s"] = seconds("serve.cache_load")
    refines = set(by_name["serve.refine"])
    m["serve.refine_calls"] = len(refines) / passes
    m["serve.refine_rounds"] = sum(1 for i in runs if spans[i][3] in refines) / passes
    m["serve.refine_s"] = seconds("serve.refine")
    m["api.registry_lookup_s"] = seconds("api.registry_lookup")
    m["api.theory_s"] = seconds("api.theory")
    m["trace.coverage"] = coverage([spans[i] for i, ok in enumerate(inside) if ok], windows)
    return m
