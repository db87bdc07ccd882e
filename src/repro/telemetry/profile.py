"""Phase-level performance profiling: hot-loop accumulator + log analysis.

Two halves live here on purpose:

* :class:`PhaseAccumulator` is the measurement instrument.  The engines'
  round loops wrap their stages (``rng``, ``cdf_lookup``,
  ``state_update``, ``target_check``, ``compaction``) in
  :meth:`~PhaseAccumulator.lap` calls on the accumulator hanging off
  ``get_recorder().profile`` -- ``None`` when profiling is off, so the
  disabled path costs one attribute load and an ``is None`` test per
  stage per *round* (each round advances thousands of walks).  Timings
  accumulate as ``perf_counter_ns`` deltas and are drained once per
  chunk by the Runner (batched like the ``engine.jumps_sampled`` count),
  which emits ONE ``phase_profile`` event and bumps the
  ``engine.phase_seconds.*`` counters.  Engine calls outside
  any runner are drained by ``TelemetryRecorder.close()`` into a
  residual ``phase_profile`` event.
* the analysis functions below (:func:`summarize_profile`,
  :func:`render_profile`, :func:`render_profile_diff`) are pure event-log
  consumers behind ``repro-experiment profile events.jsonl``: phase
  breakdown with percentage bars, per-worker utilization (effective
  parallelism = sum of busy time / walltime -- the number that explains
  a 1.07x pool speedup), IPC accounting, and the top-N slowest chunks
  with phase attribution.

Import-cycle note: the recorder imports :class:`PhaseAccumulator` and the
engines import the recorder, so module level here must stay stdlib-only;
the table/bars renderers are imported lazily inside the analysis
functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: The named hot-loop stages the engines time, in loop order.  ``lap``
#: accepts any name, but these are the ones the vectorized engines emit
#: (docs/observability.md, "Profiling").
PHASES = ("rng", "cdf_lookup", "state_update", "target_check", "compaction")


class PhaseAccumulator:
    """Nanosecond phase timers, cheap enough for the engine round loops.

    Usage inside a hot loop::

        prof.start()          # anchor the lap clock (top of each round)
        ...rng draw...
        prof.lap("rng")       # charge elapsed nanos since the anchor
        ...table lookup...
        prof.lap("cdf_lookup")

    ``lap`` charges the time since the previous ``lap``/``start`` to the
    named phase, so consecutive laps tile a round exactly.  ``finish``
    counts one completed engine invocation.  :meth:`drain` converts the
    nanos to seconds, returns them, and resets -- the runner calls it
    once per chunk.
    """

    __slots__ = ("_nanos", "_engine_calls", "_mark")

    def __init__(self) -> None:
        self._nanos: Dict[str, int] = {}
        self._engine_calls: Dict[str, int] = {}
        self._mark = 0

    def start(self) -> None:
        """(Re)anchor the lap clock; call at the top of each round."""
        self._mark = time.perf_counter_ns()

    def lap(self, phase: str) -> None:
        """Charge the time since the previous lap/start to ``phase``."""
        now = time.perf_counter_ns()
        nanos = self._nanos
        nanos[phase] = nanos.get(phase, 0) + (now - self._mark)
        self._mark = now

    def finish(self, engine: str) -> None:
        """Count one completed engine invocation under ``engine``."""
        calls = self._engine_calls
        calls[engine] = calls.get(engine, 0) + 1

    @property
    def empty(self) -> bool:
        return not self._nanos and not self._engine_calls

    def drain(self) -> Optional[Tuple[Dict[str, float], Dict[str, int]]]:
        """Return ``(phase_seconds, engine_calls)`` and reset; None if empty."""
        if self.empty:
            return None
        phases = {
            phase: round(nanos / 1e9, 9) for phase, nanos in self._nanos.items()
        }
        engines = dict(self._engine_calls)
        self._nanos = {}
        self._engine_calls = {}
        return phases, engines


# --------------------------------------------------------------- log analysis


@dataclass
class WorkerUsage:
    """One worker's accumulated busy time, reconstructed from chunk_end."""

    worker: str
    chunks: int = 0
    busy_seconds: float = 0.0
    #: (start t, end t) per chunk, in log time (chunk_end's t minus its
    #: duration; in pooled mode this includes submit->start queueing).
    intervals: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class ProfileSummary:
    """Everything :func:`render_profile` needs, from the log alone."""

    n_events: int = 0
    elapsed: float = 0.0
    schema: Optional[int] = None
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    engine_calls: Dict[str, int] = field(default_factory=dict)
    #: One row per chunk_end: run/chunk/attempt/worker/seconds/t/phases/ipc.
    chunks: List[Dict] = field(default_factory=list)
    chunk_seconds: float = 0.0
    walks: int = 0
    workers: Dict[str, WorkerUsage] = field(default_factory=dict)
    ipc_bytes: int = 0
    pickle_seconds: float = 0.0
    unpickle_seconds: float = 0.0
    #: Number of phase_profile events seen (0 on a pre-v3 log).
    profile_events: int = 0

    @property
    def phase_total(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def span(self) -> Tuple[float, float]:
        """(first chunk start, last chunk end) in log time."""
        intervals = [iv for usage in self.workers.values() for iv in usage.intervals]
        if not intervals:
            return (0.0, 0.0)
        return (min(t0 for t0, _ in intervals), max(t1 for _, t1 in intervals))

    @property
    def span_seconds(self) -> float:
        t0, t1 = self.span
        return max(t1 - t0, 0.0)

    @property
    def effective_parallelism(self) -> Optional[float]:
        """Sum of per-worker busy time over the walltime it spanned."""
        span = self.span_seconds
        if span <= 0:
            return None
        busy = sum(usage.busy_seconds for usage in self.workers.values())
        return busy / span


def _run_key(event: Dict) -> str:
    label = event.get("label", "?")
    experiment = event.get("experiment")
    return f"{experiment}/{label}" if experiment else str(label)


def _worker_key(event: Dict) -> str:
    worker = event.get("worker_id")
    return str(worker) if worker is not None else "unattributed"


def summarize_profile(events: Sequence[Dict]) -> ProfileSummary:
    """Aggregate phase/worker/IPC structure from a flat event list.

    Pure log analysis: works on torn, killed, or resumed logs, and on
    pre-v3 logs with no ``phase_profile`` events at all (the phase
    sections simply come out empty).
    """
    summary = ProfileSummary()
    #: (run key, chunk, attempt) -> chunk row, for phase attribution.
    by_chunk: Dict[Tuple, Dict] = {}
    #: Same key -> phases seen before their chunk_end (the runner emits
    #: phase_profile first, so this is the common order).
    pending_phases: Dict[Tuple, Dict[str, float]] = {}
    for event in events:
        summary.n_events += 1
        summary.elapsed = max(summary.elapsed, float(event.get("t", 0.0)))
        type_ = event.get("type")
        if type_ == "log_open":
            schema = event.get("schema")
            if isinstance(schema, int):
                summary.schema = schema
        elif type_ == "chunk_end":
            key = _run_key(event)
            seconds = float(event.get("seconds", 0.0))
            end_t = float(event.get("t", 0.0))
            row = {
                "run": key,
                "chunk": event.get("chunk"),
                "attempt": event.get("attempt", 1),
                "worker": _worker_key(event),
                "seconds": seconds,
                "t_end": end_t,
                "phases": None,
                "ipc_bytes": event.get("ipc_bytes"),
            }
            summary.chunks.append(row)
            chunk_key = (key, row["chunk"], row["attempt"])
            by_chunk[chunk_key] = row
            if chunk_key in pending_phases:
                row["phases"] = pending_phases.pop(chunk_key)
            summary.chunk_seconds += seconds
            summary.walks += int(event.get("n", 0))
            usage = summary.workers.setdefault(
                row["worker"], WorkerUsage(row["worker"])
            )
            usage.chunks += 1
            usage.busy_seconds += seconds
            usage.intervals.append((max(end_t - seconds, 0.0), end_t))
            for name in ("ipc_bytes", "pickle_seconds", "unpickle_seconds"):
                value = event.get(name)
                if value is not None:
                    if name == "ipc_bytes":
                        summary.ipc_bytes += int(value)
                    else:
                        setattr(
                            summary, name, getattr(summary, name) + float(value)
                        )
        elif type_ == "phase_profile":
            summary.profile_events += 1
            phases = event.get("phases") or {}
            for phase, seconds in phases.items():
                summary.phase_seconds[phase] = summary.phase_seconds.get(
                    phase, 0.0
                ) + float(seconds)
            for engine, calls in (event.get("engines") or {}).items():
                summary.engine_calls[engine] = summary.engine_calls.get(
                    engine, 0
                ) + int(calls)
            if event.get("chunk") is not None:
                chunk_key = (
                    _run_key(event), event.get("chunk"), event.get("attempt", 1)
                )
                row = by_chunk.get(chunk_key)
                as_floats = {k: float(v) for k, v in phases.items()}
                if row is not None:
                    row["phases"] = as_floats
                else:
                    pending_phases[chunk_key] = as_floats
    return summary


def _phase_attribution(phases: Optional[Dict[str, float]], top: int = 2) -> str:
    """``"state_update 45%, rng 23%"`` for one chunk's phase dict."""
    if not phases:
        return "-"
    total = sum(phases.values())
    if total <= 0:
        return "-"
    ranked = sorted(phases.items(), key=lambda kv: kv[1], reverse=True)[:top]
    return ", ".join(f"{name} {100 * sec / total:.0f}%" for name, sec in ranked)


def _gantt(summary: ProfileSummary, width: int) -> List[str]:
    """One busy/idle strip per worker over the chunk-activity span."""
    t0, t1 = summary.span
    span = t1 - t0
    if span <= 0 or not summary.workers:
        return []
    label_width = max(len(w) for w in summary.workers)
    lines = []
    for worker in sorted(summary.workers):
        cells = ["."] * width
        for start, end in summary.workers[worker].intervals:
            lo = int((start - t0) / span * (width - 1))
            hi = int((end - t0) / span * (width - 1))
            for cell in range(max(lo, 0), min(hi, width - 1) + 1):
                cells[cell] = "#"
        lines.append(f"{worker.ljust(label_width)} |{''.join(cells)}|")
    return lines


def render_profile(events: Sequence[Dict], top: int = 8, width: int = 48) -> str:
    """The full plain-text profile for one event log."""
    from repro.reporting.table import Table
    from repro.reporting.text_plots import ascii_bars

    summary = summarize_profile(events)
    sections: List[str] = []
    header = [
        f"events: {summary.n_events}   elapsed: {summary.elapsed:.2f}s   "
        f"chunks: {len(summary.chunks)}   "
        f"schema: {'v%d' % summary.schema if summary.schema else '?'}"
    ]
    if summary.chunks:
        header.append(
            f"chunk time: {summary.chunk_seconds:.2f}s over "
            f"{summary.span_seconds:.2f}s of walltime ({summary.walks} walks)"
        )
    sections.append("\n".join(header))

    if summary.phase_seconds:
        total = summary.phase_total
        lines = []
        if summary.chunk_seconds > 0:
            lines.append(
                f"{summary.profile_events} profiled chunk(s): phase timers "
                f"cover {total:.2f}s = "
                f"{100 * total / summary.chunk_seconds:.1f}% of chunk time"
            )
        bars = sorted(
            summary.phase_seconds.items(), key=lambda kv: kv[1], reverse=True
        )
        labelled = [
            (f"{name} {100 * seconds / total:5.1f}%", seconds)
            for name, seconds in bars
        ]
        lines.append(
            ascii_bars(labelled, width=width, title="engine phase breakdown", unit="s")
        )
        if summary.engine_calls:
            lines.append(
                "engine calls: "
                + ", ".join(
                    f"{engine}={calls}"
                    for engine, calls in sorted(summary.engine_calls.items())
                )
            )
        sections.append("\n".join(lines))
    else:
        sections.append(
            "no phase_profile events in this log (schema v2 or earlier, or "
            "profiling disabled) -- phase breakdown unavailable; worker and "
            "chunk timings below are still exact"
        )

    if summary.workers:
        span = summary.span_seconds
        table = Table(
            ["worker", "chunks", "busy s", "utilization"],
            title="worker utilization",
        )
        for worker in sorted(summary.workers):
            usage = summary.workers[worker]
            table.add_row(
                worker,
                usage.chunks,
                round(usage.busy_seconds, 3),
                f"{100 * usage.busy_seconds / span:.0f}%" if span > 0 else "-",
            )
        lines = [table.render()]
        gantt = _gantt(summary, width)
        if gantt:
            lines.append(f"busy gantt over {span:.2f}s ('#' = chunk in flight)")
            lines.extend(gantt)
        parallelism = summary.effective_parallelism
        if parallelism is not None:
            lines.append(
                f"effective parallelism: {parallelism:.2f}x "
                f"(sum of busy time {sum(u.busy_seconds for u in summary.workers.values()):.2f}s "
                f"/ {span:.2f}s walltime)"
            )
        sections.append("\n".join(lines))

    if summary.ipc_bytes:
        sections.append(
            f"IPC: {summary.ipc_bytes} result bytes pickled in "
            f"{summary.pickle_seconds:.3f}s, unpickled in "
            f"{summary.unpickle_seconds:.3f}s"
        )

    if summary.chunks:
        slowest = sorted(
            summary.chunks, key=lambda row: row["seconds"], reverse=True
        )[: max(int(top), 1)]
        table = Table(
            ["run", "chunk", "worker", "seconds", "ipc bytes", "phase attribution"],
            title=f"slowest {len(slowest)} chunk(s)",
        )
        for row in slowest:
            table.add_row(
                row["run"],
                row["chunk"],
                row["worker"],
                round(row["seconds"], 3),
                row["ipc_bytes"],
                _phase_attribution(row["phases"]),
            )
        sections.append(table.render())
    else:
        sections.append(
            "no chunk_end events found -- was the run executed with "
            "--log-json and a runner flag (--chunks/--workers)?"
        )
    return "\n\n".join(sections)


def render_profile_diff(
    events: Sequence[Dict], baseline_events: Sequence[Dict], width: int = 48
) -> str:
    """Before/after comparison of two logs (``profile LOG --diff BASELINE``).

    Phase times compare relatively (like ``*_seconds`` in bench-history);
    headline chunk time, throughput, effective parallelism, and IPC bytes
    are summarized side by side.
    """
    from repro.reporting.table import Table

    current = summarize_profile(events)
    baseline = summarize_profile(baseline_events)
    sections: List[str] = []

    def _change(base: float, cur: float) -> str:
        if base <= 0:
            return "n/a"
        return f"{(cur - base) / base:+.1%}"

    names = sorted(
        set(current.phase_seconds) | set(baseline.phase_seconds),
        key=lambda name: current.phase_seconds.get(name, 0.0),
        reverse=True,
    )
    if names:
        table = Table(
            ["phase", "baseline s", "current s", "change"],
            title="phase breakdown vs baseline",
        )
        for name in names:
            base = baseline.phase_seconds.get(name)
            cur = current.phase_seconds.get(name)
            table.add_row(
                name,
                round(base, 4) if base is not None else None,
                round(cur, 4) if cur is not None else None,
                _change(base or 0.0, cur or 0.0) if base and cur else "n/a",
            )
        sections.append(table.render())
    else:
        sections.append(
            "no phase_profile events in either log -- comparing chunk "
            "timings only"
        )

    headline = Table(
        ["metric", "baseline", "current", "change"], title="headline"
    )
    headline.add_row(
        "chunk seconds",
        round(baseline.chunk_seconds, 3),
        round(current.chunk_seconds, 3),
        _change(baseline.chunk_seconds, current.chunk_seconds),
    )
    if baseline.walks and current.walks:
        base_tp = baseline.walks / baseline.chunk_seconds if baseline.chunk_seconds else 0.0
        cur_tp = current.walks / current.chunk_seconds if current.chunk_seconds else 0.0
        headline.add_row(
            "walks/sec", round(base_tp, 1), round(cur_tp, 1), _change(base_tp, cur_tp)
        )
    base_par = baseline.effective_parallelism
    cur_par = current.effective_parallelism
    if base_par is not None or cur_par is not None:
        headline.add_row(
            "effective parallelism",
            round(base_par, 2) if base_par is not None else None,
            round(cur_par, 2) if cur_par is not None else None,
            _change(base_par or 0.0, cur_par or 0.0)
            if base_par and cur_par
            else "n/a",
        )
    if baseline.ipc_bytes or current.ipc_bytes:
        headline.add_row(
            "IPC bytes",
            baseline.ipc_bytes,
            current.ipc_bytes,
            _change(float(baseline.ipc_bytes), float(current.ipc_bytes)),
        )
    sections.append(headline.render())
    return "\n\n".join(sections)
