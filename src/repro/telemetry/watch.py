"""``repro-experiment watch PATH``: live view of a growing event log.

``report`` answers "what happened"; ``watch`` answers "what is happening"
-- it follows a JSONL event log that another process is still appending
to and re-renders, every few seconds, the running estimates (point ± CI
and relative half-width per metric, with a sparkline of the half-width
shrinking), throughput, and recent incidents.

Following a file that is being written concurrently is the follow half
of the :class:`~repro.io_utils.AppendLog` contract (:class:`LogFollower`):
bytes after the last newline wait for the next poll, and a line that
never becomes a valid event is skipped -- a live console is the wrong
place to die on a corrupt record (``report --strict`` is the place to
reject such a log).

The follower exits on its own when the log says the writers are done: the
buffered :class:`~repro.telemetry.events.EventLogWriter` appends a
``log_close`` trailer per ``log_open`` header, so "closes >= opens > 0"
means no process is still appending.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.io_utils import AppendLog
from repro.reporting.table import Table
from repro.reporting.text_plots import ascii_bars, sparkline

#: Incident-ish event types surfaced in the "recent incidents" section
#: ("heartbeat" = the hung-chunk watchdog fired on a silent worker).
_WATCH_INCIDENTS = (
    "incident", "deadline", "signal", "quarantine", "fault_injected",
    "pool_rebuild", "retry", "heartbeat",
)

#: How many recent incidents the console keeps on screen.
_MAX_INCIDENTS = 8

#: Window (seconds of log time) for the live effective-parallelism line.
_PARALLELISM_WINDOW = 30.0


class LogFollower(AppendLog):
    """Incremental event reader for a log still being written.

    Each :meth:`~repro.io_utils.AppendLog.poll` returns the events
    appended since the previous poll (see the follow contract there).
    """

    def __init__(self, path) -> None:
        super().__init__(path, kind="event")


def _run_key(event: Dict) -> str:
    label = event.get("label", "?")
    experiment = event.get("experiment")
    return f"{experiment}/{label}" if experiment else str(label)


class WatchState:
    """Accumulated view of everything seen so far (incremental consume)."""

    def __init__(self) -> None:
        #: run key -> last estimate event for that key.
        self.estimates: Dict[str, Dict] = {}
        #: run key -> history of relative half-widths (for sparklines).
        self.rel_history: Dict[str, List[float]] = {}
        self.incidents: List[Dict] = []
        self.walks_computed = 0
        self.compute_seconds = 0.0
        #: Recent (start t, end t) busy intervals from chunk_end events,
        #: trimmed to the parallelism window; feeds the live
        #: effective-parallelism line.
        self.busy_intervals: List[tuple] = []
        #: Distinct worker_id values seen on chunk events.
        self.workers: set = set()
        self.elapsed = 0.0
        self.n_events = 0
        self.opens = 0
        self.closes = 0
        self.converged: List[str] = []
        #: run keys whose point was quarantined by the circuit breaker.
        self.quarantined: List[str] = []

    def consume(self, events: List[Dict]) -> None:
        for event in events:
            self.n_events += 1
            self.elapsed = max(self.elapsed, float(event.get("t", 0.0)))
            type_ = event.get("type")
            if type_ == "log_open":
                self.opens += 1
            elif type_ == "log_close":
                self.closes += 1
            elif type_ == "estimate":
                key = _run_key(event)
                self.estimates[key] = event
                rel = event.get("rel_half_width")
                if rel is not None:
                    self.rel_history.setdefault(key, []).append(float(rel))
            elif type_ == "chunk_end":
                self.walks_computed += int(event.get("n", 0))
                seconds = float(event.get("seconds", 0.0))
                self.compute_seconds += seconds
                end_t = float(event.get("t", 0.0))
                self.busy_intervals.append((max(end_t - seconds, 0.0), end_t))
                cutoff = self.elapsed - _PARALLELISM_WINDOW
                self.busy_intervals = [
                    iv for iv in self.busy_intervals if iv[1] >= cutoff
                ]
                worker = event.get("worker_id")
                if worker is not None:
                    self.workers.add(worker)
            elif type_ == "converged":
                key = _run_key(event)
                if key not in self.converged:
                    self.converged.append(key)
            elif type_ == "quarantine" and event.get("scope") == "point":
                key = _run_key(event)
                if key not in self.quarantined:
                    self.quarantined.append(key)
            if type_ in _WATCH_INCIDENTS:
                self.incidents.append(event)
                del self.incidents[:-_MAX_INCIDENTS]

    @property
    def finished(self) -> bool:
        """True once every opener of the log has appended its trailer."""
        return self.opens > 0 and self.closes >= self.opens

    def effective_parallelism(self) -> Optional[float]:
        """Busy-worker ratio over the recent window: sum busy / walltime.

        1.0 means one chunk in flight at all times; N workers fully busy
        read N.  The number that explains a pool speedup -- chunk
        intervals come from completed chunk_end events, so a chunk still
        in flight is not counted yet.
        """
        if not self.busy_intervals:
            return None
        lo = max(
            self.elapsed - _PARALLELISM_WINDOW,
            min(start for start, _ in self.busy_intervals),
        )
        span = self.elapsed - lo
        if span <= 0:
            return None
        busy = sum(
            max(0.0, min(end, self.elapsed) - max(start, lo))
            for start, end in self.busy_intervals
        )
        return busy / span


def render_watch(state: WatchState, width: int = 40) -> str:
    """One full console frame for the current state."""
    sections = []
    header = (
        f"events: {state.n_events}   log elapsed: {state.elapsed:.2f}s   "
        f"writers: {state.opens - state.closes} active"
    )
    if state.compute_seconds > 0:
        header += (
            f"\ncomputed {state.walks_computed} walks in "
            f"{state.compute_seconds:.2f}s of chunk time "
            f"({state.walks_computed / state.compute_seconds:.0f} walks/sec)"
        )
    parallelism = state.effective_parallelism()
    if parallelism is not None:
        header += (
            f"\neffective parallelism: {parallelism:.2f}x over the last "
            f"{min(_PARALLELISM_WINDOW, state.elapsed):.0f}s"
        )
        if state.workers:
            header += f" ({len(state.workers)} worker(s) seen)"
    sections.append(header)
    if state.estimates:
        table = Table(
            ["run", "successes", "trials", "p", "ci95", "rel hw", "shrink"],
            title="running estimates (95% Wilson CI)",
        )
        for key in sorted(state.estimates):
            estimate = state.estimates[key]
            rel = estimate.get("rel_half_width")
            name = key
            if key in state.converged:
                name += " *converged*"
            if key in state.quarantined:
                name += " *quarantined*"
            table.add_row(
                name,
                estimate.get("successes"),
                estimate.get("trials"),
                estimate.get("p"),
                f"[{estimate.get('low')}, {estimate.get('high')}]",
                rel if rel is not None else "inf",
                sparkline(state.rel_history.get(key, []), width=16),
            )
        sections.append(table.render())
        bars = [
            (key, float(state.estimates[key].get("rel_half_width") or 0.0))
            for key in sorted(state.estimates)
            if state.estimates[key].get("rel_half_width") is not None
        ]
        if bars:
            sections.append(
                ascii_bars(bars, width=width, title="relative CI half-width (lower is tighter)")
            )
    else:
        sections.append(
            "no estimate events yet -- estimates appear once a runner-driven "
            "Bernoulli metric (hitting sample) completes a chunk"
        )
    if state.incidents:
        table = Table(["t", "type", "run", "detail"], title="recent incidents")
        for incident in state.incidents:
            detail = {
                key: value
                for key, value in incident.items()
                if key not in ("t", "type", "span", "experiment", "scale", "seed", "label")
            }
            table.add_row(
                incident.get("t"),
                incident.get("type"),
                _run_key(incident),
                " ".join(f"{k}={v}" for k, v in sorted(detail.items())),
            )
        sections.append(table.render())
    if state.quarantined:
        sections.append(
            "quarantined points (circuit breaker): " + ", ".join(state.quarantined)
        )
    if state.finished:
        sections.append("log closed -- all writers finished")
    return "\n\n".join(sections)


def follow(
    path,
    stream,
    interval: float = 2.0,
    once: bool = False,
    max_seconds: Optional[float] = None,
    width: int = 40,
) -> int:
    """Follow ``path`` and re-render frames to ``stream`` until done.

    Returns a CLI exit code: 0 on a clean finish (log closed, ``--once``,
    or ``--max-seconds`` elapsed), 2 if the file never appeared.
    """
    path = Path(path)
    follower = LogFollower(path)
    state = WatchState()
    started = time.monotonic()
    clear = "\x1b[2J\x1b[H" if getattr(stream, "isatty", lambda: False)() else ""
    while True:
        state.consume(follower.poll())
        if state.n_events or path.exists():
            print(clear + render_watch(state, width=width), file=stream, flush=True)
        elif once:
            print(f"error: no event log at {path}", file=stream, flush=True)
            return 2
        else:
            print(f"waiting for {path} ...", file=stream, flush=True)
        if once or state.finished:
            return 0
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            return 0
        time.sleep(interval)
