"""Append-only JSONL event logs: the durable half of telemetry.

One event per line, schema documented in docs/observability.md.  The
format is deliberately boring: any ``jq``/pandas/grep pipeline can
consume it, and ``repro-experiment report`` renders it back into the
repository's text tables.

Durability: the log is a :class:`repro.io_utils.AppendLog` (one
``O_APPEND`` write per flushed block, torn-tail heal, kill-tolerant
reads; the contract is documented there).  The writer buffers events in
memory and the recorder flushes at every run/chunk boundary (the writer
also auto-flushes past a size threshold), so the syscall is paid per
chunk, not per event.  Buffering changes only the loss window: a hard
kill (SIGKILL, power loss) drops the not-yet-flushed tail of the current
chunk; a normal close -- including the ``finally`` paths of the CLI and
the test harnesses -- flushes everything.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.io_utils import AppendLog, json_line

#: Stamped into the header event of every log this writer opens.
#: Version 2 (PR 3) added the ``estimate``/``incident``/``converged``
#: event types and the ``log_close`` trailer; version 3 (PR 7) added the
#: ``phase_profile`` event type plus ``worker_id`` and IPC fields
#: (``ipc_bytes``/``pickle_seconds``/``unpickle_seconds``) on chunk
#: events; version 4 (PR 8) added ``run_id`` and ``created_at`` to the
#: ``log_open`` header so a log joins its run-registry record
#: unambiguously.  Readers that ignore unknown types and fields can
#: consume any of these versions.
SCHEMA_VERSION = 4


class EventLogWriter:
    """Appends JSON events to ``path``, one line per event, buffered.

    Opening the writer appends a ``log_open`` header event carrying the
    schema version (flushed immediately, so even a promptly-killed
    process leaves its process boundary in the log); closing appends a
    ``log_close`` trailer, which is how a follower (``repro-experiment
    watch``) knows the writing process finished cleanly.  Between those,
    events accumulate in memory until :meth:`flush` -- called by the
    recorder at run/chunk boundaries -- or until the buffer exceeds
    ``auto_flush_bytes``, and go to disk as a single O_APPEND write.
    """

    def __init__(
        self,
        path,
        auto_flush_bytes: int = 64 * 1024,
        run_id: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._buffer: List[str] = []
        self._buffered_bytes = 0
        self._auto_flush_bytes = int(auto_flush_bytes)
        self._log = AppendLog(self.path)
        self._log.open()  # checks for a torn tail once; the header heals it
        header = {"type": "log_open", "schema": SCHEMA_VERSION}
        if run_id is not None:
            # Join key into the run registry: the record with this run_id
            # (see repro.telemetry.registry) summarizes exactly this log.
            from datetime import datetime, timezone

            header["run_id"] = run_id
            header["created_at"] = datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            )
        self.write(header)
        self.flush()

    def write(self, record: Dict) -> None:
        if self._log.closed:
            raise ValueError(f"event log {self.path} is closed")
        line = json_line(record)
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        if self._buffered_bytes >= self._auto_flush_bytes:
            self.flush()

    def flush(self) -> None:
        """Write every buffered event in one O_APPEND ``write``."""
        if self._log.closed or not self._buffer:
            return
        block = "".join(self._buffer)
        self._buffer = []
        self._buffered_bytes = 0
        self._log.append(block)

    def close(self) -> None:
        if not self._log.closed:
            self.write({"type": "log_close"})
            self.flush()
            self._log.close()

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_events(path, strict: bool = False) -> Iterator[Dict]:
    """Yield events from a JSONL log in file order.

    Damage is handled by the :class:`~repro.io_utils.AppendLog` read
    contract: a torn tail is always skipped, other damage is skipped
    unless ``strict``, which raises
    :class:`~repro.io_utils.CorruptResultError`.
    """
    return AppendLog(path, kind="event").read(strict=strict)


def read_events(path, strict: bool = False) -> List[Dict]:
    """Materialized :func:`iter_events`."""
    return list(iter_events(path, strict=strict))
