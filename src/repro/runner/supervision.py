"""Supervised execution: heartbeats, watchdog, retry policy, resource guards.

Four cooperating pieces defend a long pooled run against the failure
modes that dominate parallel Monte-Carlo (docs/runner.md, "Failure
model"):

* :class:`WorkerHeartbeat` -- a recorder installed inside each pool
  worker for the duration of one chunk.  The vectorized engines call
  ``get_recorder().tick()`` once per round loop; here that touches a
  per-chunk heartbeat file (rate-limited), so liveness is observable
  from outside the process without any shared memory or locks.
* :class:`Supervisor` -- the hung-chunk watchdog: a daemon thread that
  scans the heartbeat files and flags any chunk silent for longer than
  ``chunk_timeout``.  The thread only *detects*; the runner's single
  scheduling thread consumes the flags, kills the pool, and reschedules
  the chunk with its original :class:`~numpy.random.SeedSequence` child
  seed, so the recovered sample stays bit-identical.
* :class:`RetryPolicy` -- declarative retry: attempt budget,
  deterministic exponential backoff with seeded jitter, and an error
  classifier (transient vs. fatal).  "Poison" is not a class an
  exception can carry on its own -- it emerges from repetition -- so the
  per-point circuit breaker (``quarantine_after``) lives at the job
  level: a grid point whose failures cross the breaker is quarantined
  (``RunOutcome.quarantined_point``) and the rest of the sweep proceeds.
* :class:`ResourceGuards` / :class:`ResourceMonitor` -- preflight and
  in-run disk/memory watermarks.  Tripping a watermark never crashes the
  run: checkpointing degrades to manifest-only writes (payloads are
  skipped, provenance is kept) and an ``incident`` event is emitted.

Everything here is deliberately free of runner imports so the runner,
the chaos harness (:mod:`repro.runner.chaos`) and tests can compose the
pieces independently.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.recorder import NullRecorder

#: Error classes returned by :meth:`RetryPolicy.classify`.
TRANSIENT = "transient"
FATAL = "fatal"

#: Exception types never worth retrying: the process state (not the
#: chunk) is the problem, or the user asked to stop.
_FATAL_TYPES = (MemoryError, KeyboardInterrupt, SystemExit)


class CorruptPayloadError(RuntimeError):
    """A chunk returned a payload inconsistent with what was requested."""


def validate_payload(payload, expected_n: int, chunk_index: int):
    """Screen a chunk's return value before it is trusted or persisted.

    A payload carrying an ``n`` (sample size) must match the chunk's
    requested size; payload kinds without an ``n`` (e.g. foraging
    results, which are per-target) pass through.  Raises
    :class:`CorruptPayloadError` -- a *transient* failure, so the chunk
    is retried from its original seed.
    """
    if payload is None:
        raise CorruptPayloadError(f"chunk {chunk_index} returned no payload")
    observed = getattr(payload, "n", None)
    if observed is not None and int(observed) != int(expected_n):
        raise CorruptPayloadError(
            f"chunk {chunk_index} returned a corrupt payload "
            f"(n={observed!r}, expected {int(expected_n)})"
        )
    return payload


# ----------------------------------------------------------------- heartbeats


class WorkerHeartbeat(NullRecorder):
    """Recorder installed in a pool worker while it computes one chunk.

    Inherits the :class:`NullRecorder` no-op surface (``enabled`` stays
    False, so engine accounting stays off) and overrides only ``tick``:
    the engines' round loops call it unconditionally, and every
    ``interval`` seconds the heartbeat file's mtime is refreshed.  The
    parent's :class:`Supervisor` reads those mtimes -- file mtime is the
    entire protocol, so it works across processes with no locks and
    degrades harmlessly if the directory vanishes.
    """

    def __init__(self, path, interval: float = 0.5) -> None:
        super().__init__()
        self.path = str(path)
        self.interval = float(interval)
        self._last = 0.0
        self.beats = 0
        self.touch(force=True)

    def touch(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        try:
            if self.beats == 0:
                # First touch stamps the worker's pid into the file, so
                # the parent can attribute a hung chunk to a specific
                # worker process (Supervisor.worker_pid).
                with open(self.path, "wb") as fh:
                    fh.write(str(os.getpid()).encode("ascii"))
            else:
                with open(self.path, "ab"):
                    pass
            os.utime(self.path)
        except OSError:  # a vanished tmpdir must never kill the worker
            return
        self.beats += 1

    def tick(self) -> None:
        self.touch()


class Supervisor:
    """Hung-chunk watchdog over a directory of heartbeat files.

    ``register(label, chunk)`` starts watching a chunk (baseline = now,
    so a worker that dies before its first touch is still caught);
    ``unregister`` stops on completion.  A daemon thread scans every
    ``poll`` seconds and moves chunks silent past ``timeout`` into a
    hung set that the scheduling thread drains with :meth:`take_hung` --
    the thread itself never kills anything or emits telemetry, keeping
    the recorder single-threaded.
    """

    def __init__(self, directory, timeout: float, poll: Optional[float] = None) -> None:
        self.directory = Path(directory)
        self.timeout = float(timeout)
        self.poll = (
            float(poll) if poll is not None else max(0.02, min(0.25, self.timeout / 4.0))
        )
        self._lock = threading.Lock()
        #: (label, chunk) -> (heartbeat path, registration wall-clock time).
        self._watch: Dict[Tuple[str, int], Tuple[str, float]] = {}
        self._hung: Dict[Tuple[str, int], float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "Supervisor":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._thread = threading.Thread(
            target=self._loop, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------- watching

    def heartbeat_path(self, label: str, chunk: int) -> str:
        safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in str(label))
        return str(self.directory / f"{safe}-{int(chunk):05d}.hb")

    def register(self, label: str, chunk: int) -> str:
        """Watch one (label, chunk); returns the worker's heartbeat path."""
        path = self.heartbeat_path(label, chunk)
        with self._lock:
            self._watch[(label, chunk)] = (path, time.time())
            self._hung.pop((label, chunk), None)
        return path

    def unregister(self, label: str, chunk: int) -> None:
        """Stop watching a chunk."""
        with self._lock:
            self._watch.pop((label, chunk), None)
            self._hung.pop((label, chunk), None)

    def worker_pid(self, label: str, chunk: int) -> Optional[int]:
        """Pid the worker stamped into its heartbeat file, if readable.

        None when the worker died before its first touch, the file was
        cleaned up, or the contents are not a pid (pre-stamp files were
        empty -- absence degrades to unattributed, never an error).
        """
        try:
            text = Path(self.heartbeat_path(label, chunk)).read_text(
                encoding="ascii", errors="replace"
            ).strip()
            return int(text) if text else None
        except (OSError, ValueError):
            return None

    def watched(self) -> int:
        with self._lock:
            return len(self._watch)

    def oldest_silence(self) -> float:
        """Longest current silence (seconds) over all watched chunks."""
        now = time.time()
        with self._lock:
            entries = list(self._watch.values())
        if not entries:
            return 0.0
        return max(now - self._last_beat(path, baseline) for path, baseline in entries)

    # ------------------------------------------------------------- detection

    @staticmethod
    def _last_beat(path: str, baseline: float) -> float:
        try:
            return max(baseline, os.path.getmtime(path))
        except OSError:
            return baseline

    def scan_once(self, now: Optional[float] = None) -> Dict[Tuple[str, int], float]:
        """One watchdog pass; returns the chunks newly flagged as hung."""
        now = time.time() if now is None else now
        with self._lock:
            entries = list(self._watch.items())
        newly: Dict[Tuple[str, int], float] = {}
        for key, (path, baseline) in entries:
            silent = now - self._last_beat(path, baseline)
            if silent > self.timeout:
                newly[key] = silent
        if newly:
            with self._lock:
                for key, silent in newly.items():
                    if key in self._watch:
                        del self._watch[key]
                        self._hung[key] = silent
        return newly

    def take_hung(self) -> Dict[Tuple[str, int], float]:
        """Drain the hung set: (label, chunk) -> seconds of silence."""
        with self._lock:
            hung, self._hung = self._hung, {}
        return hung

    def _loop(self) -> None:
        while not self._stop.wait(self.poll):
            self.scan_once()


# --------------------------------------------------------------- retry policy


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour for failed chunks.

    ``max_attempts`` bounds attempts *per chunk* (first try included).
    Backoff before attempt ``k+1`` is
    ``min(backoff_base * backoff_factor**(k-1), backoff_max)`` scaled by
    a deterministic jitter in ``[1-jitter, 1+jitter]`` seeded from
    ``(key, attempt)`` -- reproducible, but de-synchronised across
    chunks so a pool rebuild does not stampede.

    ``quarantine_after`` is the per-point circuit breaker: once a job
    accumulates that many chunk failures (any chunks, any reasons), the
    whole point is quarantined instead of raising, and sibling jobs
    continue.  ``None`` disables the breaker (a lone exhausted chunk
    then raises :class:`~repro.runner.runner.ChunkFailedError`, the
    pre-supervision behaviour).
    """

    max_attempts: int = 4
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    jitter: float = 0.25
    quarantine_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ValueError(
                "backoff_base/backoff_max must be >= 0 and backoff_factor >= 1"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1 or None, got {self.quarantine_after}"
            )

    def classify(self, error: BaseException) -> str:
        """``"transient"`` (retryable) or ``"fatal"`` (stop immediately).

        Task exceptions default to transient: a chunk is a pure function
        of its seed, so most observed failures (a dying worker, a torn
        payload, an OS hiccup) are environmental.  Persistently failing
        chunks still terminate via ``max_attempts`` -- that repetition,
        not the exception type, is what identifies a *poison* input.
        """
        return FATAL if isinstance(error, _FATAL_TYPES) else TRANSIENT

    def backoff(self, attempt: int, key: int = 0) -> float:
        """Seconds to sleep before retrying after failure ``attempt``."""
        if self.backoff_base <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (max(int(attempt), 1) - 1)
        delay = min(delay, self.backoff_max)
        if self.jitter:
            word = np.random.SeedSequence(
                (int(key) & 0xFFFFFFFF, max(int(attempt), 1))
            ).generate_state(1)[0]
            delay *= 1.0 - self.jitter + 2.0 * self.jitter * (float(word) / 2.0**32)
        return float(delay)


def chunk_retry_key(label: str, chunk: int) -> int:
    """Stable jitter seed for one (run label, chunk) pair."""
    return zlib.crc32(f"{label}:{int(chunk)}".encode())


# ------------------------------------------------------------ resource guards


def free_disk_mb(directory=".") -> Optional[float]:
    """Free space (MB) of the filesystem holding ``directory``; None if unknown."""
    try:
        return shutil.disk_usage(str(directory)).free / 1e6
    except OSError:
        return None


def available_memory_mb() -> Optional[float]:
    """MemAvailable (MB) from /proc/meminfo; None where unavailable."""
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return float(line.split()[1]) / 1e3  # kB -> MB
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass(frozen=True)
class ResourceGuards:
    """Disk/memory watermarks below which checkpointing degrades.

    A watermark of 0 disables that guard.  ``disk_probe``/``memory_probe``
    override the default probes (``shutil.disk_usage`` / /proc/meminfo)
    -- the seam tests and the chaos harness's ENOSPC simulation use; a
    probe returning ``None`` means "unknown", which never trips.
    """

    min_disk_mb: float = 0.0
    min_memory_mb: float = 0.0
    check_every: float = 2.0
    disk_probe: Optional[Callable[[], Optional[float]]] = None
    memory_probe: Optional[Callable[[], Optional[float]]] = None

    @property
    def enabled(self) -> bool:
        return self.min_disk_mb > 0 or self.min_memory_mb > 0


class ResourceMonitor:
    """Rate-limited watermark checks; trips once and stays degraded.

    The monitor never raises and never un-degrades: flapping back to
    full checkpointing mid-run would leave a directory where some chunks
    have payloads and some do not for no discernible reason.  Resume
    recomputes the payload-less chunks.
    """

    def __init__(self, guards: ResourceGuards, directory=None) -> None:
        self.guards = guards
        self.directory = Path(directory) if directory is not None else Path(".")
        self.degraded = False
        self.reasons: List[str] = []
        self._next_check = 0.0

    def _free_disk(self) -> Optional[float]:
        if self.guards.disk_probe is not None:
            return self.guards.disk_probe()
        return free_disk_mb(self.directory if self.directory.exists() else ".")

    def _free_memory(self) -> Optional[float]:
        if self.guards.memory_probe is not None:
            return self.guards.memory_probe()
        return available_memory_mb()

    def check(self, rec, force: bool = False) -> bool:
        """Probe the watermarks; True when this call *newly* degraded.

        Emits one ``incident`` event (kind ``low_disk``/``low_memory``)
        per tripped watermark, with the observed headroom.
        """
        if self.degraded or not self.guards.enabled:
            return False
        now = time.monotonic()
        if not force and now < self._next_check:
            return False
        self._next_check = now + max(float(self.guards.check_every), 0.0)
        tripped: List[Tuple[str, float, float]] = []
        if self.guards.min_disk_mb > 0:
            free = self._free_disk()
            if free is not None and free < self.guards.min_disk_mb:
                tripped.append(("low_disk", free, self.guards.min_disk_mb))
        if self.guards.min_memory_mb > 0:
            free = self._free_memory()
            if free is not None and free < self.guards.min_memory_mb:
                tripped.append(("low_memory", free, self.guards.min_memory_mb))
        if not tripped:
            return False
        for kind, free, watermark in tripped:
            self.reasons.append(
                f"{kind}: {free:.0f}MB free < {watermark:.0f}MB watermark"
            )
            rec.event(
                "incident",
                kind=kind,
                free_mb=round(free, 1),
                watermark_mb=watermark,
                action="degraded-checkpoints",
            )
            rec.metrics.counter("runner.resource_incidents").add()
        self.degraded = True
        return True
