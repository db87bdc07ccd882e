"""Shared-memory CDF tables for the pooled Runner.

Every pool worker would otherwise re-derive the inverse-CDF jump tables
of :mod:`repro.distributions.cdf_table` per process.  A
:class:`SharedTableRegistry` (parent side) publishes each
``(alpha, lazy_probability, cap)`` table -- the same key as the
process-global LRU cache -- into a named ``multiprocessing.shared_memory``
segment once per run.  Workers :func:`attach_tables` zero-copy at
pool-initializer time and install read-only shared-backed
:class:`~repro.distributions.cdf_table.JumpCdfTable` objects into their
local cache, so a pool rebuild after a hung chunk re-attaches the *same*
segments instead of re-deriving zeta sums.  The attached table holds
the exact bytes the parent derived, so results are bit-identical to a
locally built table.  Chunk results travel back over the executor's
pickle pipe.

Lifetime: table segments are created and unlinked by the parent
registry (:meth:`SharedTableRegistry.close`); workers only ever attach.
The Runner's end-of-run :func:`cleanup_segments` sweep reaps anything
left under the run's prefix.

Resource-tracker note (CPython < 3.13, python/cpython#82300): attaching
a segment registers it with the ``resource_tracker`` as if the attacher
owned it.  Within one multiprocessing family -- which is the only way
this module is used: pool workers inherit the parent's tracker fd under
both fork and spawn -- the tracker's per-name cache is a *set*, so the
duplicate registrations from attaches are idempotent and the single
``unlink()`` (which unregisters internally) balances them all.  We
therefore deliberately do **not** call ``resource_tracker.unregister``
by hand: doing so would clobber the creator's registration and make the
eventual unlink's unregister fail.  Anything still registered when the
whole family exits is unlinked by the tracker -- a last-ditch backstop
behind :func:`cleanup_segments`, not a leak.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.cdf_table import JumpCdfTable, get_table, install_table

_Key = Tuple[float, float, Optional[int]]

_availability_lock = threading.Lock()
_availability: Optional[bool] = None

#: Worker-side handles of attached table segments.  Kept for the process
#: lifetime so the numpy views into their buffers stay valid.
_ATTACHED: List[shared_memory.SharedMemory] = []
_ATTACHED_KEYS: set = set()


def shm_available() -> bool:
    """True when named shared memory works on this host (cached probe)."""
    global _availability
    with _availability_lock:
        if _availability is None:
            try:
                probe = shared_memory.SharedMemory(create=True, size=8)
                probe.close()
                probe.unlink()
                _availability = True
            except Exception:
                _availability = False
        return _availability


def segment_prefix() -> str:
    """A fresh per-run segment-name prefix (parent pid + random token)."""
    return f"repro-{os.getpid()}-{os.urandom(4).hex()}"


@dataclass(frozen=True)
class TableSegment:
    """Picklable descriptor of one published CDF-table segment."""

    alpha: float
    lazy_probability: float
    cap: Optional[int]
    name: str
    length: int
    top: float

    @property
    def key(self) -> _Key:
        return (float(self.alpha), float(self.lazy_probability), self.cap)

    @property
    def nbytes(self) -> int:
        return int(self.length) * 8


class SharedTableRegistry:
    """Parent-side owner of the published CDF-table segments.

    Keyed exactly like the process-global LRU
    (``(alpha, lazy_probability, cap)``); publishing the same law twice
    reuses the existing segment.  ``close()`` unlinks everything; the
    registry is also a context manager.  Instances are fork- and
    spawn-safe because workers never receive the registry itself -- only
    the picklable :class:`TableSegment` descriptors.
    """

    def __init__(self, prefix: Optional[str] = None) -> None:
        self.prefix = prefix or segment_prefix()
        self._segments: Dict[_Key, shared_memory.SharedMemory] = {}
        self._descriptors: Dict[_Key, TableSegment] = {}
        self._closed = False

    def publish(
        self,
        alpha: float,
        lazy_probability: float = 0.5,
        cap: Optional[int] = None,
    ) -> Optional[TableSegment]:
        """Publish one law's table; ``None`` if the law is untabulated."""
        key: _Key = (float(alpha), float(lazy_probability), cap)
        if key in self._descriptors:
            return self._descriptors[key]
        table = get_table(alpha, lazy_probability, cap)
        if table is None:
            return None
        name = f"{self.prefix}-t{len(self._segments)}"
        cdf = np.ascontiguousarray(table.cdf, dtype=np.float64)
        segment = shared_memory.SharedMemory(
            create=True, size=int(cdf.nbytes), name=name
        )
        np.frombuffer(segment.buf, dtype=np.float64, count=cdf.shape[0])[:] = cdf
        descriptor = TableSegment(
            alpha=float(alpha),
            lazy_probability=float(lazy_probability),
            cap=cap,
            name=name,
            length=int(cdf.shape[0]),
            top=float(table.top),
        )
        self._segments[key] = segment
        self._descriptors[key] = descriptor
        return descriptor

    def publish_for_tasks(self, tasks: Sequence[object]) -> List[TableSegment]:
        """Publish the tables of every tabulable jump law used by ``tasks``.

        Duck-typed on the ``jumps`` attribute carrying ``alpha`` /
        ``lazy_probability`` / ``cap`` (i.e.
        :class:`~repro.distributions.zeta.ZetaJumpDistribution`); tasks
        with other laws simply publish nothing and their workers derive
        tables locally as before.
        """
        published: List[TableSegment] = []
        for task in tasks:
            law = getattr(task, "jumps", None)
            alpha = getattr(law, "alpha", None)
            lazy = getattr(law, "lazy_probability", None)
            if alpha is None or lazy is None:
                continue
            descriptor = self.publish(float(alpha), float(lazy), getattr(law, "cap", None))
            if descriptor is not None:
                published.append(descriptor)
        return published

    def descriptors(self) -> Tuple[TableSegment, ...]:
        return tuple(self._descriptors.values())

    @property
    def nbytes(self) -> int:
        """Total bytes of table data currently published."""
        return sum(d.nbytes for d in self._descriptors.values())

    def close(self) -> None:
        """Close and unlink every published segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments.values():
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._segments.clear()
        self._descriptors.clear()

    def __enter__(self) -> "SharedTableRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def attach_tables(descriptors: Sequence[TableSegment]) -> int:
    """Worker side: attach published tables and install them in the cache.

    Returns the number of tables newly attached.  A descriptor whose
    segment has vanished (parent already cleaned up -- e.g. a straggler
    worker of a rebuilt pool) is skipped silently: the worker then
    derives that table locally exactly as without shared tables, so the
    result is unchanged either way.
    """
    attached = 0
    for descriptor in descriptors:
        if descriptor.key in _ATTACHED_KEYS:
            continue
        try:
            segment = shared_memory.SharedMemory(name=descriptor.name)
        except (FileNotFoundError, OSError, ValueError):
            continue
        cdf = np.frombuffer(
            segment.buf, dtype=np.float64, count=descriptor.length
        )
        cdf.flags.writeable = False
        # The mapping must outlive every view (the installed table keeps
        # one), so closing is the OS's job at process exit.  Shadow the
        # bound method so ``__del__``'s courtesy close() cannot raise
        # BufferError("exported pointers exist") during teardown.
        segment.close = lambda: None  # type: ignore[method-assign]
        table = JumpCdfTable.from_cdf(
            descriptor.alpha, descriptor.lazy_probability, descriptor.cap, cdf
        )
        install_table(table)
        _ATTACHED.append(segment)
        _ATTACHED_KEYS.add(descriptor.key)
        attached += 1
    return attached


def attached_table_count() -> int:
    """How many shared tables this process has attached (tests)."""
    return len(_ATTACHED_KEYS)


def unlink_if_exists(name: str) -> bool:
    """Best-effort unlink of one segment; True if it existed."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        return False
    return True


def list_segments(prefix: str) -> List[str]:
    """Names of live ``/dev/shm`` segments under ``prefix`` (Linux only;
    other platforms report none and rely on per-name unlinks)."""
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    try:
        entries = os.listdir(root)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def cleanup_segments(prefix: str) -> List[str]:
    """Unlink every leftover segment under ``prefix``; returns the names.

    The Runner calls this after a pooled run as a belt-and-braces sweep
    behind :meth:`SharedTableRegistry.close`: anything still live here
    is a leak.
    """
    removed: List[str] = []
    for name in list_segments(prefix):
        if unlink_if_exists(name):
            removed.append(name)
    return removed
