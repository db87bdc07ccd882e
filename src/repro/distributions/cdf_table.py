"""Cached inverse-CDF jump tables: the engines' fused sampling kernel.

Every Monte-Carlo engine in this package burns most of its walltime
drawing jump distances from the conditional Zipf law ``P(d = i | d >= 1)
= i^(-alpha) / zeta(alpha)`` (Eq. 3).  The exact Devroye rejection
sampler (:func:`~repro.distributions.zipf_sampler.rejection_conditional_zipf`)
costs two to three fresh ``power`` evaluations per draw *every round*;
this module trades a one-time precomputation for a single ``searchsorted``
per round:

* a :class:`JumpCdfTable` stores ``F(i) = P(d <= i | d >= 1)`` for
  ``i = 1..L`` where ``L`` is chosen so the table covers at least
  ``1 - 1e-6`` of the conditional mass (or the full mass, for capped
  laws).  A draw is ``searchsorted(F, v) + 1`` with ``v ~ U[0, 1)`` --
  the exact inverse CDF on the covered range;
* the rare draws with ``v`` beyond the covered mass fall back to the
  exact tail sampler
  :func:`~repro.distributions.zipf_sampler.rejection_conditional_zipf_tail`
  (conditioned on ``d > L``), so the combined law is *identical* to the
  legacy samplers, not an approximation;
* tables live in a process-global bounded LRU cache keyed by
  ``(alpha, lazy_probability, cap)``, so pooled Runner workers and every
  ``GridPoint`` of a sweep reuse one table per law instead of re-deriving
  normalizing constants per call.

Laws whose table would exceed :data:`MAX_TABLE_ENTRIES` at the target
coverage (strongly ballistic exponents, ``alpha`` close to 1, where the
required length grows like ``(1/tail)^(1/(alpha-1))``) are recorded as
*untabulated* and keep using the legacy samplers, which are already fast
in that regime.

The lazy phase is fused into the same uniform: with lazy probability
``p``, a draw ``u ~ U[0, 1)`` is lazy iff ``u < p``, and otherwise
``v = (u - p) / (1 - p)`` is again uniform and independent of the lazy
indicator -- one ``rng.random`` feeds both decisions.  Engines exploit
this by batching all of a round's uniforms into one generator call.

RNG-stream note: routing through tables changes the *order* in which the
underlying bit stream is consumed, so samples for a fixed seed differ
from pre-table releases (a one-time documented break, see
``docs/performance.md``).  Determinism contracts are unchanged: for a
fixed seed the stream is reproducible, and worker-count / resume
invariance holds because tables carry no RNG state.

The escape hatch :func:`legacy_sampling` disables table routing inside a
``with`` block; the ground-truth statistical tests use it to compare the
table path against the original samplers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np
from scipy import special

from repro.distributions.zipf_sampler import (
    rejection_conditional_zipf_tail,
)

#: Target uncovered tail mass: tables cover at least ``1 - TAIL_MASS`` of
#: the conditional (``d >= 1``) law.
TAIL_MASS = 1e-6

#: Hard per-table length bound (float64 entries; 1 << 20 is 8 MiB).  Laws
#: needing more entries than this for the target coverage stay on the
#: legacy samplers.
MAX_TABLE_ENTRIES = 1 << 20

#: Default bound on the number of cached tables (LRU eviction beyond it).
#: Worst-case cache memory is ``MAX_TABLE_ENTRIES * 8 * CACHE_MAX_TABLES``
#: bytes (128 MiB at the defaults); typical sweeps use a handful of small
#: tables (a few thousand entries each).
CACHE_MAX_TABLES = 16

_Key = Tuple[float, float, Optional[int]]


class JumpCdfTable:
    """Truncated conditional-Zipf CDF with an exact tail fallback.

    Parameters
    ----------
    alpha:
        Power-law exponent (``> 1``).
    lazy_probability:
        ``P(d = 0)``, fused into the same uniform draw.
    cap:
        Optional largest distance (law conditioned on ``d <= cap``); the
        table then covers the full conditional mass and never falls back.
    length:
        Table length ``L``; entries are ``F(1) .. F(L)``.
    """

    __slots__ = ("alpha", "lazy_probability", "cap", "cdf", "top")

    def __init__(
        self,
        alpha: float,
        lazy_probability: float,
        cap: Optional[int],
        length: int,
    ) -> None:
        self.alpha = float(alpha)
        self.lazy_probability = float(lazy_probability)
        self.cap = cap
        i = np.arange(1, length + 1, dtype=float)
        weights = i ** (-self.alpha)
        cdf = np.cumsum(weights)
        if cap is not None:
            # Capped law: normalize by the table's own total so
            # ``F(cap) == 1.0`` exactly and no draw can escape the table.
            cdf /= cdf[-1]
        else:
            cdf /= float(special.zeta(self.alpha, 1.0))
        self.cdf = cdf
        #: Covered conditional mass; draws with ``v > top`` use the tail.
        self.top = float(cdf[-1])

    @classmethod
    def from_cdf(
        cls,
        alpha: float,
        lazy_probability: float,
        cap: Optional[int],
        cdf: np.ndarray,
    ) -> "JumpCdfTable":
        """Wrap an already-computed CDF array (no zeta sums re-derived).

        The pooled Runner uses this to install tables whose
        data lives in a segment published by the parent process
        (:mod:`repro.engine.shm`); ``cdf`` may be a read-only view into
        that segment -- :meth:`sample` never writes to it.
        """
        table = cls.__new__(cls)
        table.alpha = float(alpha)
        table.lazy_probability = float(lazy_probability)
        table.cap = cap
        table.cdf = cdf
        table.top = float(cdf[-1])
        return table

    @property
    def length(self) -> int:
        """Number of table entries (largest distance drawable in-table)."""
        return int(self.cdf.shape[0])

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table data."""
        return int(self.cdf.nbytes)

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        u: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw ``size`` jump distances (lazy zeros included).

        ``u`` optionally supplies the per-draw uniforms (shape ``(size,)``
        in ``[0, 1)``) so callers can batch one generator call per round;
        the rare tail fallback always consumes fresh ``rng`` draws.
        ``out``, when given, is the int64 destination buffer.
        """
        if u is None:
            u = rng.random(size)
        if out is None:
            out = np.zeros(size, dtype=np.int64)
        else:
            out[:] = 0
        p = self.lazy_probability
        if p > 0.0:
            moving = u >= p
            # u | u >= p is uniform on [p, 1): rescale to [0, 1).  The
            # lazy indicator and v are exactly independent.
            v = (u[moving] - p) / (1.0 - p)
        else:
            moving = slice(None)
            v = u
        # Smallest i with F(i) >= v; exact inverse CDF on the table range.
        drawn = self.cdf.searchsorted(v, side="left") + 1
        tail = drawn > self.length
        if np.any(tail):
            drawn[tail] = rejection_conditional_zipf_tail(
                self.alpha, self.length, rng, int(tail.sum())
            )
        out[moving] = drawn
        return out


def required_length(alpha: float, tail_mass: float = TAIL_MASS) -> int:
    """Smallest ``L`` with ``P(d > L | d >= 1) <= tail_mass``, exactly.

    The tail is ``zeta(a, L + 1) / zeta(a)``; we binary-search the minimal
    ``L`` within ``[1, MAX_TABLE_ENTRIES]`` (a few dozen Hurwitz-zeta
    evaluations, once per law thanks to the cache).  Returns
    ``MAX_TABLE_ENTRIES + 1`` when even the largest allowed table cannot
    reach the coverage target -- the ballistic regime ``alpha`` near 1,
    where the required length grows like ``tail_mass**(-1/(alpha-1))``
    and the law stays on the legacy samplers.
    """
    mass = float(special.zeta(alpha, 1.0))

    def tail(length: float) -> float:
        return float(special.zeta(alpha, length + 1.0)) / mass

    if tail(float(MAX_TABLE_ENTRIES)) > tail_mass:
        return MAX_TABLE_ENTRIES + 1
    lo, hi = 1, MAX_TABLE_ENTRIES
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(float(mid)) <= tail_mass:
            hi = mid
        else:
            lo = mid + 1
    return lo


class _TableCache:
    """Process-global bounded LRU cache of :class:`JumpCdfTable` objects.

    Also remembers *negative* results (laws too heavy-tailed to tabulate)
    so the length computation runs once per law, and counts hits, misses
    and evictions for the cache-behavior tests and telemetry.
    """

    def __init__(self, max_tables: int = CACHE_MAX_TABLES) -> None:
        self.max_tables = int(max_tables)
        self._lock = threading.Lock()
        self._tables: "OrderedDict[_Key, Optional[JumpCdfTable]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, alpha: float, lazy_probability: float, cap: Optional[int]
    ) -> Optional[JumpCdfTable]:
        key: _Key = (float(alpha), float(lazy_probability), cap)
        with self._lock:
            if key in self._tables:
                self.hits += 1
                self._tables.move_to_end(key)
                return self._tables[key]
            self.misses += 1
        # Build outside the lock (construction can take milliseconds for
        # long tables); a racing duplicate build is harmless.
        if cap is not None:
            length = int(cap) if cap <= MAX_TABLE_ENTRIES else None
        else:
            needed = required_length(alpha)
            length = needed if needed <= MAX_TABLE_ENTRIES else None
        table = (
            JumpCdfTable(alpha, lazy_probability, cap, length)
            if length is not None
            else None
        )
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.max_tables:
                self._tables.popitem(last=False)
                self.evictions += 1
        return table

    def install(self, table: JumpCdfTable) -> None:
        """Insert a prebuilt table under its own key (shared-memory path)."""
        key: _Key = (table.alpha, table.lazy_probability, table.cap)
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            while len(self._tables) > self.max_tables:
                self._tables.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            tables = [t for t in self._tables.values() if t is not None]
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "tables": len(self._tables),
                "entries": sum(t.length for t in tables),
                "bytes": sum(t.nbytes for t in tables),
            }

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.hits = self.misses = self.evictions = 0


_CACHE = _TableCache()

#: Module switch for the escape hatch (see :func:`legacy_sampling`).
_TABLES_ENABLED = True


def get_table(
    alpha: float, lazy_probability: float = 0.5, cap: Optional[int] = None
) -> Optional[JumpCdfTable]:
    """The cached table for a law, or ``None`` if the law is untabulated
    (table would exceed :data:`MAX_TABLE_ENTRIES`) or tables are disabled
    via :func:`legacy_sampling`."""
    if not _TABLES_ENABLED:
        return None
    return _CACHE.get(alpha, lazy_probability, cap)


def install_table(table: JumpCdfTable) -> None:
    """Install a prebuilt (e.g. shared-memory-backed) table in the cache.

    Eviction of an installed table is harmless: the next ``get_table``
    for the law rebuilds it locally, exactly as on the non-shared path.
    """
    _CACHE.install(table)


def cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the global cache."""
    return _CACHE.stats()


def clear_cache() -> None:
    """Drop every cached table and reset the counters (tests)."""
    _CACHE.clear()


def set_cache_limit(max_tables: int) -> int:
    """Change the LRU bound; returns the previous one (tests)."""
    previous = _CACHE.max_tables
    if max_tables < 1:
        raise ValueError(f"cache must hold at least one table, got {max_tables}")
    _CACHE.max_tables = int(max_tables)
    return previous


def table_sampling_enabled() -> bool:
    """True unless inside a :func:`legacy_sampling` block."""
    return _TABLES_ENABLED


@contextmanager
def legacy_sampling() -> Iterator[None]:
    """Escape hatch: route all sampling through the pre-table samplers.

    The ground-truth tests run the same draws with and without tables to
    verify the two paths are distributionally identical.  Not thread-safe
    (a module-level switch): intended for tests and benchmarks.
    """
    global _TABLES_ENABLED
    previous = _TABLES_ENABLED
    _TABLES_ENABLED = False
    try:
        yield
    finally:
        _TABLES_ENABLED = previous
