"""Cached inverse-CDF jump tables: the engines' fused sampling kernel.

Every Monte-Carlo engine in this package burns most of its walltime
drawing jump distances from the conditional Zipf law ``P(d = i | d >= 1)
= i^(-alpha) / zeta(alpha)`` (Eq. 3).  The exact Devroye rejection
sampler (:func:`~repro.distributions.zipf_sampler.rejection_conditional_zipf`)
costs two to three fresh ``power`` evaluations per draw *every round*;
this module trades a one-time precomputation for one O(1) indexed lookup
per draw:

* a :class:`JumpCdfTable` stores ``F(i) = P(d <= i | d >= 1)`` for
  ``i = 1..L`` where ``L`` is chosen so the table covers at least
  ``1 - 1e-6`` of the conditional mass (or the full mass, for capped
  laws).  The draw is the exact inverse CDF on the covered range: with
  lazy probability ``p`` and ``u ~ U[0, 1)``, ``d = 0`` if ``u < p``, and
  otherwise ``d`` is the smallest ``i`` with ``F(i) >= v`` for
  ``v = (u - p) / (1 - p)``, which is again uniform and independent of the
  lazy indicator -- one ``rng.random`` feeds both decisions, and engines
  batch all of a round's uniforms into one generator call;
* the draw runs in ``u`` space, without the lazy mask or the rescale.
  ``v(u)`` is monotone in floating point, so ``d = #{k : B[k] <= u}``
  for breakpoints ``B[0] = p`` and ``B[k]`` = the smallest float64 ``u``
  with ``v(u) > F(k)``, found once at build time.  A guide table over
  ``M >= L + 1`` equal buckets of ``[0, 1)`` (``M`` a power of two, so
  ``u * M`` is exact) holds the count at each bucket's left edge, and at
  most one more breakpoint lies inside a bucket: a draw is one guide
  probe plus one comparison (the indexed search of Chen & Asau; Devroye
  1986, ch. III).  The few buckets crowded with two or more breakpoints
  hold a sentinel and resolve by ``searchsorted`` on just their rows.
  Every draw is bit-identical to the plain ``searchsorted`` inversion;
* the rare draws with ``v`` beyond the covered mass fall back to the
  exact tail sampler
  :func:`~repro.distributions.zipf_sampler.rejection_conditional_zipf_tail`
  (conditioned on ``d > L``, in row order), so the combined law is
  *identical* to the legacy samplers, not an approximation;
* tables live in a process-global bounded LRU cache keyed by
  ``(alpha, lazy_probability, cap)``, so pooled Runner workers and every
  ``GridPoint`` of a sweep reuse one table per law instead of re-deriving
  normalizing constants per call.

Laws whose table would exceed :data:`MAX_TABLE_ENTRIES` at the target
coverage (strongly ballistic exponents, ``alpha`` close to 1, where the
required length grows like ``(1/tail)^(1/(alpha-1))``) are recorded as
*untabulated* and keep using the legacy samplers, which are already fast
in that regime.

RNG-stream note: routing through tables changed the *order* in which the
underlying bit stream is consumed, so samples for a fixed seed differ
from pre-table releases (a one-time documented break, see
``docs/performance.md``).  The indexed lookup did not change the
mapping again.  Determinism contracts are unchanged: for a fixed seed
the stream is reproducible, and worker-count / resume invariance holds
because tables carry no RNG state.

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

#: Hard per-table length bound.  A table of ``L`` entries holds ``8 L``
#: bytes of CDF, ``8 (L + 2)`` of breakpoints and ``4 M`` of int32 guide
#: (``M`` the power of two ``>= L + 1``): 24 MiB at ``L = 1 << 20``.  Laws
#: needing more entries than this for the target coverage stay on the
#: legacy samplers.
MAX_TABLE_ENTRIES = 1 << 20

#: Default bound on the number of cached tables (LRU eviction beyond it).
#: Worst-case cache memory is 24 MiB per table, 384 MiB at the defaults;
#: typical sweeps use a handful of small tables (``alpha = 2.5`` is
#: 6 274 entries, 132 KiB in all).
CACHE_MAX_TABLES = 16

_Key = Tuple[float, float, Optional[int]]


class JumpCdfTable:
    """Truncated conditional-Zipf CDF, indexed for O(1) draws, with an
    exact tail fallback.

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

    __slots__ = (
        "alpha", "lazy_probability", "cap", "cdf", "top", "breaks", "guide",
        "buckets",
    )

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
        cdf = np.cumsum(np.arange(1, length + 1, dtype=float) ** (-self.alpha))
        if cap is not None:
            # Capped law: normalize by the table's own total so
            # ``F(cap) == 1.0`` exactly and no draw can escape the table.
            cdf /= cdf[-1]
        else:
            cdf /= float(special.zeta(self.alpha, 1.0))
        self._index(cdf)

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
        that segment.  The breakpoints and guide are built locally from
        it, and nothing ever writes to ``cdf``.
        """
        table = cls.__new__(cls)
        table.alpha = float(alpha)
        table.lazy_probability = float(lazy_probability)
        table.cap = cap
        table._index(cdf)
        return table

    def _index(self, cdf: np.ndarray) -> None:
        self.cdf = cdf
        #: Covered conditional mass; draws with ``v > top`` use the tail.
        self.top = float(cdf[-1])
        self.breaks = _breakpoints(cdf, self.lazy_probability)
        #: Guide buckets ``M``: a power of two, so ``u * M`` is exact.
        self.buckets = 1 << cdf.shape[0].bit_length()
        self.guide = _guide(self.breaks, self.buckets)

    @property
    def length(self) -> int:
        """Number of table entries (largest distance drawable in-table)."""
        return int(self.cdf.shape[0])

    @property
    def nbytes(self) -> int:
        """Memory footprint of the CDF, the breakpoints and the guide."""
        return int(self.cdf.nbytes + self.breaks.nbytes + self.guide.nbytes)

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
            out = np.empty(size, dtype=np.int64)
        length = self.length
        # #{k : B[k] <= u} in one probe: the guide counts the breakpoints
        # at or below the bucket's left edge, and at most one more lies
        # inside the bucket.
        g = self.guide.take((u * self.buckets).astype(np.int64))
        np.add(g, self.breaks.take(g) <= u, out=out)
        past = np.flatnonzero(out > length)
        if past.size:
            # Crowded (sentinel) buckets and true tail draws.
            drawn = self.breaks.searchsorted(u[past], side="right")
            out[past] = drawn
            tail = past[drawn > length]
            if tail.size:
                out[tail] = rejection_conditional_zipf_tail(
                    self.alpha, length, rng, int(tail.size)
                )
        return out


def _breakpoints(cdf: np.ndarray, p: float) -> np.ndarray:
    """The draw's breakpoints ``B[0..L+1]`` in uniform space.

    ``B[0] = p``; for ``k = 1..L``, ``B[k]`` is the smallest float64 ``u``
    whose rescaled ``v = (u - p) / (1 - p)`` exceeds ``cdf[k - 1]``
    (``inf`` when that ``u`` is not below 1); ``B[L + 1] = inf``.
    """
    q = 1.0 - p
    breaks = np.empty(cdf.shape[0] + 2)
    breaks[0] = p
    breaks[-1] = np.inf
    x = breaks[1:-1]
    np.multiply(cdf, q, out=x)
    x += p
    # p + (1 - p) F lands within a few ulps: step up until v > F, then
    # down while the float below still has v > F.
    rows = np.flatnonzero((x - p) / q <= cdf)
    while rows.size:
        x[rows] = np.nextafter(x[rows], np.inf)
        rows = rows[(x[rows] - p) / q <= cdf[rows]]
    v_below = np.nextafter(x, -np.inf)
    v_below -= p
    v_below /= q
    rows = np.flatnonzero(v_below > cdf)
    del v_below
    while rows.size:
        x[rows] = np.nextafter(x[rows], -np.inf)
        rows = rows[(np.nextafter(x[rows], -np.inf) - p) / q > cdf[rows]]
    x[x >= 1.0] = np.inf
    return breaks


def _guide(breaks: np.ndarray, buckets: int) -> np.ndarray:
    """``guide[b] = #{k : B[k] <= b / M}`` over ``M = buckets`` buckets.

    A bucket with two or more breakpoints strictly inside it holds the
    sentinel ``L + 1`` (the index of ``B``'s trailing ``inf``), which
    sends its draws to the exact ``searchsorted``.
    """
    sentinel = breaks.shape[0] - 1
    # B is sorted, so its finite entries are a prefix.
    scaled = breaks[: np.searchsorted(breaks, np.inf)] * buckets
    first = np.floor(scaled)
    inside = first != scaled
    del scaled
    crowded = first[1:][inside[1:] & inside[:-1] & (first[1:] == first[:-1])]
    # Breakpoint k is counted from bucket ceil(B[k] * M) on, so the guide
    # holds g on the run of buckets [ceil(B[g-1] M), ceil(B[g] M)).
    edges = np.empty(first.shape[0] + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, buckets
    np.add(first, inside, out=edges[1:-1], casting="unsafe")
    del first, inside
    runs = np.diff(edges)
    del edges
    guide = np.repeat(np.arange(runs.shape[0], dtype=np.int32), runs)
    guide[crowded.astype(np.int64)] = sentinel
    return guide


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
