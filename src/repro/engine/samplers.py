"""Batch jump-length samplers for the vectorized engines.

The engines simulate many walks at once and need, at every round, one jump
distance per *active* walk.  Two situations arise:

* every walk uses the same jump law (fixed-exponent strategies, baselines):
  :class:`HomogeneousSampler` simply delegates to the law's vectorized
  ``sample``;
* every walk has its *own* exponent (the paper's randomized strategy of
  Theorem 1.6 draws each walk's ``alpha`` uniformly from ``(2, 3)``):
  :class:`HeterogeneousZetaSampler` keeps a per-walk bulk CDF matrix
  covering the first :data:`_BULK_CDF_COLUMNS` distances and falls back
  to exact tail rejection for the few percent of draws beyond it.

Both samplers accept the engines' batched per-round uniforms (``u=``) so
one ``rng.random`` call per round feeds the lazy phase and the in-table
inversion; see :mod:`repro.distributions.cdf_table`.  The
:func:`~repro.distributions.cdf_table.legacy_sampling` escape hatch
restores the original per-call samplers for ground-truth tests.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np
from scipy import special

from repro.distributions.base import JumpDistribution
from repro.distributions.cdf_table import table_sampling_enabled
from repro.distributions.zeta import ZetaJumpDistribution
from repro.distributions.zipf_sampler import (
    rejection_conditional_zipf,
    rejection_conditional_zipf_tail,
)
from repro.telemetry.recorder import get_recorder


class BatchJumpSampler(abc.ABC):
    """Produces one jump distance per requested walk index.

    Telemetry contract: with a live recorder, each ``sample`` call adds
    its batch size to a per-sampler count, and the *engines* push the
    count into the ``engine.jumps_sampled`` counter once per engine call
    (:meth:`flush_jump_accounting`), so the enabled path touches the
    metrics registry once per call, not once per round.
    """

    #: Jumps drawn since the last flush (counted only with telemetry on).
    _pending_jumps = 0

    @abc.abstractmethod
    def sample(
        self,
        rng: np.random.Generator,
        walk_indices: np.ndarray,
        u: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return an int64 array of jump distances, one per index.

        ``u``, when given, supplies one uniform per index from the
        engine's batched per-round draw; samplers that cannot consume it
        (arbitrary :class:`JumpDistribution` laws) may ignore it -- the
        uniforms are i.i.d. and unused elsewhere, so dropping them is
        distributionally harmless.  ``out``, when given, is a preallocated
        int64 destination buffer; implementations may ignore it, so
        callers must use the *returned* array.
        """

    def flush_jump_accounting(self) -> None:
        """Push the pending jump count into the live metrics registry.

        Engines call this once per engine invocation (inside their
        telemetry epilogue); a no-op when nothing was counted, so
        unconditional calls are safe with telemetry disabled.
        """
        pending = self._pending_jumps
        if pending:
            self._pending_jumps = 0
            get_recorder().metrics.counter("engine.jumps_sampled").add(pending)


class HomogeneousSampler(BatchJumpSampler):
    """All walks share one :class:`JumpDistribution`."""

    def __init__(self, distribution: JumpDistribution) -> None:
        self.distribution = distribution
        # Only the zeta law knows how to consume pre-drawn uniforms (its
        # table fuses the lazy phase into them); other laws draw their own.
        self._accepts_uniforms = isinstance(distribution, ZetaJumpDistribution)

    def sample(
        self,
        rng: np.random.Generator,
        walk_indices: np.ndarray,
        u: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n = int(walk_indices.shape[0])
        if self._accepts_uniforms:
            out = self.distribution.sample(rng, n, u=u, out=out)
        else:
            out = self.distribution.sample(rng, n)
        if get_recorder().enabled:
            self._pending_jumps += n
        return out


#: Columns of the per-walk bulk CDF matrix: enough that only the few
#: percent of draws beyond distance 32 need the exact tail rejection
#: (for ``alpha = 2`` the escape mass is ``zeta(2, 33)/zeta(2) ~ 1.9%``).
_BULK_CDF_COLUMNS = 32


class HeterogeneousZetaSampler(BatchJumpSampler):
    """Each walk has its own power-law exponent (Eq. 3 law per walk).

    The fast path precomputes (lazily, on first sample) an
    ``(n_walks, 32)`` matrix of per-walk conditional CDFs and inverts it
    with one vectorized comparison per round; the draws escaping the
    matrix use the exact tail rejection sampler.  The matrix is derived
    state -- it is excluded from pickling so pooled Runner workers and
    task fingerprints see only the law parameters, and rebuilt on first
    use in each process.

    Parameters
    ----------
    alphas:
        Array of shape ``(n_walks,)``; entry ``i`` is walk ``i``'s
        exponent.  Exponents must exceed 1 (Remark 3.5).
    lazy_probability:
        Common ``P(d = 0)`` (the paper fixes 1/2).
    """

    def __init__(self, alphas: np.ndarray, lazy_probability: float = 0.5) -> None:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("alphas must be one-dimensional")
        if np.any(alphas <= 1.0):
            raise ValueError("every exponent must exceed 1 (Remark 3.5)")
        if not 0.0 <= lazy_probability < 1.0:
            raise ValueError(f"lazy probability must be in [0, 1), got {lazy_probability}")
        self.alphas = alphas
        self.lazy_probability = float(lazy_probability)
        # zeta(alpha) per walk: the conditional tail is zeta(a, i)/zeta(a, 1).
        self._series_mass = special.zeta(alphas, 1.0)
        self._bulk_cdf: Optional[np.ndarray] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_bulk_cdf"] = None
        state.pop("_pending_jumps", None)  # per-process accounting
        return state

    def _bulk(self) -> np.ndarray:
        """``bulk[w, k] = P(d <= k + 1 | d >= 1)`` for walk ``w``."""
        if self._bulk_cdf is None:
            k = np.arange(1, _BULK_CDF_COLUMNS + 1, dtype=float)
            weights = k[None, :] ** (-self.alphas[:, None])
            self._bulk_cdf = np.cumsum(weights, axis=1) / self._series_mass[:, None]
        return self._bulk_cdf

    def sample(
        self,
        rng: np.random.Generator,
        walk_indices: np.ndarray,
        u: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n = int(walk_indices.shape[0])
        if get_recorder().enabled:
            self._pending_jumps += n
        if out is None:
            out = np.zeros(n, dtype=np.int64)
        else:
            out[:] = 0
        if table_sampling_enabled():
            if u is None:
                u = rng.random(n)
            p = self.lazy_probability
            moving = u >= p
            # u | u >= p rescaled to [0, 1); independent of the lazy mask.
            v = (u[moving] - p) / (1.0 - p) if p > 0.0 else u
            rows = walk_indices[moving]
            bulk = self._bulk()
            # First column with cdf >= v, per row (rows are sorted
            # ascending, so this is a vectorized searchsorted).
            idx = (bulk[rows] < v[:, None]).sum(axis=1)
            drawn = idx.astype(np.int64) + 1
            tail = idx >= _BULK_CDF_COLUMNS
            n_tail = int(tail.sum())
            if n_tail:
                drawn[tail] = rejection_conditional_zipf_tail(
                    self.alphas[rows[tail]], _BULK_CDF_COLUMNS, rng, n_tail
                )
            out[moving] = drawn
            return out
        lazy = rng.random(n) < self.lazy_probability
        moving = ~lazy
        n_moving = int(moving.sum())
        if n_moving == 0:
            return out
        a = self.alphas[walk_indices[moving]]
        out[moving] = rejection_conditional_zipf(a, rng, n_moving)
        return out
