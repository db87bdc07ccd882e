"""The paper's power-law jump distribution (Eq. 3), sampled exactly.

Equation (3) of the paper defines the jump distance of a Levy walk or
flight with exponent ``alpha`` in ``(1, inf)``:

    P(d = 0) = 1/2,    P(d = i) = c_alpha / i^alpha  for i >= 1,

with ``c_alpha`` the normalizing constant, i.e. ``c_alpha = 1 / (2
zeta(alpha))`` where ``zeta`` is the Riemann zeta function.  The tail obeys
``P(d >= i) = Theta(1 / i^(alpha - 1))`` (Eq. 4).

Exactness matters here: the theorems distinguish exponents that differ by
``Theta(log log l / log l)``, so an approximate sampler (e.g. rounding a
continuous Pareto) could shift measured crossovers.  We sample by inverse
CDF using the Hurwitz zeta function: ``P(d >= i | d >= 1) = zeta(alpha, i)
/ zeta(alpha, 1)``, and the inverse is found by bracketed bisection, which
is exact and fully vectorized.

The class also supports *capping* the distance at a maximum ``cap``
(conditioning on ``d <= cap``).  Capped flights appear in the paper's own
analysis: Lemma 4.5 studies the Levy flight conditioned on the event
``E_t`` that each of the first ``t`` jumps is shorter than
``(t log t)^(1/(alpha-1))``; conditioning i.i.d. jumps on ``E_t`` is the
same as sampling them from the capped law.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import special

from repro.distributions.base import JumpDistribution
from repro.distributions.cdf_table import get_table
from repro.distributions.zipf_sampler import rejection_conditional_zipf

#: Exponents this close to 1 make the normalizing series effectively
#: divergent and are rejected (the paper assumes ``alpha >= 1 + eps``,
#: Remark 3.5).
MIN_EXPONENT = 1.0 + 1e-6


def _hurwitz(alpha: float, q) -> np.ndarray:
    """Hurwitz zeta ``sum_{k>=0} (k + q)^(-alpha)``, vectorized in ``q``."""
    return special.zeta(alpha, q)


#: Largest cap for which truncated moments are computed by exact summation.
_EXACT_SUM_LIMIT = 10_000_000


def _partial_power_sum(s: float, n: int) -> float:
    """Return ``sum_{i=1}^{n} i^(-s)`` for any real ``s`` and ``n >= 1``.

    For ``s > 1`` the sum is the zeta difference ``zeta(s) - zeta(s, n+1)``.
    Otherwise (divergent series; needed for truncated moments of ballistic
    exponents) we sum exactly up to ``_EXACT_SUM_LIMIT`` terms and fall
    back to the Euler-Maclaurin expansion ``n^(1-s)/(1-s) + n^(-s)/2 +
    zeta(s)`` beyond it, whose relative error is ``O(n^(s-1))``.
    """
    if n < 1:
        return 0.0
    if s > 1.0:
        return float(_hurwitz(s, 1) - _hurwitz(s, n + 1))
    if n <= _EXACT_SUM_LIMIT:
        i = np.arange(1, n + 1, dtype=float)
        return float(np.sum(i**-s))
    head = float(np.sum(np.arange(1, _EXACT_SUM_LIMIT + 1, dtype=float) ** -s))
    # Euler-Maclaurin for the remaining block (m, n]:
    # sum_{i=m+1}^{n} i^-s ~= (n^(1-s) - m^(1-s)) / (1-s) + (n^-s - m^-s)/2.
    m = float(_EXACT_SUM_LIMIT)
    if s == 1.0:
        block = math.log(n / m)
    else:
        block = (n ** (1.0 - s) - m ** (1.0 - s)) / (1.0 - s)
    block += (n ** (-s) - m ** (-s)) / 2.0
    return head + block


class ZetaJumpDistribution(JumpDistribution):
    """Discrete power-law jump distance of Eq. (3).

    Parameters
    ----------
    alpha:
        Exponent parameter in ``(1, inf)``.  Regimes (Section 1.2.1):
        *ballistic* for ``alpha in (1, 2]``, *super-diffusive* for
        ``alpha in (2, 3)``, *diffusive* for ``alpha in [3, inf)``.
    cap:
        Optional largest allowed distance; the law is conditioned on
        ``d <= cap`` (``d = 0`` keeps its full probability).
    lazy_probability:
        ``P(d = 0)``; the paper fixes 1/2, exposed for ablations.
    """

    def __init__(
        self,
        alpha: float,
        cap: Optional[int] = None,
        lazy_probability: float = 0.5,
    ) -> None:
        if not alpha >= MIN_EXPONENT:
            raise ValueError(
                f"alpha must be at least {MIN_EXPONENT} (Remark 3.5), got {alpha}"
            )
        if not 0.0 <= lazy_probability < 1.0:
            raise ValueError(f"lazy probability must be in [0, 1), got {lazy_probability}")
        if cap is not None and cap < 1:
            raise ValueError(f"cap must be at least 1, got {cap}")
        self.alpha = float(alpha)
        self.cap = int(cap) if cap is not None else None
        self.lazy_probability = float(lazy_probability)
        # Mass of the truncated series sum_{i=1..cap} i^(-alpha).
        self._tail_offset = (
            0.0 if self.cap is None else float(_hurwitz(self.alpha, self.cap + 1))
        )
        self._series_mass = float(_hurwitz(self.alpha, 1)) - self._tail_offset
        #: The paper's normalizing factor ``c_alpha`` (so that the i >= 1
        #: masses sum to ``1 - lazy_probability``).
        self.c_alpha = (1.0 - self.lazy_probability) / self._series_mass

    # ------------------------------------------------------------------ law

    def pmf(self, i) -> np.ndarray:
        i = np.asarray(i)
        out = np.zeros(i.shape, dtype=float)
        out = np.where(i == 0, self.lazy_probability, out)
        positive = i >= 1
        if self.cap is not None:
            positive = positive & (i <= self.cap)
        base = np.where(positive, i, 1).astype(float)
        out = np.where(positive, self.c_alpha * base ** (-self.alpha), out)
        return out if out.shape else float(out)

    def tail(self, i) -> np.ndarray:
        i = np.asarray(i)
        clipped = np.maximum(i, 1).astype(float)
        partial = _hurwitz(self.alpha, clipped) - self._tail_offset
        if self.cap is not None:
            partial = np.maximum(partial, 0.0)
        out = self.c_alpha * partial
        out = np.where(i <= 0, 1.0, out)
        return out if out.shape else float(out)

    @property
    def mean(self) -> float:
        if self.cap is None:
            if self.alpha <= 2.0:
                return float("inf")
            return self.c_alpha * float(_hurwitz(self.alpha - 1.0, 1))
        return self.c_alpha * _partial_power_sum(self.alpha - 1.0, self.cap)

    @property
    def second_moment(self) -> float:
        if self.cap is None:
            if self.alpha <= 3.0:
                return float("inf")
            return self.c_alpha * float(_hurwitz(self.alpha - 2.0, 1))
        return self.c_alpha * _partial_power_sum(self.alpha - 2.0, self.cap)

    @property
    def support_max(self) -> Optional[int]:
        return self.cap

    # ------------------------------------------------------------- sampling

    def _conditional_tail(self, i: np.ndarray) -> np.ndarray:
        """``G(i) = P(d >= i | d >= 1)`` for integer ``i >= 1``."""
        partial = _hurwitz(self.alpha, i.astype(float)) - self._tail_offset
        if self.cap is not None:
            partial = np.maximum(partial, 0.0)
        return partial / self._series_mass

    def _upper_bracket(self, v: np.ndarray) -> np.ndarray:
        """Return ``hi`` with ``G(hi) < v`` elementwise (for bisection)."""
        if self.cap is not None:
            return np.full(v.shape, self.cap + 1, dtype=np.int64)
        # zeta(alpha, q) <= q^(1-alpha) / (alpha - 1) + q^(-alpha)
        #               <= 2 q^(1-alpha) / (alpha - 1)  for q >= 1, so
        # G(hi) < v holds once hi > (2 / ((alpha-1) Z v))^(1/(alpha-1)).
        exponent = 1.0 / (self.alpha - 1.0)
        bound = (2.0 / ((self.alpha - 1.0) * self._series_mass * v)) ** exponent
        hi = np.ceil(bound).astype(np.int64) + 2
        # Defensive doubling in case of floating slack near v -> 0.
        for _ in range(64):
            bad = self._conditional_tail(hi) >= v
            if not np.any(bad):
                break
            hi = np.where(bad, hi * 2, hi)
        return hi

    def sample(
        self,
        rng: np.random.Generator,
        size: int,
        u: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Draw ``size`` exact samples of the jump distance.

        The fast path is the cached inverse-CDF table
        (:mod:`repro.distributions.cdf_table`): one breakpoint/guide
        lookup per draw, exact tail fallback beyond the table.  Laws too heavy-tailed
        to tabulate -- and every law inside a
        :func:`~repro.distributions.cdf_table.legacy_sampling` block --
        use the original samplers: Devroye rejection when uncapped,
        inverse-CDF bisection (bracketed by the cap) when capped.

        ``u`` optionally supplies the per-draw uniforms (engines batch one
        ``rng.random`` call per round and fuse the lazy phase into it);
        ``out`` is an optional int64 destination buffer.
        """
        table = get_table(self.alpha, self.lazy_probability, self.cap)
        if table is not None:
            return table.sample(rng, size, u=u, out=out)
        if u is None:
            u = rng.random(size)
        if out is None:
            out = np.zeros(size, dtype=np.int64)
        else:
            out[:] = 0
        lazy = u < self.lazy_probability
        n_positive = int(size - lazy.sum())
        if n_positive == 0:
            return out
        if self.cap is None:
            out[~lazy] = rejection_conditional_zipf(self.alpha, rng, n_positive)
            return out
        # v ~ U(0, 1]; the sample is the largest i with G(i) >= v.
        v = 1.0 - rng.random(n_positive)
        lo = np.ones(n_positive, dtype=np.int64)  # G(1) = 1 >= v always
        hi = self._upper_bracket(v)  # G(hi) < v
        # Bisection on the integer boundary: invariant G(lo) >= v > G(hi).
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            ge = self._conditional_tail(mid) >= v
            lo = np.where(ge, mid, lo)
            hi = np.where(ge, hi, mid)
        out[~lazy] = lo
        return out

    # ----------------------------------------------------------- utilities

    def capped(self, cap: int) -> "ZetaJumpDistribution":
        """Return this law conditioned on ``d <= cap`` (Lemma 4.5's E_t)."""
        return ZetaJumpDistribution(
            self.alpha, cap=cap, lazy_probability=self.lazy_probability
        )

    def lemma_4_5_cap(self, t: int) -> int:
        """The cap ``(t log t)^(1/(alpha-1))`` of event ``E_t`` (Lemma 4.5)."""
        if t < 2:
            raise ValueError("t must be at least 2")
        return max(1, int((t * math.log(t)) ** (1.0 / (self.alpha - 1.0))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "" if self.cap is None else f", cap={self.cap}"
        return f"ZetaJumpDistribution(alpha={self.alpha}{cap})"


def cauchy_jump_distribution(**kwargs) -> ZetaJumpDistribution:
    """The Cauchy walk's jump law (``alpha = 2``), see Section 2."""
    return ZetaJumpDistribution(2.0, **kwargs)
