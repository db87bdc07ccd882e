"""Two-sample comparisons used by the experiment checks.

Monte-Carlo experiments constantly ask "is strategy A really better than
strategy B, or is that noise?".  This module provides the two tests the
harnesses rely on:

* :func:`two_proportion_z` -- normal-approximation test for a difference
  of binomial proportions (hit probabilities);
* :func:`mann_whitney_u` -- rank test for stochastic ordering of two
  (possibly censored) hitting-time samples, with censored values treated
  as larger than every observed time (which is exactly their meaning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.results import CENSORED


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-sample test."""

    statistic: float
    p_value: float
    #: Positive when the FIRST sample is larger (proportion) / tends to be
    #: larger (ranks).
    direction: float

    def significant(self, level: float = 0.01) -> bool:
        """Two-sided significance at the given level."""
        return self.p_value < level


def two_proportion_z(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> ComparisonResult:
    """Two-sided two-proportion z-test (pooled standard error)."""
    if min(trials_a, trials_b) <= 0:
        raise ValueError("both samples need at least one trial")
    if not (0 <= successes_a <= trials_a and 0 <= successes_b <= trials_b):
        raise ValueError("successes out of range")
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b))
    if se == 0.0:
        return ComparisonResult(statistic=0.0, p_value=1.0, direction=p_a - p_b)
    z = (p_a - p_b) / se
    from scipy import stats  # slow to import; kept off the engine import path

    p_value = 2.0 * (1.0 - stats.norm.cdf(abs(z)))
    return ComparisonResult(statistic=z, p_value=float(p_value), direction=p_a - p_b)


def mann_whitney_u(
    times_a: np.ndarray, times_b: np.ndarray, horizon: int
) -> ComparisonResult:
    """Rank test on censored hitting-time samples.

    Censored entries (``CENSORED``) are replaced by ``horizon + 1`` so
    that they rank above every observed time -- the correct stochastic
    treatment, since a censored walk is known to take longer than the
    horizon.  Ties (including between censored values) are handled by
    scipy's tie correction.
    """
    a = np.asarray(times_a, dtype=np.int64)
    b = np.asarray(times_b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    a = np.where(a == CENSORED, horizon + 1, a)
    b = np.where(b == CENSORED, horizon + 1, b)
    from scipy import stats  # slow to import; kept off the engine import path

    result = stats.mannwhitneyu(a, b, alternative="two-sided")
    # Direction: positive when sample A tends to be LARGER (slower).
    expected = a.size * b.size / 2.0
    return ComparisonResult(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        direction=float(result.statistic - expected),
    )
