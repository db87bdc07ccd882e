"""Discrete power-law exponent estimation (Clauset-Shalizi-Newman style).

Used by EXP-E4 to verify that the implemented jump law really has the
tail of Eq. (4): given samples of the jump distance, the maximum
likelihood estimate of the Zipf exponent should recover the ``alpha``
that was plugged in, and the Kolmogorov-Smirnov distance to the exact
law should vanish with the sample size.

The estimator is the exact discrete MLE: for i.i.d. samples ``x_1..x_n``
from ``P(X = i) ∝ i^(-alpha)`` (``i >= x_min``), the log-likelihood is
``-alpha * sum(log x_j) - n * log zeta(alpha, x_min)``, maximized
numerically over ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class PowerLawMLE:
    """Fitted discrete power law."""

    alpha: float
    x_min: int
    n_samples: int
    ks_distance: float

    def __str__(self) -> str:
        return (
            f"alpha_hat {self.alpha:.3f} (x_min={self.x_min}, "
            f"n={self.n_samples}, KS {self.ks_distance:.4f})"
        )


def _negative_log_likelihood(alpha: float, log_sum: float, n: int, x_min: int) -> float:
    if alpha <= 1.0:
        return float("inf")
    return alpha * log_sum + n * math.log(float(special.zeta(alpha, x_min)))


def fit_discrete_power_law(
    samples: np.ndarray,
    x_min: int = 1,
    alpha_bracket: tuple[float, float] = (1.01, 12.0),
) -> PowerLawMLE:
    """Maximum-likelihood Zipf exponent of ``samples >= x_min``.

    Samples below ``x_min`` are discarded (Eq. (3)'s lazy mass at 0 must
    be excluded with ``x_min = 1``).
    """
    samples = np.asarray(samples)
    tail = samples[samples >= x_min].astype(float)
    n = int(tail.size)
    if n < 10:
        raise ValueError(f"need at least 10 tail samples, got {n}")
    log_sum = float(np.sum(np.log(tail)))
    from scipy import optimize  # slow to import; kept off the engine import path

    result = optimize.minimize_scalar(
        _negative_log_likelihood,
        bounds=alpha_bracket,
        args=(log_sum, n, x_min),
        method="bounded",
    )
    alpha_hat = float(result.x)
    ks = ks_distance_to_zipf(tail.astype(np.int64), alpha_hat, x_min)
    return PowerLawMLE(alpha=alpha_hat, x_min=x_min, n_samples=n, ks_distance=ks)


def ks_distance_to_zipf(samples: np.ndarray, alpha: float, x_min: int = 1) -> float:
    """Kolmogorov-Smirnov distance between samples and the exact Zipf law."""
    samples = np.asarray(samples)
    tail = np.sort(samples[samples >= x_min])
    n = tail.size
    if n == 0:
        raise ValueError("no samples at or above x_min")
    values, counts = np.unique(tail, return_counts=True)
    empirical_cdf = np.cumsum(counts) / n
    mass = float(special.zeta(alpha, x_min))
    model_cdf = 1.0 - special.zeta(alpha, values.astype(float) + 1.0) / mass
    return float(np.max(np.abs(empirical_cdf - model_cdf)))


def tail_exponent_from_survival(
    samples: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival ``P(X >= g)`` on a grid (for Eq. (4) slope fits).

    Returns ``(grid_kept, survival)`` keeping only grid points with a
    non-zero survival estimate.
    """
    samples = np.asarray(samples)
    grid = np.asarray(grid)
    survival = np.array([(samples >= g).mean() for g in grid], dtype=float)
    keep = survival > 0
    return grid[keep], survival[keep]
