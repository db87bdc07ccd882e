"""Exact occupation law of a capped Levy flight, by convolution.

For a Levy flight whose jump law is capped at ``cap`` (e.g. the Lemma 4.5
event ``E_t``), the position after ``t`` jumps is a sum of ``t`` i.i.d.
bounded displacements, so its exact distribution is the ``t``-fold
convolution of the single-jump kernel -- computable on a grid of radius
``t * cap`` with FFTs, with no Monte-Carlo error at all.

This gives *exact* verification of two paper statements that the
Monte-Carlo harnesses can only check statistically:

* Lemma 3.9 (monotonicity): ``P(J_t = u) >= P(J_t = v)`` whenever
  ``||v||_inf >= ||u||_1`` -- checked node-by-node on the full support;
* Lemma 4.13 (origin visits): ``E[Z_0(t)] = sum_j P(J_j = 0)`` evaluated
  exactly.

Complexity: each convolution costs ``O(W^2 log W)`` with ``W = 2 t cap``,
so the tool is for small ``t``/``cap`` (the regime where exactness is
worth more than scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.distributions.base import JumpDistribution


def jump_kernel(law: JumpDistribution, cap: int | None = None) -> np.ndarray:
    """Single-jump displacement distribution as a ``(2c+1, 2c+1)`` grid.

    Entry ``[dx + c, dy + c]`` is ``P(jump displacement = (dx, dy)) =
    pmf(|dx|+|dy|) / |R_(|dx|+|dy|)|``.  ``cap`` defaults to the law's
    ``support_max`` (required: the kernel must be finite).
    """
    if cap is None:
        cap = law.support_max
    if cap is None:
        raise ValueError("jump law must be bounded (capped) for an exact kernel")
    c = int(cap)
    coords = np.arange(-c, c + 1)
    dx, dy = np.meshgrid(coords, coords, indexing="ij")
    distance = np.abs(dx) + np.abs(dy)
    pmf = np.asarray(law.pmf(distance), dtype=float)
    ring = np.where(distance == 0, 1, 4 * distance)
    kernel = np.where(distance <= c, pmf / ring, 0.0)
    total = kernel.sum()
    if not 0.999999 <= total <= 1.000001:
        raise ValueError(f"kernel mass {total} != 1; is the law properly capped?")
    return kernel / total


@dataclass(frozen=True)
class ExactOccupation:
    """Exact law of ``J_t`` plus the running origin-visit expectation."""

    grid: np.ndarray  # (2W+1, 2W+1) probabilities of J_t
    radius: int  # W
    n_jumps: int
    origin_visits: float  # sum_{j=1..t} P(J_j = 0)

    def probability_at(self, node: Tuple[int, int]) -> float:
        """``P(J_t = node)`` (0 outside the support)."""
        x, y = int(node[0]), int(node[1])
        if abs(x) > self.radius or abs(y) > self.radius:
            return 0.0
        return float(self.grid[x + self.radius, y + self.radius])

    def check_monotonicity(self, max_radius: int | None = None) -> float:
        """Verify Lemma 3.9 exactly on the grid.

        For each ``r`` up to ``max_radius``, compares the minimum of
        ``P(J_t = u)`` over ``||u||_1 <= r`` with the maximum over
        ``||v||_inf >= r`` (within the support).  Returns the worst slack
        ``min_inner - max_outer`` (non-negative iff the lemma holds; tiny
        negative values are float roundoff).
        """
        w = self.radius
        coords = np.arange(-w, w + 1)
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        l1 = np.abs(xs) + np.abs(ys)
        linf = np.maximum(np.abs(xs), np.abs(ys))
        limit = max_radius if max_radius is not None else w
        worst = np.inf
        for r in range(1, limit + 1):
            inner = self.grid[l1 <= r]
            outer = self.grid[linf >= r]
            if inner.size == 0 or outer.size == 0:
                continue
            worst = min(worst, float(inner.min() - outer.max()))
        return worst


def flight_hitting_probability_exact(
    law: JumpDistribution,
    target: Tuple[int, int],
    n_jumps: int,
    cap: int | None = None,
) -> list[float]:
    """Exact ``P(h_f <= j)`` for ``j = 0..n_jumps`` of a capped flight.

    Treats the target as absorbing: after each convolution step the mass
    sitting on the target node is moved to the absorbed tally and removed
    from the live grid, which is precisely the first-passage decomposition
    of the Markov chain.  Entirely deterministic -- the strongest possible
    cross-check for the Monte-Carlo flight engine.

    Cost grows like the occupation computation (grid radius ``n_jumps *
    cap``), so keep ``n_jumps * cap`` modest.
    """
    if n_jumps < 0:
        raise ValueError(f"n_jumps must be non-negative, got {n_jumps}")
    from scipy import signal  # slow to import; kept off the engine import path

    kernel = jump_kernel(law, cap)
    c = (kernel.shape[0] - 1) // 2
    w = max(c * n_jumps, 1)
    tx, ty = int(target[0]), int(target[1])
    if abs(tx) > w or abs(ty) > w:
        # Unreachable within n_jumps capped jumps.
        return [0.0] * (n_jumps + 1)
    size = 2 * w + 1
    grid = np.zeros((size, size))
    grid[w, w] = 1.0
    cumulative = [0.0]
    absorbed = 0.0
    if (tx, ty) == (0, 0):
        return [1.0] * (n_jumps + 1)
    for _ in range(n_jumps):
        grid = signal.fftconvolve(grid, kernel, mode="same")
        np.clip(grid, 0.0, None, out=grid)
        absorbed += float(grid[tx + w, ty + w])
        grid[tx + w, ty + w] = 0.0
        cumulative.append(absorbed)
    return cumulative


def flight_occupation_exact(
    law: JumpDistribution,
    n_jumps: int,
    cap: int | None = None,
) -> ExactOccupation:
    """Exact distribution of a capped flight's position after ``n_jumps``."""
    if n_jumps < 0:
        raise ValueError(f"n_jumps must be non-negative, got {n_jumps}")
    from scipy import signal  # slow to import; kept off the engine import path

    kernel = jump_kernel(law, cap)
    c = (kernel.shape[0] - 1) // 2
    w = max(c * n_jumps, 1)
    size = 2 * w + 1
    grid = np.zeros((size, size))
    grid[w, w] = 1.0
    origin_visits = 0.0
    for _ in range(n_jumps):
        grid = signal.fftconvolve(grid, kernel, mode="same")
        # fftconvolve introduces tiny negative ripple; clamp and renorm.
        np.clip(grid, 0.0, None, out=grid)
        grid /= grid.sum()
        origin_visits += float(grid[w, w])
    return ExactOccupation(
        grid=grid, radius=w, n_jumps=n_jumps, origin_visits=origin_visits
    )
