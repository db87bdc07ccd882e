"""Occupation statistics of flights and walks.

Several of the paper's lemmas are statements about *visit counts* rather
than hitting times:

* Lemma 3.9 (monotonicity): for a monotone radial process,
  ``P(J_t = u) >= P(J_t = v)`` whenever ``||v||_inf >= ||u||_1``;
* Lemma 4.13: the expected number of visits of a (capped) Levy flight to
  the origin within ``t`` jumps is ``O(1/(3 - alpha)^2)`` for
  ``alpha in (2, 3)`` and ``O(log^2 t)`` at ``alpha = 3``;
* the ``A_1 / A_2 / A_3`` decomposition of Lemma 4.12 counts visits to a
  box, an annulus and a far region.

This module provides vectorized estimators for those quantities, plus the
displacement-snapshot machinery behind the mean-squared-displacement
regime figure (ballistic vs super-diffusive vs diffusive spreading).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator

IntPoint = Tuple[int, int]


def flight_visit_counts(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    nodes: Sequence[IntPoint],
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> np.ndarray:
    """Visit counts ``Z_u^f(t)`` of a Levy flight for a few nodes.

    Returns an array of shape ``(len(nodes),)`` whose entry ``j`` is the
    *average over flights* of the number of jumps ``1..horizon`` that land
    on ``nodes[j]`` -- a Monte-Carlo estimate of ``E[Z_u^f(horizon)]``
    (paper Section 3.1 notation; a flight's time unit is one jump).
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_jumps, n_flights = int(horizon), int(n)
    node_array = np.asarray(nodes, dtype=np.int64)
    if node_array.ndim != 2 or node_array.shape[1] != 2:
        raise ValueError("nodes must be a sequence of (x, y) pairs")
    pos = np.empty((n_flights, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    counts = np.zeros(node_array.shape[0], dtype=np.int64)
    indices = np.arange(n_flights)
    for _ in range(n_jumps):
        d = sampler.sample(rng, indices)
        pos += sample_ring_offsets(d, rng)
        for j in range(node_array.shape[0]):
            counts[j] += np.count_nonzero(
                (pos[:, 0] == node_array[j, 0]) & (pos[:, 1] == node_array[j, 1])
            )
    sampler.flush_jump_accounting()
    return counts / float(n_flights)


def flight_occupation_grid(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    *,
    horizon: int,
    n: int,
    radius: int,
    rng: SeedLike = None,
    at_time_only: bool = False,
    return_counts: bool = False,
) -> np.ndarray:
    """Occupation histogram of a Levy flight inside the box ``Q_radius(0)``.

    Returns a float array ``grid`` of shape ``(2 radius + 1, 2 radius + 1)``
    where ``grid[x + radius, y + radius]`` estimates either the expected
    number of visits to ``(x, y)`` within ``horizon`` jumps (default), or
    ``P(J_horizon = (x, y))`` when ``at_time_only`` is True.  The latter
    is what Lemma 3.9's monotonicity property constrains.

    With ``return_counts=True`` the raw int64 *count* grid is returned
    instead of the per-flight average.  Counts are what interval
    estimators need: a Wilson CI rebuilt from a rounded frequency times
    ``n`` is lossy, whereas the count grid feeds
    :func:`repro.analysis.estimators.wilson_bounds` exactly.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_jumps, n_flights = int(horizon), int(n)
    side = 2 * radius + 1
    grid = np.zeros((side, side), dtype=np.int64)
    pos = np.zeros((n_flights, 2), dtype=np.int64)
    indices = np.arange(n_flights)
    for jump_index in range(1, n_jumps + 1):
        d = sampler.sample(rng, indices)
        pos += sample_ring_offsets(d, rng)
        if at_time_only and jump_index < n_jumps:
            continue
        inside = (np.abs(pos[:, 0]) <= radius) & (np.abs(pos[:, 1]) <= radius)
        np.add.at(
            grid,
            (pos[inside, 0] + radius, pos[inside, 1] + radius),
            1,
        )
    sampler.flush_jump_accounting()
    if return_counts:
        return grid
    return grid / float(n_flights)


def flight_positions_after(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Positions of ``n`` independent flights after ``horizon`` jumps."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_jumps, n_flights = int(horizon), int(n)
    pos = np.zeros((n_flights, 2), dtype=np.int64)
    indices = np.arange(n_flights)
    for _ in range(n_jumps):
        d = sampler.sample(rng, indices)
        pos += sample_ring_offsets(d, rng)
    sampler.flush_jump_accounting()
    return pos


def flight_region_visits(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    *,
    box_radius: int,
    far_radius: int,
    horizon: int,
    n: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Average visits to the ``A1 / A2 / A3`` regions of Lemma 4.12.

    The proof of Lemma 4.5 splits Z^2 into ``A1 = Q_box_radius(0)`` (the
    box around the origin), ``A3`` (nodes with L1 norm at least
    ``far_radius``), and the annulus ``A2`` in between, then accounts for
    the flight's ``horizon`` visits across them: at most a constant
    fraction falls in ``A1`` (Lemma 4.8), a vanishing fraction in ``A3``
    (Lemma 4.11), so a constant fraction must land in ``A2`` -- the
    annulus containing the target, which yields the hitting-probability
    lower bound.

    Returns ``[visits_A1, visits_A2, visits_A3]`` averaged over flights
    (their sum is ``horizon``).
    """
    if far_radius <= box_radius:
        raise ValueError("far_radius must exceed box_radius")
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_jumps, n_flights = int(horizon), int(n)
    pos = np.zeros((n_flights, 2), dtype=np.int64)
    indices = np.arange(n_flights)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(n_jumps):
        d = sampler.sample(rng, indices)
        pos += sample_ring_offsets(d, rng)
        linf = np.maximum(np.abs(pos[:, 0]), np.abs(pos[:, 1]))
        l1 = np.abs(pos[:, 0]) + np.abs(pos[:, 1])
        in_box = linf <= box_radius
        far = l1 >= far_radius
        counts[0] += int(np.count_nonzero(in_box))
        counts[2] += int(np.count_nonzero(far & ~in_box))
        counts[1] += int(np.count_nonzero(~in_box & ~far))
    sampler.flush_jump_accounting()
    return counts / float(n_flights)


def walk_displacement_snapshots(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    snapshot_steps: Sequence[int],
    *,
    n: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Positions of Levy *walks* at the given step counts.

    Returns an int64 array of shape ``(len(snapshot_steps), n, 2)``:
    slice ``s`` holds each walk's position at step ``snapshot_steps[s]``.

    The engine advances whole jump phases and, when a snapshot step falls
    strictly inside a phase, samples the position from the direct path's
    exact ring marginal.  Each snapshot therefore has exactly the right
    *marginal* law (which is all that time-indexed statistics like the
    mean-squared displacement use); the joint law across snapshots inside
    one phase is not preserved.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    snaps = np.asarray(sorted(int(s) for s in snapshot_steps), dtype=np.int64)
    if snaps.size and snaps[0] < 0:
        raise ValueError("snapshot steps must be non-negative")
    out = np.zeros((snaps.size, n_walks, 2), dtype=np.int64)
    if snaps.size == 0:
        return out
    pos = np.zeros((n_walks, 2), dtype=np.int64)
    elapsed = np.zeros(n_walks, dtype=np.int64)
    # Snapshots at step 0 are the origin, which `out` already holds; start
    # every walk's snapshot pointer past them.
    n_zero_snaps = int(np.count_nonzero(snaps == 0))
    pointer = np.full(n_walks, n_zero_snaps, dtype=np.int64)
    active = np.flatnonzero(pointer < snaps.size)
    while active.size:
        d = sampler.sample(rng, active)
        offsets = sample_ring_offsets(d, rng)
        u = pos[active]
        v = u + offsets
        phase = np.maximum(d, 1)
        end = elapsed[active] + phase
        # Record every snapshot that this phase reaches or passes.
        while True:
            ptr = pointer[active]
            in_range = ptr < snaps.size
            due = np.zeros(active.shape[0], dtype=bool)
            due[in_range] = snaps[ptr[in_range]] <= end[in_range]
            if not np.any(due):
                break
            snap_steps = snaps[pointer[active[due]]]
            rings = np.minimum(snap_steps - elapsed[active[due]], d[due])
            nodes = sample_direct_path_nodes(u[due], v[due], rings, rng)
            out[pointer[active[due]], active[due]] = nodes
            pointer[active[due]] += 1
        pos[active] = v
        elapsed[active] = end
        active = active[pointer[active] < snaps.size]
    sampler.flush_jump_accounting()
    return out
