"""Exact step-level trajectory recording, vectorized.

Most engines avoid materializing paths; this one does the opposite: it
returns every position of every walk for the first ``n_steps`` steps,
with exactly the joint law of Definition 3.4.  Within a phase, the path
node at each ring is the nearest-node marginal with independent fair
tie-breaks, which IS the uniform-direct-path joint law (see
:mod:`repro.lattice.direct_path`), so sampling rings one at a time is
exact *jointly*, not just marginally.

Cost is O(n_walks * n_steps) -- the price of full trajectories -- so this
engine is for statistics that genuinely need every step, e.g. the number
of *distinct* nodes visited (experiment EXT-COVER: Levy walks barely
re-visit, which is the mechanism behind their search efficiency and the
content of Lemma 4.13's bounded origin-visit count).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator

IntPoint = Tuple[int, int]


def walk_trajectories(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> np.ndarray:
    """Record full trajectories: returns int64 ``(n, horizon+1, 2)``.

    ``out[w, t]`` is walk ``w``'s position at step ``t`` (``out[:, 0]`` is
    the start node).  Phases that cross ``horizon`` are truncated there;
    the truncation does not disturb the law of the recorded prefix.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_steps, n_walks = int(horizon), int(n)
    out = np.empty((n_walks, n_steps + 1, 2), dtype=np.int64)
    out[:, 0, 0] = int(start[0])
    out[:, 0, 1] = int(start[1])
    pos = np.tile(np.array(start, dtype=np.int64), (n_walks, 1))
    elapsed = np.zeros(n_walks, dtype=np.int64)
    walk_index = np.arange(n_walks)
    while True:
        active = walk_index[elapsed < n_steps]
        if active.size == 0:
            break
        d = sampler.sample(rng, active)
        offsets = sample_ring_offsets(d, rng)
        u = pos[active]
        v = u + offsets
        # Lazy phases (d = 0) occupy one step in place.
        lazy = d == 0
        if np.any(lazy):
            rows = active[lazy]
            out[rows, elapsed[rows] + 1] = u[lazy]
            elapsed[rows] += 1
        moving = ~lazy
        if np.any(moving):
            rows = active[moving]
            um = u[moving]
            vm = v[moving]
            dm = d[moving]
            budget = np.minimum(dm, n_steps - elapsed[rows])
            max_ring = int(budget.max())
            for ring in range(1, max_ring + 1):
                sub = budget >= ring
                nodes = sample_direct_path_nodes(
                    um[sub], vm[sub], np.full(int(sub.sum()), ring, dtype=np.int64), rng
                )
                out[rows[sub], elapsed[rows[sub]] + ring] = nodes
            # Walks whose phase was truncated stand at the truncation node;
            # completed phases stand at the endpoint v.
            final_step = elapsed[rows] + budget
            pos[rows] = out[rows, final_step]
            elapsed[rows] = final_step
    sampler.flush_jump_accounting()
    return out


def distinct_nodes_visited(trajectories: np.ndarray) -> np.ndarray:
    """Distinct nodes per trajectory (including the start node).

    ``trajectories`` is the output of :func:`walk_trajectories`; returns an
    int64 array of shape ``(n_walks,)``.
    """
    trajectories = np.asarray(trajectories)
    if trajectories.ndim != 3 or trajectories.shape[2] != 2:
        raise ValueError("expected an (n_walks, n_steps+1, 2) array")
    counts = np.empty(trajectories.shape[0], dtype=np.int64)
    for w in range(trajectories.shape[0]):
        # Pack (x, y) into one int64 key for fast uniqueness.
        xy = trajectories[w]
        key = (xy[:, 0] << np.int64(32)) ^ (xy[:, 1] & np.int64(0xFFFFFFFF))
        counts[w] = np.unique(key).size
    return counts
