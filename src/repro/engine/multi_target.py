"""Multi-target search: many walks, many food items, exact mid-jump pickup.

The paper motivates its single-target analysis with collective foraging
(Section 1.1) and contrasts it with the classical Levy-foraging setting of
"sparse randomly distributed revisitable targets" [38].  This engine
simulates that richer scenario exactly: ``n_walks`` Levy walks move over a
*field* of target nodes, and for every item the engine reports the first
time any walk steps on it (mid-jump included) and which walk did.

A modelling observation makes one engine serve both classic semantics.
Walks in this model do not react to finding food (no communication, no
behaviour change), so trajectories are independent of the field; hence

* *revisitable* items ([38]): an item's first-discovery time is just the
  parallel hitting time of its node; and
* *destructive* items (foraging): the collector of an item is exactly the
  walk achieving that same earliest crossing -- later crossings find the
  node empty but nothing else changes.

The engine therefore records, per item, the earliest crossing over all
walks and phases.  Items are pruned from detection only once they are no
longer *contestable* (their recorded time is at or below every active
walk's elapsed time), which keeps the pruning exact even though walks
drift apart in elapsed time.

Exactness of mid-jump detection: conditioned on a phase ``(u, v)``, the
direct path's positions at different rings are independent uniform
tie-breaks (see :mod:`repro.lattice.direct_path`), so per-ring marginal
samples ARE the joint law -- but two items at the *same* ring of the same
phase must be tested against a *single* sampled crossing node, which the
engine enforces by deduplicating ``(walk, ring)`` pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.results import CENSORED
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler, _record_engine_sample
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]


@dataclass(frozen=True)
class ForagingResult:
    """Outcome of a multi-target run.

    Attributes
    ----------
    targets:
        The item coordinates, shape ``(n_items, 2)`` (as passed in).
    discovery_times:
        int64 array of shape ``(n_items,)``: the step at which each item
        was first reached, or ``CENSORED``.
    discoverer:
        int64 array of shape ``(n_items,)``: index of the earliest-crossing
        walk (``-1`` where never reached) -- the collector under
        destructive semantics.
    horizon:
        The step deadline used.
    """

    targets: np.ndarray
    discovery_times: np.ndarray
    discoverer: np.ndarray
    horizon: int

    @property
    def n_items(self) -> int:
        return int(self.targets.shape[0])

    @property
    def n_collected(self) -> int:
        return int(np.count_nonzero(self.discovery_times != CENSORED))

    @property
    def collected_fraction(self) -> float:
        return self.n_collected / self.n_items if self.n_items else float("nan")

    def collection_curve(self, grid: Sequence[int]) -> np.ndarray:
        """Number of items collected by each step in ``grid``."""
        times = self.discovery_times
        valid = times[times != CENSORED]
        return np.array([int(np.count_nonzero(valid <= g)) for g in grid])

    def collections_per_walk(self, n_walks: int) -> np.ndarray:
        """Items collected by each walk (destructive attribution)."""
        counts = np.zeros(n_walks, dtype=np.int64)
        for walk in self.discoverer[self.discovery_times != CENSORED]:
            counts[int(walk)] += 1
        return counts


def multi_target_search(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    targets: Sequence[IntPoint],
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> ForagingResult:
    """Run ``n`` Levy walks over a field of targets.

    Returns per-item first-discovery times and discoverers (see the module
    docstring for why this covers destructive and revisitable semantics at
    once).  Work per phase round is O(active walks + crossings tested).
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    target_array = np.asarray(targets, dtype=np.int64)
    if target_array.ndim != 2 or target_array.shape[1] != 2:
        raise ValueError("targets must be a sequence of (x, y) pairs")
    n_items = target_array.shape[0]
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_walks = int(n)

    never = np.iinfo(np.int64).max
    best_time = np.full(n_items, never, dtype=np.int64)
    best_walk = np.full(n_items, -1, dtype=np.int64)

    at_start = (target_array[:, 0] == start[0]) & (target_array[:, 1] == start[1])
    best_time[at_start] = 0
    best_walk[at_start] = 0

    # Same compacted state machine and preallocated round buffers as
    # `walk_hitting_times`; `idx` stays sorted, so row order is walk-id
    # order (the tie-attribution below relies on it).
    idx = np.arange(n_walks)
    pos_buf = np.empty((n_walks, 2), dtype=np.int64)
    end_buf = np.empty((n_walks, 2), dtype=np.int64)
    d_buf = np.empty(n_walks, dtype=np.int64)
    off_buf = np.empty((n_walks, 2), dtype=np.int64)
    u_buf = np.empty(2 * n_walks, dtype=np.float64)
    pos = pos_buf[:n_walks]
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    n_dead = 0
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    steps_simulated = 0
    started = time.perf_counter() if track else 0.0

    while idx.size:
        tick()
        if prof is not None:
            prof.start()
        # An item is contestable while some live walk might still cross
        # it earlier than the recorded time.
        frontier = int(elapsed[alive].min())
        contestable = np.flatnonzero(best_time > frontier)
        if contestable.size == 0:
            break
        if prof is not None:
            # The contestable-pruning scan is part of target bookkeeping.
            prof.lap("target_check")
        k = idx.size
        uniforms = u_buf[: 2 * k]
        rng.random(out=uniforms)
        if prof is not None:
            prof.lap("rng")
        d = sampler.sample(rng, idx, u=uniforms[:k], out=d_buf[:k])
        d[~alive] = 0  # dead rows are carried until the next compaction
        if track:
            steps_simulated += int(np.maximum(d, 1)[alive].sum())
        if prof is not None:
            prof.lap("cdf_lookup")
        off = sample_ring_offsets(d, rng, u=uniforms[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        if prof is not None:
            prof.lap("state_update")
        tx = target_array[contestable, 0]
        ty = target_array[contestable, 1]
        m = np.abs(tx[None, :] - pos[:, 0:1]) + np.abs(ty[None, :] - pos[:, 1:2])
        # Dead rows are frozen on their last node with d = 0; without the
        # `alive` mask one parked on an item would re-detect it.
        reach_w, reach_i = np.nonzero((m <= d[:, None]) & alive[:, None])
        if reach_w.size:
            rings = m[reach_w, reach_i]
            # One crossing node per distinct (walk, ring) pair.
            pairs = np.stack([reach_w, rings], axis=1)
            unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
            unique_nodes = sample_direct_path_nodes(
                pos[unique_pairs[:, 0]],
                v[unique_pairs[:, 0]],
                unique_pairs[:, 1],
                rng,
            )
            nodes = unique_nodes[inverse]
            hit = (nodes[:, 0] == tx[reach_i]) & (nodes[:, 1] == ty[reach_i])
            if np.any(hit):
                hit_steps = elapsed[reach_w[hit]] + rings[hit]
                hit_items = contestable[reach_i[hit]]
                hit_walks = idx[reach_w[hit]]
                in_time = hit_steps <= horizon
                if np.any(in_time):
                    cand_items = hit_items[in_time]
                    cand_steps = hit_steps[in_time]
                    cand_walks = hit_walks[in_time]
                    # Per item keep the earliest step, lowest walk id on
                    # ties -- the same attribution as updating in
                    # walk-major order with a strict `<`.
                    order = np.lexsort((cand_walks, cand_steps, cand_items))
                    items_sorted = cand_items[order]
                    first = np.ones(items_sorted.shape[0], dtype=bool)
                    first[1:] = items_sorted[1:] != items_sorted[:-1]
                    winners = order[first]
                    w_items = cand_items[winners]
                    better = cand_steps[winners] < best_time[w_items]
                    w_items = w_items[better]
                    best_time[w_items] = cand_steps[winners][better]
                    best_walk[w_items] = cand_walks[winners][better]
        if prof is not None:
            prof.lap("target_check")
        elapsed += np.maximum(d, 1)
        pos_buf, end_buf = end_buf, pos_buf
        pos = v
        died = alive & (elapsed >= horizon)
        if np.any(died):
            alive &= ~died
            n_dead += int(died.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                survivors = pos[alive]
                pos = pos_buf[: idx.size]
                pos[:] = survivors
                elapsed = elapsed[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
        if prof is not None:
            prof.lap("compaction")

    times = np.where(best_time == never, CENSORED, best_time)
    if track:
        sampler.flush_jump_accounting()
        _record_engine_sample(
            "multi_target", n_walks, steps_simulated, time.perf_counter() - started
        )
    if prof is not None:
        prof.finish("multi_target")
    return ForagingResult(
        targets=target_array,
        discovery_times=times,
        discoverer=best_walk,
        horizon=horizon,
    )


def scatter_poisson_field(
    density: float,
    radius: int,
    rng: SeedLike = None,
    exclude_origin: bool = True,
) -> np.ndarray:
    """Scatter items uniformly at random over the ball ``B_radius(0)``.

    The classical Levy-foraging setting [38] assumes sparse, uniformly
    distributed targets; this helper produces such a field with expected
    ``density * |B_radius|`` items (each ball node included independently
    -- a Bernoulli field, the lattice analogue of a Poisson process).
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if radius < 1:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = as_generator(rng)
    coords = np.arange(-radius, radius + 1)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    inside = np.abs(xs) + np.abs(ys) <= radius
    if exclude_origin:
        inside &= ~((xs == 0) & (ys == 0))
    candidates = np.stack([xs[inside], ys[inside]], axis=1)
    keep = rng.random(candidates.shape[0]) < density
    return candidates[keep].astype(np.int64)
