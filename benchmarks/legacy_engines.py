"""Frozen earlier engine implementations, for paired benchmarks only.

Two generations are kept.  ``round_walk_hitting_times`` and
``round_ball_hitting_times`` are the round-by-round loops that the
staged-block engines replaced (one ``rng.random`` call, one CDF lookup
and one target test per round, preallocated buffers, lazy 1/8
compaction), minus telemetry: BENCH_engine.json pairs them with the
staged engines as ``*_legacy_mean_seconds`` / ``*_round_mean_seconds``.

``legacy_walk_hitting_times`` and ``legacy_ball_hitting_times`` are
verbatim simplifications of ``walk_hitting_times`` and
``ball_hitting_times`` as they existed before the fused-kernel layer
(cached inverse-CDF jump tables, batched per-round uniforms, flattened
ring testing): the walk engine calls the sampler and the ring sampler
with fresh per-round draws, and the ball engine tests candidate rings in
a Python ``for offset_index in range(2 * radius + 1)`` loop.  The paired
benchmark runs them inside
:func:`repro.distributions.cdf_table.legacy_sampling` so the jump draws
also take the original Devroye-rejection path.

They exist so BENCH_engine.json can record honest before/after timings
on the same machine in the same run -- do not use them for experiments;
they receive no fixes or features.
"""

from __future__ import annotations

import numpy as np

from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.vectorized import _as_sampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import as_generator


def round_walk_hitting_times(
    jumps,
    target,
    *,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """The round-by-round ``walk_hitting_times`` the staged engine replaced."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
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
    while idx.size:
        k = idx.size
        u = u_buf[: 2 * k]
        rng.random(out=u)
        d = sampler.sample(rng, idx, u=u[:k], out=d_buf[:k])
        d[~alive] = 0
        off = sample_ring_offsets(d, rng, u=u[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        m = np.abs(tx - pos[:, 0]) + np.abs(ty - pos[:, 1])
        if detect_during_jump:
            reach = alive & (m <= d)
            hit = np.zeros(k, dtype=bool)
            if np.any(reach):
                nodes = sample_direct_path_nodes(pos[reach], v[reach], m[reach], rng)
                hit[reach] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = elapsed + m
        else:
            hit = alive & (v[:, 0] == tx) & (v[:, 1] == ty)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        elapsed += np.maximum(d, 1)
        pos_buf, end_buf = end_buf, pos_buf
        pos = v
        died = alive & (success | (elapsed >= horizon))
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
    return HittingTimeSample(times=times, horizon=horizon)


def round_ball_hitting_times(
    jumps,
    center,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """The round-by-round ``ball_hitting_times`` the staged engine replaced."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if abs(cx - start[0]) + abs(cy - start[1]) <= radius:
        return HittingTimeSample(times=np.zeros(n_walks, np.int64), horizon=horizon)
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
    while idx.size:
        k = idx.size
        uniforms = u_buf[: 2 * k]
        rng.random(out=uniforms)
        d = sampler.sample(rng, idx, u=uniforms[:k], out=d_buf[:k])
        d[~alive] = 0
        off = sample_ring_offsets(d, rng, u=uniforms[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        m = np.abs(cx - pos[:, 0]) + np.abs(cy - pos[:, 1])
        if detect_during_jump:
            hit = np.zeros(k, dtype=bool)
            hit_step = np.zeros(k, dtype=np.int64)
            low = np.maximum(m - radius, 1)
            high = np.minimum(d, m + radius)
            counts = np.maximum(high - low + 1, 0)
            rows = np.flatnonzero(counts)
            if rows.size:
                reps = counts[rows]
                total = int(reps.sum())
                row_rep = np.repeat(rows, reps)
                block_starts = np.cumsum(reps) - reps
                intra = np.arange(total) - np.repeat(block_starts, reps)
                ring_rep = low[row_rep] + intra
                nodes = sample_direct_path_nodes(pos[row_rep], v[row_rep], ring_rep, rng)
                inside = (np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)) <= radius
                if np.any(inside):
                    where_inside = np.flatnonzero(inside)
                    first_rows, first_at = np.unique(row_rep[where_inside], return_index=True)
                    hit[first_rows] = True
                    hit_step[first_rows] = (
                        elapsed[first_rows] + ring_rep[where_inside[first_at]]
                    )
        else:
            end_distance = np.abs(v[:, 0] - cx) + np.abs(v[:, 1] - cy)
            hit = alive & (end_distance <= radius)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        elapsed += np.maximum(d, 1)
        pos_buf, end_buf = end_buf, pos_buf
        pos = v
        died = alive & (success | (elapsed >= horizon))
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
    return HittingTimeSample(times=times, horizon=horizon)


def legacy_walk_hitting_times(
    jumps,
    target,
    *,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Pre-fusing ``walk_hitting_times`` (lazy 1/8-compaction, per-round
    allocations, one generator call per consumer)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
    idx = np.arange(n_walks)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    n_dead = 0
    while idx.size:
        d = sampler.sample(rng, idx)
        d[~alive] = 0
        v = pos + sample_ring_offsets(d, rng)
        m = np.abs(tx - pos[:, 0]) + np.abs(ty - pos[:, 1])
        if detect_during_jump:
            reach = alive & (m <= d)
            hit = np.zeros(idx.shape[0], dtype=bool)
            if np.any(reach):
                nodes = sample_direct_path_nodes(pos[reach], v[reach], m[reach], rng)
                hit[reach] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = elapsed + m
        else:
            hit = alive & (v[:, 0] == tx) & (v[:, 1] == ty)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        elapsed += np.maximum(d, 1)
        pos = v
        died = alive & (success | (elapsed >= horizon))
        if np.any(died):
            alive &= ~died
            n_dead += int(died.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                pos = pos[alive]
                elapsed = elapsed[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
    return HittingTimeSample(times=times, horizon=horizon)


def legacy_ball_hitting_times(
    jumps,
    center,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Pre-fusing ``ball_hitting_times`` (gather/scatter ``active`` index,
    Python loop over the ``2 * radius + 1`` candidate rings)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    start_distance = abs(cx - start[0]) + abs(cy - start[1])
    if start_distance <= radius:
        return HittingTimeSample(times=np.zeros(n_walks, np.int64), horizon=horizon)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    active = np.arange(n_walks)
    while active.size:
        d = sampler.sample(rng, active)
        offsets = sample_ring_offsets(d, rng)
        u = pos[active]
        v = u + offsets
        m = np.abs(cx - u[:, 0]) + np.abs(cy - u[:, 1])
        if detect_during_jump:
            hit = np.zeros(active.shape[0], dtype=bool)
            hit_step = np.zeros(active.shape[0], dtype=np.int64)
            low = np.maximum(m - radius, 1)
            high = np.minimum(d, m + radius)
            reachable = low <= high
            if np.any(reachable):
                rows = np.flatnonzero(reachable)
                for offset_index in range(2 * radius + 1):
                    ring = low[rows] + offset_index
                    valid = ring <= high[rows]
                    test_rows = rows[valid & ~hit[rows]]
                    if test_rows.size == 0:
                        continue
                    nodes = sample_direct_path_nodes(
                        u[test_rows], v[test_rows], (low + offset_index)[test_rows], rng
                    )
                    inside = (
                        np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)
                    ) <= radius
                    newly = test_rows[inside]
                    hit[newly] = True
                    hit_step[newly] = elapsed[active[newly]] + (low + offset_index)[newly]
        else:
            end_distance = np.abs(v[:, 0] - cx) + np.abs(v[:, 1] - cy)
            hit = end_distance <= radius
            hit_step = elapsed[active] + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        times[active[success]] = hit_step[success]
        elapsed[active] += np.maximum(d, 1)
        pos[active] = v
        survivors = ~success & (elapsed[active] < horizon)
        active = active[survivors]
    return HittingTimeSample(times=times, horizon=horizon)
