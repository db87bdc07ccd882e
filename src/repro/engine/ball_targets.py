"""Hitting times for *ball* targets (radius-D food patches, cf. [18]).

The paper's target is a single node; the intermittent-search model of
[18] (Section 2) instead places a target of arbitrary *diameter D* and
only lets the walk detect it at jump endpoints.  The combination matters:
footnote 3 of the paper notes that with unit targets or with non-
intermittent detection "all exponents alpha >= 2 (resp. <= 2) are optimal
as well" -- i.e. [18]'s uniqueness of the Cauchy exponent hinges on both
ingredients.  This engine provides the missing piece: exact hitting times
of the Manhattan ball ``B_radius(center)`` under both detection
semantics, so the EXT-DIAM experiment can measure how target size shifts
the exponent landscape.

Exact mid-jump detection for a ball: a phase from ``u`` to ``v`` (length
``d``) can enter ``B_r(w)`` only while crossing rings ``i`` of ``u`` with
``m - r <= i <= m + r`` (``m = ||w - u||_1``), because a node at ring
``i`` has distance at least ``|m - i|`` from ``w``.  Conditioned on
``(u, v)``, path positions at distinct rings are independent uniform
tie-breaks (see :mod:`repro.lattice.direct_path`), so sampling the <= 2r+1
relevant ring marginals jointly-independently and testing membership is
exact; the hit step is the *first* crossing ring inside the ball.
"""

from __future__ import annotations

import time
from typing import Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.ring import ball_hitting_times_ring, ring_rounds
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import _as_sampler, _record_engine_sample
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]


def ball_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    center: IntPoint,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Hitting times of the ball ``B_radius(center)`` for ``n`` walks.

    ``radius = 0`` recovers the point-target engine.  With
    ``detect_during_jump=False`` only phase endpoints are tested (the
    intermittent model of [18]).
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_walks = int(n)
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    start_distance = abs(cx - start[0]) + abs(cy - start[1])
    if start_distance <= radius:
        return HittingTimeSample(times=np.zeros(n_walks, np.int64), horizon=horizon)
    rounds = ring_rounds()
    if rounds > 1:
        return ball_hitting_times_ring(
            sampler,
            (cx, cy),
            radius=radius,
            horizon=horizon,
            n=n_walks,
            rng=rng,
            start=(int(start[0]), int(start[1])),
            detect_during_jump=detect_during_jump,
            rounds=rounds,
        )

    # Same compacted state machine and preallocated round buffers as
    # `walk_hitting_times`: row j belongs to walk idx[j], dead rows jump
    # with d = 0 until >= 1/8 of rows died, positions ping-pong between
    # two blocks, and each round draws all its uniforms in one call.
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
        m = np.abs(cx - pos[:, 0]) + np.abs(cy - pos[:, 1])
        if detect_during_jump:
            hit = np.zeros(k, dtype=bool)
            hit_step = np.zeros(k, dtype=np.int64)
            # Rings i in [max(m - radius, 1), min(d, m + radius)] can
            # touch the ball.  Every live row has m > radius (a walk
            # ending a phase inside the ball always detects it at ring d,
            # where the marginal is the endpoint itself), and dead rows
            # have d = 0, so their count comes out non-positive.
            low = np.maximum(m - radius, 1)
            high = np.minimum(d, m + radius)
            counts = np.maximum(high - low + 1, 0)
            rows = np.flatnonzero(counts)
            if rows.size:
                # Flatten all (row, ring) pairs into one direct-path
                # marginal call.  Marginals at distinct rings of one phase
                # are jointly independent, so sampling every candidate
                # ring at once and keeping each row's *first* in-ball ring
                # has exactly the law of nearest-first sequential testing.
                reps = counts[rows]
                total = int(reps.sum())
                row_rep = np.repeat(rows, reps)
                block_starts = np.cumsum(reps) - reps
                intra = np.arange(total) - np.repeat(block_starts, reps)
                ring_rep = low[row_rep] + intra
                nodes = sample_direct_path_nodes(
                    pos[row_rep], v[row_rep], ring_rep, rng
                )
                inside = (
                    np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)
                ) <= radius
                if np.any(inside):
                    where_inside = np.flatnonzero(inside)
                    # Rings ascend within each row's block, so the first
                    # occurrence per row is its first-entry ring.
                    first_rows, first_at = np.unique(
                        row_rep[where_inside], return_index=True
                    )
                    hit[first_rows] = True
                    hit_step[first_rows] = (
                        elapsed[first_rows] + ring_rep[where_inside[first_at]]
                    )
        else:
            end_distance = np.abs(v[:, 0] - cx) + np.abs(v[:, 1] - cy)
            # Dead rows sit where they died (possibly inside the ball
            # under a hit at step > horizon); mask them out.
            hit = alive & (end_distance <= radius)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        if prof is not None:
            prof.lap("target_check")
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
        if prof is not None:
            prof.lap("compaction")

    if track:
        sampler.flush_jump_accounting()
        _record_engine_sample(
            "ball", n_walks, steps_simulated, time.perf_counter() - started
        )
    if prof is not None:
        prof.finish("ball")
    return HittingTimeSample(times=times, horizon=horizon)
