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
from repro.engine.samplers import BatchJumpSampler
from repro.engine.vectorized import (
    _as_sampler,
    _LiveWalks,
    _record_engine_sample,
    block_rounds,
)
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
    walks = _LiveWalks(n_walks, start)
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    steps_simulated = 0
    started = time.perf_counter() if track else 0.0

    while walks.idx.size:
        tick()
        if prof is not None:
            prof.start()
        alive = walks.alive
        rounds = block_rounds(walks.idx.size)
        d, starts, ends = walks.advance(sampler, rng, sample_ring_offsets, rounds, prof)
        before, after = walks.clock(d)
        if track:
            steps_simulated += int(np.maximum(d, 1)[:, alive].sum())
        if prof is not None:
            prof.lap("state_update")
        if detect_during_jump:
            # One group per (round, row) phase, flattened.
            m = (np.abs(cx - starts[..., 0]) + np.abs(cy - starts[..., 1])).ravel()
            hit = np.zeros(d.size, dtype=bool)
            hit_step = np.zeros(d.size, dtype=np.int64)
            # Rings i in [max(m - radius, 1), min(d, m + radius)] can
            # touch the ball.  Dead rows have d = 0, so their count comes
            # out non-positive.  A phase can start inside the ball only
            # after an earlier entry in the same block (a first success,
            # or one past the horizon), so its extra hits never count.
            low = np.maximum(m - radius, 1)
            high = np.minimum(d.ravel(), m + radius)
            counts = np.maximum(high - low + 1, 0)
            groups = np.flatnonzero(counts)
            if groups.size:
                # Flatten all (group, ring) pairs into one direct-path
                # marginal call.  Marginals at distinct rings of one phase
                # are jointly independent, so sampling every candidate
                # ring at once and keeping each group's *first* in-ball
                # ring has exactly the law of nearest-first sequential
                # testing.
                reps = counts[groups]
                total = int(reps.sum())
                group_rep = np.repeat(groups, reps)
                block_starts = np.cumsum(reps) - reps
                intra = np.arange(total) - np.repeat(block_starts, reps)
                ring_rep = low[group_rep] + intra
                nodes = sample_direct_path_nodes(
                    starts.reshape(-1, 2)[group_rep],
                    ends.reshape(-1, 2)[group_rep],
                    ring_rep,
                    rng,
                )
                inside = (
                    np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)
                ) <= radius
                if np.any(inside):
                    where_inside = np.flatnonzero(inside)
                    # Rings ascend within each group's block, so the first
                    # occurrence per group is its first-entry ring.
                    first_groups, first_at = np.unique(
                        group_rep[where_inside], return_index=True
                    )
                    hit[first_groups] = True
                    hit_step[first_groups] = (
                        before.ravel()[first_groups] + ring_rep[where_inside[first_at]]
                    )
            hit = hit.reshape(d.shape)
            hit_step = hit_step.reshape(d.shape)
        else:
            end_distance = np.abs(ends[..., 0] - cx) + np.abs(ends[..., 1] - cy)
            # Dead rows sit where they died (possibly inside the ball
            # under a hit at step > horizon); mask them out.
            hit = alive & (end_distance <= radius)
            hit_step = after
        success = hit & (hit_step <= horizon)
        if prof is not None:
            prof.lap("target_check")
        walks.settle(times, success, hit_step, walks.elapsed >= horizon)
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
