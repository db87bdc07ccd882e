"""Interleaved walker-ring round loop (staged-phase block execution).

The legacy engine loops interleave all five hot-loop stages *per round*:
draw uniforms, look up the CDF table, update positions, test the target,
maybe compact.  Each stage touches the full live set once per round, so
the state machine ping-pongs between kernels with mixed control flow in
between -- ThunderRW's interleaved walker-ring design (SNIPPETS.md 3)
shows the throughput cost of exactly this shape, and its fix: stage the
work so *all* RNG draws happen back to back, then all table lookups,
then all state updates, across a ring of walker slots.

This module is that fix at block granularity: ``rounds`` consecutive
rounds of every live walk are simulated as one staged block --

1. one ``rng.random`` fill for the whole block (``2 * rounds * k``
   uniforms: fused lazy+distance draw and ring index per walk-round);
2. one batched CDF-table lookup (breakpoint/guide probe) for all
   ``rounds * k`` distances;
3. one ring-offset sampling + a ``cumsum`` over the round axis turning
   per-round offsets into per-round endpoints (the state update);
4. batched target detection over every ``(round, walk)`` pair;
5. one compaction per block instead of the 1-in-8 lazy scheme.

Walks that hit or get censored mid-block are simulated to the end of the
block; the resolution step then keeps each walk's *first* success not
preceded by censoring, which reproduces the sequential law exactly --
extra post-death rounds are discarded work, not bias, because a hitting
time depends only on the trajectory prefix up to the hit.  The wasted
rounds are bounded by ``rounds - 1`` per walk, amortized by block-width
kernels; ``rounds`` of 4-16 is the useful range (memory scales with
``rounds * live_walks``).

RNG-stream note: a block consumes the generator in a different *order*
than the round-by-round loop (bigger uniform batches, one direct-path
marginal call per block, tail fallbacks at block cadence), so for a
fixed seed the ring loop produces different -- statistically equivalent,
chi-square-verified in ``tests/test_ring_loop.py`` -- samples than the
legacy loop.  Determinism contracts within a mode are unchanged: fixed
seed + fixed ``ring_rounds`` is reproducible, and the Runner applies the
same ``ring_rounds`` at every worker count, so pooled runs stay
bit-identical to ``workers=0``.

The mode is off by default (``ring_rounds() == 0``); the Runner enables
it per run via :func:`set_ring_rounds` / :func:`ring_scope` (CLI:
``--ring-rounds``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.samplers import BatchJumpSampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]

#: Block depth used when a caller asks for ring mode without a depth.
DEFAULT_RING_ROUNDS = 8

_ROUNDS = 0


def ring_rounds() -> int:
    """The active block depth; 0/1 means the legacy round-by-round loop."""
    return _ROUNDS


def set_ring_rounds(rounds: int) -> int:
    """Set the block depth process-wide; returns the previous value."""
    global _ROUNDS
    rounds = int(rounds)
    if rounds < 0:
        raise ValueError(f"ring_rounds must be non-negative, got {rounds}")
    previous = _ROUNDS
    _ROUNDS = rounds
    return previous


@contextmanager
def ring_scope(rounds: int) -> Iterator[None]:
    """Enable the ring loop inside a ``with`` block (tests, Runner)."""
    previous = set_ring_rounds(rounds)
    try:
        yield
    finally:
        set_ring_rounds(previous)


def _record(engine: str, n: int, steps: int, seconds: float) -> None:
    from repro.engine.vectorized import _record_engine_sample

    _record_engine_sample(engine, n, steps, seconds)


def _block_geometry(
    sampler: BatchJumpSampler,
    rng: np.random.Generator,
    idx: np.ndarray,
    pos: np.ndarray,
    rounds: int,
    prof,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stages 1-3 shared by all engines: uniforms, distances, endpoints.

    Returns ``(d, step, starts, ends)``, each with a leading round axis:
    ``d``/``step`` are ``(rounds, k)``, ``starts``/``ends`` are
    ``(rounds, k, 2)`` with ``starts[0] == pos`` and
    ``starts[r] == ends[r - 1]``.
    """
    k = idx.size
    total = rounds * k
    u = np.empty(2 * total, dtype=np.float64)
    rng.random(out=u)
    if prof is not None:
        prof.lap("rng")
    tiled = np.tile(idx, rounds)
    d_flat = sampler.sample(rng, tiled, u=u[:total], out=np.empty(total, np.int64))
    d = d_flat.reshape(rounds, k)
    if prof is not None:
        prof.lap("cdf_lookup")
    off = sample_ring_offsets(
        d_flat, rng, u=u[total:], out=np.empty((total, 2), np.int64)
    )
    ends = np.cumsum(off.reshape(rounds, k, 2), axis=0)
    ends += pos[None, :, :]
    starts = np.empty_like(ends)
    starts[0] = pos
    starts[1:] = ends[:-1]
    step = np.maximum(d, 1)
    return d, step, starts, ends


def _resolve_first_valid(
    success: np.ndarray, hit_step: np.ndarray, elapsed_after: np.ndarray, horizon: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First success per column not preceded by censoring.

    ``success``/``hit_step``/``elapsed_after`` are ``(rounds, k)``.
    Returns ``(valid_cols, valid_times)``: the column indices whose first
    success at round ``r0`` happened before censoring (``elapsed_after``
    is nondecreasing over rounds, so "no earlier round was censored"
    reduces to ``elapsed_after[r0 - 1] < horizon``), and their times.
    """
    cols = np.flatnonzero(success.any(axis=0))
    if not cols.size:
        return cols, cols.astype(np.int64)
    r0 = success[:, cols].argmax(axis=0)
    ok = np.ones(cols.size, dtype=bool)
    has_prev = r0 > 0
    ok[has_prev] = elapsed_after[r0[has_prev] - 1, cols[has_prev]] < horizon
    return cols[ok], hit_step[r0[ok], cols[ok]]


def walk_hitting_times_ring(
    sampler: BatchJumpSampler,
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: np.random.Generator,
    start: IntPoint,
    detect_during_jump: bool,
    rounds: int,
) -> HittingTimeSample:
    """Ring-loop twin of :func:`repro.engine.vectorized.walk_hitting_times`.

    Arguments are pre-validated by the public engine (which also handles
    the start-on-target case before delegating here).
    """
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    idx = np.arange(n_walks)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
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
        d, step, starts, ends = _block_geometry(sampler, rng, idx, pos, rounds, prof)
        elapsed_after = np.cumsum(step, axis=0)
        elapsed_after += elapsed[None, :]
        if track:
            steps_simulated += int(step.sum())
        if prof is not None:
            prof.lap("state_update")
        if detect_during_jump:
            m = np.abs(tx - starts[..., 0]) + np.abs(ty - starts[..., 1])
            reach = m <= d
            hit = np.zeros(d.shape, dtype=bool)
            rr, cc = np.nonzero(reach)
            if rr.size:
                nodes = sample_direct_path_nodes(
                    starts[rr, cc], ends[rr, cc], m[rr, cc], rng
                )
                hit[rr, cc] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = (elapsed_after - step) + m
        else:
            hit = (ends[..., 0] == tx) & (ends[..., 1] == ty)
            hit_step = elapsed_after
        success = hit & (hit_step <= horizon)
        if prof is not None:
            prof.lap("target_check")
        valid, valid_times = _resolve_first_valid(
            success, hit_step, elapsed_after, horizon
        )
        times[idx[valid]] = valid_times
        dead = np.zeros(idx.size, dtype=bool)
        dead[valid] = True
        dead |= elapsed_after[-1] >= horizon
        keep = ~dead
        idx = idx[keep]
        pos = ends[-1][keep]
        elapsed = elapsed_after[-1][keep]
        if prof is not None:
            prof.lap("compaction")

    if track:
        sampler.flush_jump_accounting()
        _record("walk", n_walks, steps_simulated, time.perf_counter() - started)
    if prof is not None:
        prof.finish("walk")
    return HittingTimeSample(times=times, horizon=horizon)


def flight_hitting_times_ring(
    sampler: BatchJumpSampler,
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: np.random.Generator,
    start: IntPoint,
    rounds: int,
) -> HittingTimeSample:
    """Ring-loop twin of :func:`repro.engine.vectorized.flight_hitting_times`.

    The block depth is clipped to the remaining jump budget, so no round
    past the horizon is ever simulated and every in-block hit is valid
    (a flight is censored only by the jump count).
    """
    n_flights = int(n)
    horizon_jumps = int(horizon)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_flights, CENSORED, dtype=np.int64)
    idx = np.arange(n_flights)
    pos = np.empty((n_flights, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    jumps_simulated = 0
    jumps_done = 0
    started = time.perf_counter() if track else 0.0

    while idx.size and jumps_done < horizon_jumps:
        tick()
        if prof is not None:
            prof.start()
        r_eff = min(rounds, horizon_jumps - jumps_done)
        d, _step, _starts, ends = _block_geometry(sampler, rng, idx, pos, r_eff, prof)
        if track:
            jumps_simulated += int(d.size)
        if prof is not None:
            prof.lap("state_update")
        hit = (ends[..., 0] == tx) & (ends[..., 1] == ty)
        if prof is not None:
            prof.lap("target_check")
        cols = np.flatnonzero(hit.any(axis=0))
        if cols.size:
            r0 = hit[:, cols].argmax(axis=0)
            times[idx[cols]] = jumps_done + r0 + 1
        keep = np.ones(idx.size, dtype=bool)
        keep[cols] = False
        idx = idx[keep]
        pos = ends[-1][keep]
        jumps_done += r_eff
        if prof is not None:
            prof.lap("compaction")

    if track:
        sampler.flush_jump_accounting()
        _record("flight", n_flights, jumps_simulated, time.perf_counter() - started)
    if prof is not None:
        prof.finish("flight")
    return HittingTimeSample(times=times, horizon=horizon_jumps)


def ball_hitting_times_ring(
    sampler: BatchJumpSampler,
    center: IntPoint,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng: np.random.Generator,
    start: IntPoint,
    detect_during_jump: bool,
    rounds: int,
) -> HittingTimeSample:
    """Ring-loop twin of :func:`repro.engine.ball_targets.ball_hitting_times`.

    Mid-jump ball detection flattens every candidate ``(round, walk,
    ring)`` triple of the block into one direct-path marginal call; rings
    ascend within each ``(round, walk)`` group, so the first in-ball
    occurrence per group is its first-entry ring, exactly as in the
    per-round loop.
    """
    n_walks = int(n)
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    idx = np.arange(n_walks)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
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
        d, step, starts, ends = _block_geometry(sampler, rng, idx, pos, rounds, prof)
        elapsed_after = np.cumsum(step, axis=0)
        elapsed_after += elapsed[None, :]
        if track:
            steps_simulated += int(step.sum())
        if prof is not None:
            prof.lap("state_update")
        if detect_during_jump:
            m = np.abs(cx - starts[..., 0]) + np.abs(cy - starts[..., 1])
            # Candidate crossing rings per (round, walk): see the legacy
            # engine.  Post-death rounds can sit inside the ball (m <=
            # radius); their spurious "hits" are discarded by the
            # first-valid resolution, so no alive mask is needed here.
            low = np.maximum(m - radius, 1)
            high = np.minimum(d, m + radius)
            counts = np.maximum(high - low + 1, 0).ravel()
            hit = np.zeros(d.size, dtype=bool)
            hit_step = np.zeros(d.size, dtype=np.int64)
            groups = np.flatnonzero(counts)
            if groups.size:
                reps = counts[groups]
                total = int(reps.sum())
                group_rep = np.repeat(groups, reps)
                block_starts = np.cumsum(reps) - reps
                intra = np.arange(total) - np.repeat(block_starts, reps)
                ring_rep = low.ravel()[group_rep] + intra
                flat_starts = starts.reshape(-1, 2)
                flat_ends = ends.reshape(-1, 2)
                nodes = sample_direct_path_nodes(
                    flat_starts[group_rep], flat_ends[group_rep], ring_rep, rng
                )
                inside = (
                    np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)
                ) <= radius
                where_inside = np.flatnonzero(inside)
                if where_inside.size:
                    first_groups, first_at = np.unique(
                        group_rep[where_inside], return_index=True
                    )
                    hit[first_groups] = True
                    hit_step[first_groups] = (
                        elapsed_after - step
                    ).ravel()[first_groups] + ring_rep[where_inside[first_at]]
            hit = hit.reshape(d.shape)
            hit_step = hit_step.reshape(d.shape)
        else:
            end_distance = np.abs(ends[..., 0] - cx) + np.abs(ends[..., 1] - cy)
            hit = end_distance <= radius
            hit_step = elapsed_after
        success = hit & (hit_step <= horizon)
        if prof is not None:
            prof.lap("target_check")
        valid, valid_times = _resolve_first_valid(
            success, hit_step, elapsed_after, horizon
        )
        times[idx[valid]] = valid_times
        dead = np.zeros(idx.size, dtype=bool)
        dead[valid] = True
        dead |= elapsed_after[-1] >= horizon
        keep = ~dead
        idx = idx[keep]
        pos = ends[-1][keep]
        elapsed = elapsed_after[-1][keep]
        if prof is not None:
            prof.lap("compaction")

    if track:
        sampler.flush_jump_accounting()
        _record("ball", n_walks, steps_simulated, time.perf_counter() - started)
    if prof is not None:
        prof.finish("ball")
    return HittingTimeSample(times=times, horizon=horizon)
