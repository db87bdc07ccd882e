"""Vectorized Monte-Carlo engines for hitting times.

These engines simulate thousands of independent walks simultaneously and
are *exact*: they produce hitting times with precisely the law of the
object-level processes in :mod:`repro.walks`, but at a cost of O(1) work
per jump phase instead of O(d) work per phase.

The key trick (derived and verified in
:mod:`repro.lattice.direct_path`) is that a Levy walk jumping from ``u``
to ``v`` can visit a target ``w`` only while crossing the ring
``R_m(u)`` with ``m = ||w - u||_1``, it crosses that ring exactly once,
and the node it occupies there has an explicitly samplable marginal
("nearest node to the segment point, fair coin on ties").  So per phase
the engine samples the distance, the endpoint, and -- only if the target
is within reach -- one ring-marginal node, and never materializes paths.

Two detection semantics are supported (Section 2 discusses the contrast
with the "intermittent" model of [18]):

* ``detect_during_jump=True`` (the paper's Levy *walk*): the target is
  found the moment the walk steps on it, mid-jump included;
* ``detect_during_jump=False`` (intermittent / Levy-flight semantics):
  only jump endpoints are inspected.
"""

from __future__ import annotations

import time
from typing import Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.ring import (
    flight_hitting_times_ring,
    ring_rounds,
    walk_hitting_times_ring,
)
from repro.engine.samplers import BatchJumpSampler, HomogeneousSampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]


def _record_engine_sample(engine: str, n: int, steps: int, seconds: float) -> None:
    """Metrics for one engine invocation (telemetry enabled only)."""
    metrics = get_recorder().metrics
    metrics.counter(f"engine.{engine}.samples").add(n)
    metrics.counter("engine.steps_simulated").add(steps)
    if seconds > 0:
        metrics.gauge("engine.samples_per_sec").set(round(n / seconds, 3))
        metrics.gauge("engine.steps_per_sec").set(round(steps / seconds, 3))


def _as_sampler(source: Union[BatchJumpSampler, JumpDistribution]) -> BatchJumpSampler:
    if isinstance(source, BatchJumpSampler):
        return source
    return HomogeneousSampler(source)


def walk_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Hitting times of ``n`` independent Levy walks for one target.

    Each walk starts at ``start`` at time 0 and runs until it hits
    ``target`` or its elapsed *steps* (not jumps) exceed ``horizon``.
    Time is counted exactly as in Definition 3.4: a phase with distance
    ``d >= 1`` lasts ``d`` steps, a phase with ``d = 0`` lasts 1 step, and
    a mid-phase hit at ring ``m`` is recorded at ``t_phase_start + m``.

    Parameters
    ----------
    jumps:
        Jump-length law: a :class:`JumpDistribution` shared by all walks,
        or a :class:`BatchJumpSampler` (e.g. per-walk exponents).
    target:
        The target node ``u*``.
    horizon:
        Censoring step; hits at exactly ``horizon`` count.
    n:
        Number of independent walks.
    rng:
        Seed or generator.
    start:
        Common start node (the origin in the paper).
    detect_during_jump:
        If False, only phase endpoints are checked (intermittent model).

    Returns
    -------
    HittingTimeSample
        Censored sample of the ``n`` hitting times.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        # Definition 3.7: the hitting time is the first step t >= 0 with
        # J_t = u*, so starting on the target means tau = 0.
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
    rounds = ring_rounds()
    if rounds > 1:
        # Interleaved walker-ring mode (see repro.engine.ring): staged
        # blocks of `rounds` rounds, statistically equivalent to the
        # loop below but with a different RNG consumption order.
        return walk_hitting_times_ring(
            sampler,
            (tx, ty),
            horizon=horizon,
            n=n_walks,
            rng=rng,
            start=(int(start[0]), int(start[1])),
            detect_during_jump=detect_during_jump,
            rounds=rounds,
        )

    # Compacted state: row j of `pos`/`elapsed` belongs to walk `idx[j]`.
    # Finished walks are dropped lazily (only when >= 1/8 of rows died),
    # so the common all-survive round costs no gather/scatter.
    idx = np.arange(n_walks)
    # Preallocated round buffers: positions ping-pong between two (n, 2)
    # blocks (current round reads `pos`, writes endpoints into the other
    # block), jump distances/ring offsets write into fixed buffers, and
    # the round's uniforms -- one per walk for the fused lazy+distance
    # draw, one for the ring index -- come from a single `rng.random`
    # call into a flat slice.  Compaction shrinks the live views.
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
    # Telemetry: one flag check per call when disabled; step accounting
    # only accumulates when a live recorder is installed.  `tick` is the
    # per-round liveness pulse -- a no-op everywhere except inside pool
    # workers, where it touches the chunk's heartbeat file.  `prof` is
    # the phase accumulator (or None): each round is tiled into laps
    # charged to the named hot-loop stages, at the cost of one `is None`
    # test per stage per *round* when profiling is off.
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
        u = u_buf[: 2 * k]
        rng.random(out=u)
        if prof is not None:
            prof.lap("rng")
        d = sampler.sample(rng, idx, u=u[:k], out=d_buf[:k])
        d[~alive] = 0  # dead rows are carried until the next compaction
        if track:
            steps_simulated += int(np.maximum(d, 1)[alive].sum())
        if prof is not None:
            prof.lap("cdf_lookup")
        off = sample_ring_offsets(d, rng, u=u[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        if prof is not None:
            prof.lap("state_update")
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
            "walk", n_walks, steps_simulated, time.perf_counter() - started
        )
    if prof is not None:
        prof.finish("walk")
    return HittingTimeSample(times=times, horizon=horizon)


def flight_hitting_times(
    jumps: Union[BatchJumpSampler, JumpDistribution],
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
    start: IntPoint = (0, 0),
) -> HittingTimeSample:
    """Hitting times (in *jumps*) of independent Levy flights.

    A flight's time unit is one jump (Definition 3.3): ``horizon`` and
    the returned times count jumps, and a flight only detects the target
    when a jump lands on it.  Used for the flight-level lemmas (4.5,
    4.13) and as the intermittent-detection comparator.
    """
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_flights = int(n)
    horizon_jumps = int(horizon)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_flights, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(
            times=np.zeros(n_flights, dtype=np.int64), horizon=horizon_jumps
        )
    rounds = ring_rounds()
    if rounds > 1:
        return flight_hitting_times_ring(
            sampler,
            (tx, ty),
            horizon=horizon_jumps,
            n=n_flights,
            rng=rng,
            start=(int(start[0]), int(start[1])),
            rounds=rounds,
        )
    # Same compacted state machine and preallocated round buffers as
    # `walk_hitting_times`: dead rows jump with d = 0 (so their position
    # is frozen) until >= 1/8 of rows died, then the live views shrink.
    idx = np.arange(n_flights)
    pos = np.empty((n_flights, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    d_buf = np.empty(n_flights, dtype=np.int64)
    off_buf = np.empty((n_flights, 2), dtype=np.int64)
    u_buf = np.empty(2 * n_flights, dtype=np.float64)
    alive = np.ones(n_flights, dtype=bool)
    n_dead = 0
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    jumps_simulated = 0
    started = time.perf_counter() if track else 0.0
    for jump_index in range(1, horizon_jumps + 1):
        if not idx.size:
            break
        tick()
        if prof is not None:
            prof.start()
        k = idx.size
        u = u_buf[: 2 * k]
        rng.random(out=u)
        if prof is not None:
            prof.lap("rng")
        d = sampler.sample(rng, idx, u=u[:k], out=d_buf[:k])
        d[~alive] = 0  # dead rows are carried until the next compaction
        if track:
            jumps_simulated += int(alive.sum())
        if prof is not None:
            prof.lap("cdf_lookup")
        off = sample_ring_offsets(d, rng, u=u[k:], out=off_buf[:k])
        pos += off
        if prof is not None:
            prof.lap("state_update")
        # A dead row sits on the target with d = 0; mask by `alive` so it
        # is not re-detected.
        hit = alive & (pos[:, 0] == tx) & (pos[:, 1] == ty)
        if prof is not None:
            prof.lap("target_check")
        if np.any(hit):
            times[idx[hit]] = jump_index
            alive &= ~hit
            n_dead += int(hit.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                pos = pos[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
        if prof is not None:
            prof.lap("compaction")
    if track:
        sampler.flush_jump_accounting()
        _record_engine_sample(
            "flight", n_flights, jumps_simulated, time.perf_counter() - started
        )
    if prof is not None:
        prof.finish("flight")
    return HittingTimeSample(times=times, horizon=horizon_jumps)
