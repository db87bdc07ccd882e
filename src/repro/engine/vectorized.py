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

Staged rounds
-------------
Every engine advances its live walks one *block* at a time, and a block
simulates ``R`` consecutive rounds of every live walk with one call per
stage: one ``rng.random`` fill for all ``2 R k`` uniforms, one batched
jump-length lookup, one ring-offset draw plus a ``cumsum`` over the
round axis for the endpoints, and one batched target test over every
``(round, walk)`` pair.  The depth is a pure function of the live width
``k`` (:func:`block_rounds`), recomputed at every block: narrow batches
(pool chunks, refine rounds) stage up to :data:`R_MAX` rounds, where a
round-by-round loop would pay numpy's per-call dispatch ~``R`` times
over; wide batches run one round per block, which is exactly the classic
round loop with its preallocated buffers and lazy compaction.

A walk that hits or is censored mid-block is still simulated to the end
of its block; only its *first* success counts, so the extra rounds are
discarded work, not bias (a hitting time depends only on the trajectory
prefix up to the hit, and no success can follow censoring because every
later hit step exceeds the horizon).  Staging orders the generator's
draws by block rather than by round, so the seed-to-sample mapping
depends on the widths a call passes through -- a pure function of the
seed and the call's arguments, hence still reproducible and identical in
pooled and in-process Runner execution.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.distributions.base import JumpDistribution
from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.samplers import BatchJumpSampler, HomogeneousSampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import SeedLike, as_generator
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]

#: Walk-rounds one staged block aims for: ``R = BLOCK // k``.
BLOCK = 16384
#: Deepest block; past it the discarded post-hit rounds outweigh the gain.
R_MAX = 32
#: Shallowest staged block: shallower ones lost to one round per block,
#: so ``BLOCK // k < R_MIN`` (``k > 3276``) runs round by round.
R_MIN = 5


def block_rounds(k: int) -> int:
    """Rounds per block for ``k`` live walks (1 = round by round)."""
    rounds = min(R_MAX, BLOCK // max(int(k), 1))
    return rounds if rounds >= R_MIN else 1


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


class _LiveWalks:
    """Compacted live-walk state of one engine call, advanced block by block.

    Row ``j`` of ``pos``/``elapsed``/``alive`` belongs to walk ``idx[j]``.
    Finished rows are dropped lazily (only once >= 1/8 of the rows died),
    so the common all-survive block costs no gather/scatter; until then a
    dead row jumps with ``d = 0`` and callers mask it with ``alive``.
    The uniform, distance and endpoint buffers are preallocated for the
    widest block the call can run; endpoints ping-pong between two
    buffers, because the next block's start is the last row of this one.
    """

    def __init__(self, n: int, start: IntPoint) -> None:
        self.idx = np.arange(n)
        self.pos = np.empty((n, 2), dtype=np.int64)
        self.pos[:, 0] = int(start[0])
        self.pos[:, 1] = int(start[1])
        self.elapsed = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        self.n_dead = 0
        rows = max(n, min(BLOCK, R_MAX * n))
        self._u = np.empty(2 * rows, dtype=np.float64)
        self._d = np.empty(rows, dtype=np.int64)
        self._ends = [np.empty((rows, 2), dtype=np.int64) for _ in range(2)]

    def advance(
        self,
        sampler: BatchJumpSampler,
        rng: np.random.Generator,
        ring_offsets: Callable,
        rounds: int,
        prof,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw one block: ``(d, starts, ends)`` with a leading round axis.

        ``d`` is ``(rounds, k)``; ``starts``/``ends`` are ``(rounds, k, 2)``
        with ``starts[0]`` the block's start and ``starts[r] == ends[r - 1]``.
        ``ring_offsets`` is the calling engine module's
        :func:`~repro.lattice.rings.sample_ring_offsets`.
        """
        idx = self.idx
        k = idx.size
        total = rounds * k
        u = self._u[: 2 * total]
        rng.random(out=u)
        if prof is not None:
            prof.lap("rng")
        rows = idx if rounds == 1 else np.tile(idx, rounds)
        d = sampler.sample(rng, rows, u=u[:total], out=self._d[:total]).reshape(rounds, k)
        if self.n_dead:
            np.multiply(d, self.alive, out=d)
        if prof is not None:
            prof.lap("cdf_lookup")
        buf = self._ends.pop(0)
        self._ends.append(buf)
        ends = ring_offsets(d.ravel(), rng, u=u[total:], out=buf[:total]).reshape(rounds, k, 2)
        if rounds > 1:
            np.cumsum(ends, axis=0, out=ends)
        ends += self.pos
        start = self.pos[None]
        starts = start if rounds == 1 else np.concatenate((start, ends[:-1]))
        self.pos = ends[-1]
        return d, starts, ends

    def clock(self, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(before, after)``: elapsed steps at each round's start and end.

        A phase of length ``d >= 1`` lasts ``d`` steps and a lazy phase 1
        step (Definition 3.4).  Advances ``elapsed`` to the block's end.
        """
        step = np.maximum(d, 1)
        if d.shape[0] == 1:
            before = self.elapsed[None]
            after = np.add(step, before, out=step)
        else:
            after = np.cumsum(step, axis=0)
            after += self.elapsed
            before = after - step
        self.elapsed = after[-1]
        return before, after

    def settle(
        self,
        times: np.ndarray,
        success: np.ndarray,
        hit_time: np.ndarray,
        censored: Optional[np.ndarray] = None,
    ) -> None:
        """Record each row's first success in the block and retire it.

        ``success``/``hit_time`` are ``(rounds, k)`` and ``success`` is
        already masked by ``alive``; ``censored`` marks rows past the
        horizon at the block's end, which retire without a time.
        """
        if success.shape[0] == 1:
            done = success[0]
            if np.any(done):
                times[self.idx[done]] = hit_time[0][done]
        else:
            cols = np.flatnonzero(success.any(axis=0))
            done = np.zeros(self.idx.size, dtype=bool)
            if cols.size:
                first = success[:, cols].argmax(axis=0)
                times[self.idx[cols]] = hit_time[first, cols]
                done[cols] = True
        died = self.alive & (done if censored is None else done | censored)
        if np.any(died):
            self.alive &= ~died
            self.n_dead += int(died.sum())
            if self.n_dead * 8 >= self.idx.size:
                keep = self.alive
                self.idx = self.idx[keep]
                self.pos = self.pos[keep]
                self.elapsed = self.elapsed[keep]
                self.alive = np.ones(self.idx.size, dtype=bool)
                self.n_dead = 0


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

    walks = _LiveWalks(n_walks, start)
    # Telemetry: one flag check per call when disabled; step accounting
    # only accumulates when a live recorder is installed.  `tick` is the
    # per-block liveness pulse -- a no-op everywhere except inside pool
    # workers, where it touches the chunk's heartbeat file.  `prof` is
    # the phase accumulator (or None): each block is tiled into laps
    # charged to the named hot-loop stages, at the cost of one `is None`
    # test per stage per *block* when profiling is off.
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
            m = np.abs(tx - starts[..., 0]) + np.abs(ty - starts[..., 1])
            reach = (m <= d) & alive
            hit = np.zeros(d.shape, dtype=bool)
            pairs = np.flatnonzero(reach)
            if pairs.size:
                nodes = sample_direct_path_nodes(
                    starts.reshape(-1, 2)[pairs],
                    ends.reshape(-1, 2)[pairs],
                    m.ravel()[pairs],
                    rng,
                )
                hit.ravel()[pairs] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = before + m
        else:
            hit = alive & (ends[..., 0] == tx) & (ends[..., 1] == ty)
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
    4.13) and as the intermittent-detection comparator.  Blocks are
    clipped to the remaining jump budget, so no jump past the horizon is
    ever drawn.
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
    # Same live-walk state as `walk_hitting_times`; a dead row jumps with
    # d = 0, so it sits on the target and is masked by `alive`.
    flights = _LiveWalks(n_flights, start)
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    jumps_simulated = 0
    jumps_done = 0
    started = time.perf_counter() if track else 0.0
    while flights.idx.size and jumps_done < horizon_jumps:
        tick()
        if prof is not None:
            prof.start()
        alive = flights.alive
        k = flights.idx.size
        rounds = min(block_rounds(k), horizon_jumps - jumps_done)
        _, _, ends = flights.advance(sampler, rng, sample_ring_offsets, rounds, prof)
        if track:
            jumps_simulated += rounds * int(alive.sum())
        if prof is not None:
            prof.lap("state_update")
        hit = alive & (ends[..., 0] == tx) & (ends[..., 1] == ty)
        jump_index = np.arange(jumps_done + 1, jumps_done + rounds + 1)
        if prof is not None:
            prof.lap("target_check")
        flights.settle(times, hit, np.broadcast_to(jump_index[:, None], (rounds, k)))
        jumps_done += rounds
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
