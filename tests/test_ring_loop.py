"""Staged walker-ring blocks: determinism, width invariance, exact law.

Every engine advances its live walks in blocks of ``R`` rounds, with
``R = block_rounds(k)`` a pure function of the live width ``k``: a narrow
call (a 250-walk pool chunk) stages deep "ring" blocks, a wide call
(20 000 walks) runs the legacy round-by-round block (``R = 1``) until
compaction narrows it.  Staging orders the generator's draws by block,
so the two regimes give different samples for one seed; the contract is
equality in *law*, checked here without any knob: many pooled narrow
calls must pass a chi-square homogeneity gate against one wide call, and
a capped flight run entirely in one block must match its exact law.
"""

import numpy as np
import pytest
from scipy import stats

from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.ball_targets import ball_hitting_times
from repro.engine.exact_occupation import flight_hitting_probability_exact
from repro.engine.results import CENSORED
from repro.engine.vectorized import (
    BLOCK,
    R_MAX,
    _LiveWalks,
    block_rounds,
    flight_hitting_times,
    walk_hitting_times,
)
from repro.runner import HittingTimeTask, Runner

LAW = ZetaJumpDistribution(2.5)
TARGET = (5, 3)
HORIZON = 200
N = 4_000
NARROW, N_NARROW, WIDE = 250, 80, 20_000


def _walk(seed, n=N, **kw):
    return walk_hitting_times(
        LAW, TARGET, horizon=HORIZON, n=n, rng=np.random.default_rng(seed), **kw
    )


def _narrow_and_wide(engine, seed):
    """``N_NARROW`` pooled narrow calls (deep blocks) and one wide call."""
    narrow = np.concatenate(
        [engine(NARROW, np.random.default_rng([seed, i])).times for i in range(N_NARROW)]
    )
    return narrow, engine(WIDE, np.random.default_rng(seed + 1)).times


# ------------------------------------------------------------------ depth rule


def test_block_rounds_is_deep_when_narrow_and_one_when_wide():
    assert block_rounds(NARROW) == R_MAX
    assert block_rounds(WIDE) == 1
    widths = np.arange(1, 2 * BLOCK)
    depths = np.array([block_rounds(k) for k in widths])
    assert np.all(np.diff(depths[depths > 1]) <= 0)
    assert np.all(depths * widths <= np.maximum(widths, BLOCK))
    assert depths.max() == R_MAX and set(depths[widths > BLOCK]) == {1}


# -------------------------------------------------------------- determinism


def test_ring_walk_is_deterministic_per_seed():
    for n in (NARROW, N):
        np.testing.assert_array_equal(_walk(7, n=n).times, _walk(7, n=n).times)


def test_start_on_target_short_circuits_before_delegation():
    # tau = 0 for every walk, before any block is drawn.
    for n in (NARROW, N):
        assert np.all(_walk(7, n=n, start=TARGET).times == 0)


def test_pooled_runner_matches_in_process_at_narrow_chunks():
    task = HittingTimeTask(jumps=LAW, target=TARGET, horizon=HORIZON)
    serial = Runner(n_chunks=4, workers=0).run(task, 4 * NARROW, 5).payload
    pooled = Runner(n_chunks=4, workers=2).run(task, 4 * NARROW, 5).payload
    np.testing.assert_array_equal(serial.times, pooled.times)


# ------------------------------------------------------------ law equivalence


def _chi2_homogeneity(a: np.ndarray, b: np.ndarray, edges) -> float:
    """p-value of the two-sample chi-square homogeneity test on ``edges``."""
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    keep = (ca + cb) >= 10  # merge ultra-sparse cells away
    table = np.vstack([ca[keep], cb[keep]])
    return float(stats.chi2_contingency(table).pvalue)


def _edges():
    # Geometric time bins over [1, horizon] plus a censored-mass cell.
    bins = np.unique(np.geomspace(1, HORIZON + 1, 12).astype(int))
    return np.concatenate([[CENSORED - 0.5], bins.astype(float)])


@pytest.mark.parametrize("detect", [True, False])
def test_walk_ring_matches_legacy_in_law(detect):
    def walks(n, rng):
        return walk_hitting_times(
            LAW, TARGET, horizon=HORIZON, n=n, rng=rng, detect_during_jump=detect
        )

    narrow, wide = _narrow_and_wide(walks, 11)
    assert _chi2_homogeneity(narrow, wide, _edges()) > 1e-3


def test_flight_ring_matches_legacy_in_law():
    def flights(n, rng):
        return flight_hitting_times(LAW, TARGET, horizon=60, n=n, rng=rng)

    narrow, wide = _narrow_and_wide(flights, 21)
    edges = np.concatenate([[CENSORED - 0.5], np.arange(1, 62, 6, dtype=float)])
    assert _chi2_homogeneity(narrow, wide, edges) > 1e-3


@pytest.mark.parametrize("detect", [True, False])
def test_ball_ring_matches_legacy_in_law(detect):
    def balls(n, rng):
        return ball_hitting_times(
            LAW, (9, 6), radius=2, horizon=HORIZON, n=n, rng=rng,
            detect_during_jump=detect,
        )

    narrow, wide = _narrow_and_wide(balls, 31)
    assert _chi2_homogeneity(narrow, wide, _edges()) > 1e-3


def test_ring_hit_rate_tracks_legacy():
    narrow, wide = _narrow_and_wide(lambda n, rng: _walk(rng, n=n), 41)
    p_narrow = np.mean(narrow != CENSORED)
    p_wide = np.mean(wide != CENSORED)
    # Two-proportion z-gate, generous: 5 sigma of the pooled std error.
    pooled = (p_narrow + p_wide) / 2
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / narrow.size + 1 / wide.size))
    assert abs(p_narrow - p_wide) < 5 * sigma + 1e-9


def _within_binomial(hits: int, trials: int, p: float, sigmas: float = 5.0) -> bool:
    return abs(hits / trials - p) <= sigmas * np.sqrt(p * (1 - p) / trials) + 1e-12


def test_capped_flight_in_one_block_matches_exact_law():
    # 256 flights stage all 32 jumps in a single block.
    law = ZetaJumpDistribution(2.5, cap=8)
    target, jumps, n = (2, 1), 32, 256
    assert block_rounds(n) >= jumps
    exact = flight_hitting_probability_exact(law, target, jumps)
    times = np.concatenate(
        [
            flight_hitting_times(
                law, target, horizon=jumps, n=n, rng=np.random.default_rng([3, i])
            ).times
            for i in range(40)
        ]
    )
    for j in range(1, jumps + 1):
        hits = int(np.count_nonzero((times != CENSORED) & (times <= j)))
        assert _within_binomial(hits, times.size, exact[j]), j


# ----------------------------------------------------------------- block edges


def test_block_edges_keep_first_hit_and_discard_late_ones():
    # Target next to the start, horizon 2, one deep block per call.  With
    # lazy probability 1/2 and the 4-fold symmetry of the ring-1 marginal,
    # P(tau = 1) = 1/2 * 1/4 (hit, then censored in the same block) and
    # P(tau = 2) = 1/2 * 1/2 * 1/4 (a hit at exactly the horizon); every
    # later crossing of the target follows censoring and must not count.
    times = np.concatenate(
        [
            walk_hitting_times(
                LAW, (1, 0), horizon=2, n=NARROW, rng=np.random.default_rng([6, i])
            ).times
            for i in range(N_NARROW)
        ]
    )
    assert set(np.unique(times)) <= {CENSORED, 1, 2}
    assert _within_binomial(int(np.sum(times == 1)), times.size, 1 / 8)
    assert _within_binomial(int(np.sum(times == 2)), times.size, 1 / 16)


def test_settle_records_first_success_and_retires_rows():
    walks = _LiveWalks(4, (0, 0))
    times = np.full(4, CENSORED, dtype=np.int64)
    success = np.array(
        [
            [True, False, False, False],
            [True, False, False, False],  # a second, later success: ignored
            [False, True, False, False],
        ]
    )
    hit_time = np.array([[3, 0, 0, 0], [7, 0, 0, 0], [0, 10, 0, 0]])
    censored = np.array([True, True, True, False])
    walks.settle(times, success, hit_time, censored)
    assert times.tolist() == [3, 10, CENSORED, CENSORED]
    # Three of four rows died (>= 1/8): compacted down to the survivor.
    assert walks.idx.tolist() == [3] and walks.alive.tolist() == [True]
