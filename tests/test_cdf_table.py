"""Tests for the cached inverse-CDF jump tables (``repro.distributions.cdf_table``).

The table path must be *statistically* equivalent to the legacy samplers
(``rejection_conditional_zipf`` / ``bisection_conditional_zipf``) -- the
seed-to-sample mapping changed once, documented in docs/performance.md,
but the law did not.  These tests pin the law (chi-square on the head of
the PMF, exact tail handling past the table), the per-walk heterogeneous
bulk path, and the process-global cache (hit/miss counters, bounded
size, cross-process reuse through a pooled Runner run).
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.distributions import cdf_table
from repro.distributions.cdf_table import (
    MAX_TABLE_ENTRIES,
    JumpCdfTable,
    cache_stats,
    clear_cache,
    get_table,
    legacy_sampling,
    required_length,
    set_cache_limit,
)
from repro.distributions.zeta import ZetaJumpDistribution
from repro.distributions.zipf_sampler import (
    bisection_conditional_zipf,
    rejection_conditional_zipf,
    rejection_conditional_zipf_tail,
)
from repro.engine.samplers import HeterogeneousZetaSampler
from repro.runner import HittingTimeTask, Job, Runner

ALPHA = 2.5
N = 200_000


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test sees an empty process-global table cache."""
    clear_cache()
    set_cache_limit(cdf_table.CACHE_MAX_TABLES)
    yield
    clear_cache()
    set_cache_limit(cdf_table.CACHE_MAX_TABLES)


def _head_chi_square(observed, expected_pmf, n, n_bins=12):
    """Chi-square statistic of ``observed`` draws against ``expected_pmf``."""
    counts = np.bincount(observed, minlength=n_bins + 1)[1 : n_bins + 1]
    expected = expected_pmf[:n_bins] * n
    # Lump everything past the head into one tail bin.
    tail_obs = n - counts.sum()
    tail_exp = n - expected.sum()
    obs = np.append(counts, tail_obs)
    exp = np.append(expected, tail_exp)
    return float(((obs - exp) ** 2 / exp).sum()), n_bins  # df = bins


def _conditional_zipf_pmf(alpha, k):
    from scipy.special import zeta as hurwitz

    i = np.arange(1, k + 1, dtype=np.float64)
    return i ** -alpha / hurwitz(alpha, 1.0)


# ------------------------------------------------------------------ the law


def test_table_matches_rejection_sampler_law():
    """Table draws and rejection draws agree with the conditional Zipf PMF."""
    table = get_table(ALPHA, lazy_probability=0.0)
    assert table is not None
    rng = np.random.default_rng(1)
    via_table = table.sample(rng, N)
    via_rejection = rejection_conditional_zipf(ALPHA, np.random.default_rng(2), N)
    pmf = _conditional_zipf_pmf(ALPHA, 12)
    for draws in (via_table, via_rejection):
        stat, df = _head_chi_square(np.minimum(draws, 13), pmf, N)
        assert stat < sps.chi2.ppf(0.999, df)
    # Matching clipped means across the two samplers (the raw mean has
    # infinite variance for alpha <= 3).
    assert np.isclose(
        np.minimum(via_table, 50).mean(), np.minimum(via_rejection, 50).mean(),
        rtol=0.02,
    )


def test_table_matches_bisection_sampler_law():
    """Table draws agree with inverse-CDF bisection draws of the same law."""
    table = get_table(ALPHA, lazy_probability=0.0)
    via_table = table.sample(np.random.default_rng(3), N)
    via_bisection = bisection_conditional_zipf(ALPHA, np.random.default_rng(4), N)
    pmf = _conditional_zipf_pmf(ALPHA, 12)
    stat, df = _head_chi_square(np.minimum(via_bisection, 13), pmf, N)
    assert stat < sps.chi2.ppf(0.999, df)
    assert np.isclose(
        np.minimum(via_table, 50).mean(), np.minimum(via_bisection, 50).mean(),
        rtol=0.02,
    )


def test_capped_table_matches_legacy_capped_law():
    """A capped table reproduces the truncated law the bisection path draws."""
    cap = 64
    table = get_table(ALPHA, lazy_probability=0.0, cap=cap)
    assert table is not None and table.length == cap
    via_table = table.sample(np.random.default_rng(3), N)
    assert via_table.max() <= cap and via_table.min() >= 1
    law = ZetaJumpDistribution(ALPHA, lazy_probability=0.0, cap=cap)
    with legacy_sampling():
        via_bisection = law.sample(np.random.default_rng(4), N)
    i = np.arange(1, cap + 1, dtype=np.float64)
    pmf = i ** -ALPHA / (i ** -ALPHA).sum()
    for draws in (via_table, via_bisection):
        stat, df = _head_chi_square(draws, pmf, N, n_bins=12)
        assert stat < sps.chi2.ppf(0.999, df)


def test_lazy_split_and_fused_uniforms():
    """P(d=0) == lazy_probability, and caller-supplied uniforms are honoured."""
    table = get_table(ALPHA, lazy_probability=0.5)
    rng = np.random.default_rng(5)
    draws = table.sample(rng, N)
    p_zero = (draws == 0).mean()
    assert abs(p_zero - 0.5) < 3 * np.sqrt(0.25 / N) * 2
    # A caller-supplied u below the lazy split is a forced rest step; just
    # above it is a forced jump of 1 (the CDF's first bucket).
    u = np.array([0.25, 0.5 + 1e-12])
    out = np.empty(2, dtype=np.int64)
    result = table.sample(np.random.default_rng(0), 2, u=u, out=out)
    assert result is out
    assert out[0] == 0 and out[1] == 1


def test_tail_fallback_is_exact():
    """Draws past the table land in the tail with the law's tail mass."""
    # A deliberately short table forces the fallback often enough to test.
    table = JumpCdfTable(ALPHA, lazy_probability=0.0, cap=None, length=32)
    rng = np.random.default_rng(6)
    draws = table.sample(rng, N)
    in_tail = draws > 32
    from scipy.special import zeta as hurwitz

    tail_mass = hurwitz(ALPHA, 33.0) / hurwitz(ALPHA, 1.0)
    assert abs(in_tail.mean() - tail_mass) < 5 * np.sqrt(tail_mass / N)
    # Conditional on the tail, the law is Zipf restricted to > 32: compare
    # the first tail bucket's conditional frequency.
    tail_draws = draws[in_tail]
    p33 = (33.0 ** -ALPHA / hurwitz(ALPHA, 1.0)) / tail_mass
    assert abs((tail_draws == 33).mean() - p33) < 0.05
    # The production tables keep the uncovered mass below TAIL_MASS.
    full = get_table(ALPHA, lazy_probability=0.0)
    assert 1.0 - full.top <= cdf_table.TAIL_MASS


def test_required_length_exact_and_bounded():
    assert required_length(2.5) == get_table(2.5, 0.0).length
    # alpha = 2.0 fits (barely); alpha close to 1 does not.
    assert required_length(2.0) <= MAX_TABLE_ENTRIES
    assert required_length(1.2) == MAX_TABLE_ENTRIES + 1
    assert get_table(1.2) is None  # untabulated -> legacy sampling


# ------------------------------------------------ breakpoint/guide lookup


def _searchsorted_draw(table, u, rng):
    """The plain inversion the indexed lookup must reproduce bit for bit."""
    p = table.lazy_probability
    out = np.zeros(u.shape[0], dtype=np.int64)
    moving = u >= p if p > 0.0 else slice(None)
    v = (u[moving] - p) / (1.0 - p) if p > 0.0 else u
    drawn = table.cdf.searchsorted(v, side="left") + 1
    tail = drawn > table.length
    if np.any(tail):
        drawn[tail] = rejection_conditional_zipf_tail(
            table.alpha, table.length, rng, int(tail.sum())
        )
    out[moving] = drawn
    return out


def _edge_uniforms(table):
    """Every breakpoint, every bucket edge, their float neighbours, 0 and
    the largest float below 1."""
    breaks = table.breaks[np.isfinite(table.breaks)]
    edges = np.arange(table.buckets) / table.buckets
    points = np.concatenate([breaks, edges, [0.0, np.nextafter(1.0, 0.0)]])
    points = np.concatenate(
        [points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)]
    )
    return points[(points >= 0.0) & (points < 1.0)]


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.1234567])
@pytest.mark.parametrize(
    "alpha, cap", [(2.05, None), (2.2, None), (3.0, None), (2.5, 8), (2.5, 100)]
)
def test_indexed_draw_is_bit_identical_at_every_edge(alpha, cap, p):
    length = cap if cap is not None else required_length(alpha)
    table = JumpCdfTable(alpha, p, cap, length)
    assert table.buckets >= length + 1
    assert table.buckets & (table.buckets - 1) == 0
    u = _edge_uniforms(table)
    got = table.sample(np.random.default_rng(11), u.shape[0], u=u)
    want = _searchsorted_draw(table, u, np.random.default_rng(11))
    np.testing.assert_array_equal(got, want)


def test_indexed_draw_pins_the_tail_rng_order():
    """A short table sends many draws to the tail; the fallback consumes
    the generator in row order, exactly like the plain inversion."""
    table = JumpCdfTable(2.5, 0.5, None, 50)
    u = np.random.default_rng(12).random(200_000)
    got = table.sample(np.random.default_rng(13), u.shape[0], u=u.copy())
    want = _searchsorted_draw(table, u, np.random.default_rng(13))
    assert (want > 50).sum() > 100
    np.testing.assert_array_equal(got, want)
    # Without caller uniforms, the draw's own u comes first.
    rng = np.random.default_rng(14)
    fresh = np.random.default_rng(14)
    np.testing.assert_array_equal(
        table.sample(rng, 20_000), _searchsorted_draw(table, fresh.random(20_000), fresh)
    )


def test_nbytes_counts_cdf_breakpoints_and_guide():
    table = get_table(2.2, 0.5)
    assert table.guide.dtype == np.int32
    assert table.nbytes == table.cdf.nbytes + table.breaks.nbytes + table.guide.nbytes
    assert cache_stats()["bytes"] == table.nbytes


# ------------------------------------------------- heterogeneous exponents


def test_heterogeneous_sampler_law_per_walk():
    """The bulk-CDF path gives each walk its own exponent's law."""
    n_walks = 4
    alphas = np.array([2.1, 2.5, 3.0, 3.5])
    sampler = HeterogeneousZetaSampler(alphas, lazy_probability=0.0)
    rng = np.random.default_rng(7)
    reps = 50_000
    walk_indices = np.repeat(np.arange(n_walks), reps)
    draws = sampler.sample(rng, walk_indices)
    for w, alpha in enumerate(alphas):
        mine = draws[walk_indices == w]
        pmf = _conditional_zipf_pmf(alpha, 12)
        stat, df = _head_chi_square(np.minimum(mine, 13), pmf, reps)
        assert stat < sps.chi2.ppf(0.999, df), f"alpha={alpha}"
    # The same sampler under legacy_sampling() draws the same law.  Raw
    # means are useless for alpha near 2 (infinite variance), so compare
    # clipped means where the estimator concentrates.
    with legacy_sampling():
        legacy = sampler.sample(np.random.default_rng(8), walk_indices)
    for w in range(n_walks):
        a = np.minimum(draws[walk_indices == w], 50).mean()
        b = np.minimum(legacy[walk_indices == w], 50).mean()
        assert np.isclose(a, b, rtol=0.05)


# ------------------------------------------------------------------- cache


def test_cache_hit_miss_counters():
    stats = cache_stats()
    assert stats["tables"] == 0 and stats["hits"] == 0
    get_table(2.5, 0.5)
    get_table(2.5, 0.5)
    get_table(2.7, 0.5)
    stats = cache_stats()
    assert stats["misses"] == 2  # 2.5 built once, 2.7 built once
    assert stats["hits"] == 1
    assert stats["tables"] == 2
    assert stats["entries"] > 0 and stats["bytes"] > 0


def test_cache_negative_results_are_cached():
    assert get_table(1.5) is None
    assert get_table(1.5) is None
    stats = cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_cache_is_bounded_with_evictions():
    set_cache_limit(2)
    get_table(2.3, 0.0, cap=16)
    get_table(2.4, 0.0, cap=16)
    get_table(2.6, 0.0, cap=16)
    stats = cache_stats()
    assert stats["tables"] == 2
    assert stats["evictions"] == 1
    # LRU: 2.3 was evicted, 2.4 and 2.6 still hit.
    get_table(2.6, 0.0, cap=16)
    assert cache_stats()["hits"] == 1
    get_table(2.3, 0.0, cap=16)  # rebuild
    assert cache_stats()["misses"] == 4


def test_legacy_sampling_context_disables_tables():
    assert get_table(2.5) is not None
    with legacy_sampling():
        assert get_table(2.5) is None
        assert not cdf_table.table_sampling_enabled()
    assert cdf_table.table_sampling_enabled()
    assert get_table(2.5) is not None


def test_zeta_distribution_agrees_with_legacy_law():
    """End-to-end: ZetaJumpDistribution via tables vs via legacy samplers."""
    law = ZetaJumpDistribution(ALPHA)
    fused = law.sample(np.random.default_rng(9), N)
    with legacy_sampling():
        legacy = law.sample(np.random.default_rng(10), N)
    clipped_f = np.minimum(fused, 50)
    clipped_l = np.minimum(legacy, 50)
    assert np.isclose((fused == 0).mean(), (legacy == 0).mean(), atol=0.01)
    assert np.isclose(clipped_f.mean(), clipped_l.mean(), rtol=0.03)


# ------------------------------------------- cross-process reuse via Runner


def test_pooled_runner_reuses_tables_and_stays_deterministic(tmp_path):
    """A pooled run (workers rebuild the table per process) is bit-identical
    to a serial run, and kill-free resume invariance is preserved."""
    task = HittingTimeTask(
        jumps=ZetaJumpDistribution(2.5), target=(5, 3), horizon=150
    )
    job = Job(task=task, n_total=400, seed=42, label="cdf")
    serial = Runner(n_chunks=4, workers=0).run_many([job])[0].payload
    pooled = Runner(n_chunks=4, workers=2).run_many([job])[0].payload
    np.testing.assert_array_equal(serial.times, pooled.times)
    # The parent process built (or will build) its own cached table; the
    # law used by workers matches it because the cache key is pure
    # (alpha, lazy_probability, cap).
    get_table(2.5, 0.5)
    assert cache_stats()["tables"] >= 1
