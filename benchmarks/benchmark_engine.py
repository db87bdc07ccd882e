"""Micro-benchmarks of the simulation engine's hot paths.

These measure raw throughput (proper pytest-benchmark timing loops, unlike
the one-shot experiment benchmarks): the exact Zipf sampler, the uniform
ring-destination sampler, the direct-path ring-marginal sampler, and the
end-to-end walk/flight hitting-time engines.

Each test persists its mean runtime into ``BENCH_engine.json`` at the repo
root (see benchmarks/bench_utils.py), so hot-path perf is diffable per
commit.

The walk and ball engines are additionally recorded as *paired* timings:
``*_fused_mean_seconds`` is the current fused-kernel engine (same
measurement as the headline ``*_mean_seconds`` key) and
``*_legacy_mean_seconds`` re-times the frozen pre-fusing implementations
(benchmarks/legacy_engines.py) under
:func:`repro.distributions.cdf_table.legacy_sampling` on the same
machine in the same run.  bench-history hard-gates the fused keys and
warns when fused is not comfortably ahead of legacy (docs/performance.md).

The staged-block engines are paired with the round-by-round loops they
replaced (frozen in benchmarks/legacy_engines.py, same table sampler):
``walk_engine_n{250,2000}_{fused,legacy}_mean_seconds`` and
``ball_engine_n500_{fused,legacy}_mean_seconds`` are gated like the
other fused keys, while ``walk_engine_n20000_{staged,round}_mean_seconds``
are plain warn-only keys, because at that width the staged engine runs
one round per block until compaction narrows the batch (~1.0x expected).

The jump draw itself is paired the same way:
``jump_draw_n{250,20000}_fused_mean_seconds`` times
:meth:`~repro.distributions.cdf_table.JumpCdfTable.sample` (breakpoint
and guide lookup) at alpha = 2.2 on one round's uniforms, and
``jump_draw_n{250,20000}_legacy_mean_seconds`` times the lazy-mask +
``searchsorted`` inversion it replaced, kept inline below.
"""

import numpy as np
import pytest

from bench_utils import record_bench
from legacy_engines import (
    legacy_ball_hitting_times,
    legacy_walk_hitting_times,
    round_ball_hitting_times,
    round_walk_hitting_times,
)
from repro.distributions.cdf_table import get_table, legacy_sampling
from repro.distributions.zeta import ZetaJumpDistribution
from repro.distributions.zipf_sampler import (
    rejection_conditional_zipf,
    rejection_conditional_zipf_tail,
)
from repro.engine.samplers import HeterogeneousZetaSampler
from repro.engine.vectorized import flight_hitting_times, walk_hitting_times
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets

_N = 100_000


def _persist(benchmark, name: str) -> None:
    """Record one test's mean seconds into the engine snapshot."""
    record_bench("engine", {f"{name}_mean_seconds": benchmark.stats.stats.mean})


def test_zipf_rejection_sampler(benchmark):
    rng = np.random.default_rng(0)
    alphas = np.full(_N, 2.5)
    benchmark(rejection_conditional_zipf, alphas, rng, _N)
    _persist(benchmark, "zipf_rejection_sampler")


def test_zipf_heterogeneous_sampler(benchmark):
    rng = np.random.default_rng(0)
    sampler = HeterogeneousZetaSampler(rng.uniform(2.0, 3.0, _N))
    indices = np.arange(_N)
    benchmark(sampler.sample, rng, indices)
    _persist(benchmark, "zipf_heterogeneous_sampler")


def test_zeta_distribution_sample(benchmark):
    rng = np.random.default_rng(0)
    law = ZetaJumpDistribution(2.5)
    benchmark(law.sample, rng, _N)
    _persist(benchmark, "zeta_distribution_sample")


def _searchsorted_jump_draw(table, rng, u, out):
    """The pre-index table draw: lazy mask, rescale, searchsorted, scatter."""
    out[:] = 0
    p = table.lazy_probability
    moving = u >= p
    v = (u[moving] - p) / (1.0 - p)
    drawn = table.cdf.searchsorted(v, side="left") + 1
    tail = drawn > table.length
    if np.any(tail):
        drawn[tail] = rejection_conditional_zipf_tail(
            table.alpha, table.length, rng, int(tail.sum())
        )
    out[moving] = drawn
    return out


def _jump_draw_args(n):
    table = get_table(2.2, 0.5)
    u = np.random.default_rng(8).random(n)
    return table, np.random.default_rng(9), u, np.empty(n, dtype=np.int64)


@pytest.mark.parametrize("n", [250, 20_000])
def test_jump_draw_fused(benchmark, n):
    table, rng, u, out = _jump_draw_args(n)
    benchmark(table.sample, rng, n, u, out)
    _persist(benchmark, f"jump_draw_n{n}_fused")


@pytest.mark.parametrize("n", [250, 20_000])
def test_jump_draw_legacy(benchmark, n):
    """The searchsorted draw, for the paired comparison."""
    table, rng, u, out = _jump_draw_args(n)
    benchmark(_searchsorted_jump_draw, table, rng, u, out)
    _persist(benchmark, f"jump_draw_n{n}_legacy")
    np.testing.assert_array_equal(
        _searchsorted_jump_draw(table, np.random.default_rng(9), u, out),
        table.sample(np.random.default_rng(9), n, u),
    )


def test_ring_offset_sampler(benchmark):
    rng = np.random.default_rng(0)
    distances = np.random.default_rng(1).integers(0, 1000, _N)
    benchmark(sample_ring_offsets, distances, rng)
    _persist(benchmark, "ring_offset_sampler")


def test_direct_path_marginal_sampler(benchmark):
    rng = np.random.default_rng(0)
    starts = np.zeros((_N, 2), dtype=np.int64)
    ends = sample_ring_offsets(np.full(_N, 500, dtype=np.int64), rng)
    rings = np.random.default_rng(2).integers(0, 501, _N)
    benchmark(sample_direct_path_nodes, starts, ends, rings, rng)
    _persist(benchmark, "direct_path_marginal_sampler")


def test_walk_engine_end_to_end(benchmark):
    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer

    def run():
        rng = np.random.default_rng(3)
        return walk_hitting_times(law, (24, 12), horizon=1_000, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "walk_engine_end_to_end")
    _persist(benchmark, "walk_engine_end_to_end_fused")
    assert sample.n == 2_000


def test_walk_engine_end_to_end_legacy(benchmark):
    """The frozen pre-fusing walk engine, for the paired comparison."""
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(3)
        with legacy_sampling():
            return legacy_walk_hitting_times(
                law, (24, 12), horizon=1_000, n=2_000, rng=rng
            )

    sample = benchmark(run)
    _persist(benchmark, "walk_engine_end_to_end_legacy")
    assert sample.n == 2_000


#: (key stem, n, current key suffix, frozen key suffix) of the paired
#: staged-vs-round walk timings.
_WALK_PAIRS = [
    ("walk_engine_n250", 250, "fused", "legacy"),
    ("walk_engine_n2000", 2_000, "fused", "legacy"),
    ("walk_engine_n20000", 20_000, "staged", "round"),
]


@pytest.mark.parametrize("stem, n, current, frozen", _WALK_PAIRS)
@pytest.mark.parametrize("staged", [True, False], ids=["staged", "round"])
def test_walk_engine_staged_vs_round(benchmark, stem, n, current, frozen, staged):
    """The staged walk engine against the frozen round-by-round loop."""
    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer
    engine = walk_hitting_times if staged else round_walk_hitting_times

    def run():
        rng = np.random.default_rng(3)
        return engine(law, (24, 12), horizon=1_000, n=n, rng=rng)

    sample = benchmark.pedantic(run, rounds=3 if n > 2_000 else 10, warmup_rounds=1)
    _persist(benchmark, f"{stem}_{current if staged else frozen}")
    assert sample.n == n


@pytest.mark.parametrize("staged", [True, False], ids=["staged", "round"])
def test_ball_engine_staged_vs_round(benchmark, staged):
    """The staged ball engine against the frozen round-by-round loop."""
    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer
    from repro.engine.ball_targets import ball_hitting_times

    engine = ball_hitting_times if staged else round_ball_hitting_times

    def run():
        rng = np.random.default_rng(5)
        return engine(law, (24, 12), radius=4, horizon=1_000, n=500, rng=rng)

    sample = benchmark.pedantic(run, rounds=10, warmup_rounds=1)
    _persist(benchmark, f"ball_engine_n500_{'fused' if staged else 'legacy'}")
    assert sample.n == 500


def test_flight_engine_end_to_end(benchmark):
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(4)
        return flight_hitting_times(law, (8, 4), horizon=200, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "flight_engine_end_to_end")
    assert sample.n == 2_000


def test_ball_target_engine(benchmark):
    from repro.engine.ball_targets import ball_hitting_times

    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer

    def run():
        rng = np.random.default_rng(5)
        return ball_hitting_times(law, (24, 12), radius=4, horizon=1_000, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "ball_target_engine")
    _persist(benchmark, "ball_target_engine_fused")
    assert sample.n == 2_000


def test_ball_target_engine_legacy(benchmark):
    """The frozen pre-fusing ball engine, for the paired comparison."""
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(5)
        with legacy_sampling():
            return legacy_ball_hitting_times(
                law, (24, 12), radius=4, horizon=1_000, n=2_000, rng=rng
            )

    sample = benchmark(run)
    _persist(benchmark, "ball_target_engine_legacy")
    assert sample.n == 2_000


def test_multi_target_engine(benchmark):
    from repro.engine.multi_target import multi_target_search, scatter_poisson_field

    law = ZetaJumpDistribution(2.5)
    field = scatter_poisson_field(0.01, 40, np.random.default_rng(6))

    def run():
        rng = np.random.default_rng(7)
        return multi_target_search(law, field, horizon=2_000, n=32, rng=rng)

    result = benchmark(run)
    _persist(benchmark, "multi_target_engine")
    assert result.n_items == field.shape[0]
