"""Tests for censored hitting-time containers and parallel grouping."""

import warnings

import numpy as np
import pytest

from repro.engine.results import (
    CENSORED,
    HittingTimeSample,
    bootstrap_parallel,
    group_minimum,
)


def make(times, horizon=100):
    return HittingTimeSample(times=np.asarray(times, dtype=np.int64), horizon=horizon)


def test_basic_properties():
    sample = make([5, CENSORED, 10, 0, CENSORED])
    assert sample.n == 5
    assert sample.n_hits == 3
    assert sample.hit_fraction == pytest.approx(0.6)
    np.testing.assert_array_equal(sample.hit_times(), [5, 10, 0])


def test_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        make([5, 101])
    with pytest.raises(ValueError):
        make([-2])
    with pytest.raises(ValueError):
        HittingTimeSample(times=np.zeros((2, 2), dtype=np.int64), horizon=5)


def test_probability_by():
    sample = make([5, 10, 20, CENSORED])
    assert sample.probability_by(5) == pytest.approx(0.25)
    assert sample.probability_by(10) == pytest.approx(0.5)
    assert sample.probability_by(100) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        sample.probability_by(101)


def test_empty_sample_fractions_are_nan_without_warnings():
    sample = make([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(sample.hit_fraction)
        assert np.isnan(sample.probability_by(50))
    with pytest.raises(ValueError):
        sample.probability_by(101)


def test_restricted():
    sample = make([5, 10, 20, CENSORED])
    restricted = sample.restricted(10)
    assert restricted.horizon == 10
    assert restricted.n_hits == 2
    np.testing.assert_array_equal(restricted.times, [5, 10, CENSORED, CENSORED])
    with pytest.raises(ValueError):
        sample.restricted(1000)


# ----------------------------------------------------------- group minimum


def test_group_minimum_basic():
    times = np.array([5, 7, CENSORED, 3, CENSORED, CENSORED], dtype=np.int64)
    out = group_minimum(times, 3)
    np.testing.assert_array_equal(out, [5, 3])


def test_group_minimum_all_censored():
    times = np.array([CENSORED, CENSORED], dtype=np.int64)
    out = group_minimum(times, 2)
    np.testing.assert_array_equal(out, [CENSORED])


def test_group_minimum_k_one_identity():
    times = np.array([4, CENSORED, 9], dtype=np.int64)
    np.testing.assert_array_equal(group_minimum(times, 1), times)


def test_group_minimum_validation():
    with pytest.raises(ValueError):
        group_minimum(np.array([1, 2, 3], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        group_minimum(np.array([1, 2], dtype=np.int64), 0)


def test_group_minimum_is_min_of_iid(rng):
    """Statistical: P(min over k <= t) == 1 - (1 - F(t))^k."""
    n, k = 60_000, 4
    single = rng.integers(1, 100, size=n).astype(np.int64)
    single[rng.random(n) < 0.3] = CENSORED
    grouped = group_minimum(single, k)
    f_single = float(((single != CENSORED) & (single <= 50)).mean())
    predicted = 1.0 - (1.0 - f_single) ** k
    measured = float(((grouped != CENSORED) & (grouped <= 50)).mean())
    assert abs(measured - predicted) < 0.02


def test_bootstrap_parallel_shape(rng):
    times = np.array([5, CENSORED, 9, 12], dtype=np.int64)
    out = bootstrap_parallel(times, k=3, n_groups=50, rng=rng)
    assert out.shape == (50,)
    valid = out[out != CENSORED]
    assert np.all(np.isin(valid, [5, 9, 12]))


def test_bootstrap_parallel_unbiased(rng):
    n, k = 30_000, 8
    single = rng.integers(1, 1000, size=n).astype(np.int64)
    direct = group_minimum(single[: (n // k) * k], k)
    boot = bootstrap_parallel(single, k, n_groups=n // k, rng=rng)
    assert abs(float(direct.mean()) - float(boot.mean())) < 12.0
