"""The v2 typed query layer (:mod:`repro.api.query`).

Covers request validation and canonical keys, wire round-trips, the
k-walker interval algebra, tier selection in the in-process
:func:`repro.api.estimate` path (cache hit vs registry warm start vs
theory surrogate vs fresh simulation) and :func:`warm_estimates`.
"""

import time
import warnings

import pytest

from repro.api.query import (
    EstimateRequest,
    EstimateResponse,
    canonical_key,
    estimate,
    parallel_interval,
    parallel_probability,
    theory_estimate,
    warm_estimates,
)
from repro.telemetry.registry import RunRegistry, build_run_record, new_run_id


def _registry_with_estimate(tmp_path, alpha=2.2, l=24, p=0.05, half=0.01,
                            trials=2000, horizon=None):
    horizon = horizon if horizon is not None else l * l
    registry = RunRegistry(tmp_path / "registry")
    row = {
        "key": f"alpha={alpha} l={l}",
        "label": f"alpha={alpha} l={l}",
        "law": f"alpha={alpha}",
        "params": {"alpha": alpha, "l": l},
        "trials": trials,
        "successes": int(round(p * trials)),
        "p": p,
        "low": p - half,
        "high": p + half,
        "half_width": half,
        "horizon": horizon,
        "status": "complete",
    }
    registry.register(
        build_run_record(
            run_id=new_run_id(), command="sweep", label="test", estimates=[row]
        )
    )
    return registry


# ----------------------------------------------------------- request contract


def test_canonical_key_is_sorted_and_defaults_horizon():
    key = canonical_key(2.5, 16)
    assert key == "alpha=2.5 detect=True horizon=256 k=1 l=16"
    assert EstimateRequest(alpha=2.5, l=16).key == key
    # an explicit l**2 horizon spells identically to the default
    assert EstimateRequest(alpha=2.5, l=16, horizon=256).key == key


def test_request_validation():
    with pytest.raises(ValueError):
        EstimateRequest(alpha=1.0, l=8)
    with pytest.raises(ValueError):
        EstimateRequest(alpha=2.5, l=0)
    with pytest.raises(ValueError):
        EstimateRequest(alpha=2.5, l=8, k=0)
    with pytest.raises(ValueError):
        EstimateRequest(alpha=2.5, l=8, horizon=0)
    with pytest.raises(ValueError):
        EstimateRequest(alpha=2.5, l=8, max_ci=1.5)


def test_request_round_trips_and_ignores_unknown_fields():
    request = EstimateRequest(alpha=2.2, l=12, k=4, max_ci=0.05)
    rebuilt = EstimateRequest.from_dict({**request.to_dict(), "op": "estimate"})
    assert rebuilt == request
    with pytest.raises(ValueError):
        EstimateRequest.from_dict({"l": 8})  # no alpha


def test_response_round_trips_tolerantly():
    response = EstimateResponse(
        key="k", tier="simulation", p=0.1, low=0.08, high=0.12,
        trials=100, successes=10, seq=3, source="monte-carlo",
    )
    rebuilt = EstimateResponse.from_dict(response.to_dict())
    assert rebuilt.key == "k" and rebuilt.trials == 100 and rebuilt.seq == 3
    assert rebuilt.half_width == pytest.approx(0.02)
    # minimal wire object: everything except the key has a default
    minimal = EstimateResponse.from_dict({"key": "k", "p": 0.5})
    assert minimal.final and minimal.low == 0.0 and minimal.high == 1.0
    with pytest.raises(ValueError):
        EstimateResponse.from_dict({"p": 0.5})


# ---------------------------------------------------------- k-walker algebra


def test_parallel_probability_and_interval():
    assert parallel_probability(0.1, 1) == pytest.approx(0.1)
    assert parallel_probability(0.1, 2) == pytest.approx(1 - 0.81)
    assert parallel_probability(1.5, 3) == 1.0  # clipped
    single = parallel_interval(10, 100, 1)
    lifted = parallel_interval(10, 100, 4)
    assert lifted["p"] == pytest.approx(1 - (1 - single["p"]) ** 4)
    # monotone lift preserves ordering
    assert lifted["low"] < lifted["p"] < lifted["high"]


# ---------------------------------------------------------- theory surrogate


def test_theory_surrogate_is_instant_and_approximate():
    request = EstimateRequest(alpha=2.5, l=32)
    started = time.monotonic()
    response = theory_estimate(request)
    elapsed = time.monotonic() - started
    assert elapsed < 0.1  # the acceptance bar: an instant answer
    assert response.tier == "theory"
    assert response.approximate
    assert response.final  # no CI was requested
    assert 0.0 <= response.low <= response.p <= response.high <= 1.0


def test_theory_surrogate_covers_every_regime():
    for alpha in (1.5, 2.5, 3.5):  # ballistic / superdiffusive / diffusive
        response = theory_estimate(EstimateRequest(alpha=alpha, l=16))
        assert response.tier == "theory"
        assert 0.0 <= response.p <= 1.0


def test_theory_surrogate_k_lift_increases_probability():
    single = theory_estimate(EstimateRequest(alpha=2.5, l=16))
    many = theory_estimate(EstimateRequest(alpha=2.5, l=16, k=8))
    assert many.p > single.p


# ------------------------------------------------------------- tier selection


def test_estimate_without_ci_returns_theory_tier(tmp_path):
    response = estimate(
        alpha=2.5, l=16,
        cache_dir=tmp_path / "cache", registry_dir=tmp_path / "registry",
    )
    assert response.tier == "theory"
    assert response.approximate and response.final


def test_estimate_refines_then_serves_from_cache(tmp_path):
    kwargs = dict(cache_dir=tmp_path / "cache", registry_dir=tmp_path / "registry")
    updates = []
    fresh = estimate(
        alpha=2.2, l=6, max_ci=0.06, round_walks=200, max_walks=4000,
        on_update=updates.append, **kwargs,
    )
    assert fresh.tier == "simulation"
    assert fresh.final and fresh.trials > 0
    assert fresh.half_width <= 0.06
    assert fresh.converged
    # the theory surrogate streamed first, then >= 1 progressive response
    assert updates[0].tier == "theory"
    assert any(u.tier == "simulation" and not u.final for u in updates[1:])
    # a repeat is a cache hit: identical numbers, no simulation
    again = estimate(alpha=2.2, l=6, max_ci=0.06, **kwargs)
    assert again.tier == "cache"
    assert (again.p, again.trials) == (fresh.p, fresh.trials)


def test_estimate_warm_starts_from_the_registry(tmp_path):
    registry = _registry_with_estimate(tmp_path, alpha=2.2, l=24, half=0.01)
    response = estimate(
        alpha=2.2, l=24, max_ci=0.05,
        cache_dir=tmp_path / "cache", registry=registry,
    )
    assert response.tier == "cache"
    assert response.trials == 2000  # the registry row's counts, no simulation


def test_estimate_rejects_request_plus_fields(tmp_path):
    with pytest.raises(TypeError):
        estimate(EstimateRequest(alpha=2.5, l=8), alpha=2.5)


# ---------------------------------------------------------------- warm starts


def test_warm_estimates_surfaces_registry_rows(tmp_path):
    registry = _registry_with_estimate(tmp_path, alpha=2.2, l=24)
    found = warm_estimates(law="alpha=2.2", geometry={"l": 24}, registry=registry)
    assert len(found) == 1
    assert found[0].tier == "cache"
    assert found[0].trials == 2000
    # a non-matching filter finds nothing
    assert warm_estimates(law="alpha=9.9", registry=registry) == []


def test_warm_estimates_prefers_cache_entries_and_dedups(tmp_path):
    from repro.serve.cache import ResultCache

    registry = _registry_with_estimate(tmp_path, alpha=2.2, l=24)
    cache = ResultCache(tmp_path / "cache")
    key = canonical_key(2.2, 24)
    cache.put(EstimateResponse(key=key, tier="simulation", p=0.06, low=0.05,
                               high=0.07, trials=9000, source="monte-carlo"))
    found = warm_estimates(
        law="alpha=2.2", geometry={"l": 24}, registry=registry, cache=cache
    )
    assert len(found) == 1  # deduplicated by canonical key
    assert found[0].trials == 9000  # the cache's exact served answer wins


def test_new_spelling_emits_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate(alpha=2.5, l=8, cache_dir=tmp_path / "c",
                 registry_dir=tmp_path / "r")
