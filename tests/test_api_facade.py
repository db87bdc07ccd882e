"""The ``repro.api`` facade and its one calling convention.

``repro.api`` is the documented stable import surface (README): every
name in ``__all__`` must import and resolve to the same object as its
home module.  The engine entry points behind it follow the unified
``horizon``/``n`` keyword-only convention; the pre-1.1 spellings had
their release of deprecation warnings and now raise ``TypeError``.
"""

import pytest

import repro.api as api
from repro.api import SweepSpec, ZetaJumpDistribution, walk_hitting_times


def test_all_names_resolve():
    assert len(api.__all__) == len(set(api.__all__))
    for name in api.__all__:
        assert getattr(api, name) is not None
    # The headline spellings from the README example.
    assert SweepSpec is api.SweepSpec
    assert walk_hitting_times is api.walk_hitting_times


def test_facade_matches_home_modules():
    from repro.api.query import EstimateRequest as home_request
    from repro.api.query import estimate as home_estimate
    from repro.api.query import warm_estimates as home_warm
    from repro.engine.vectorized import walk_hitting_times as home_engine
    from repro.runner import Runner as home_runner
    from repro.sweep import run_sweep as home_sweep

    assert api.walk_hitting_times is home_engine
    assert api.Runner is home_runner
    assert api.run_sweep is home_sweep
    assert api.estimate is home_estimate
    assert api.EstimateRequest is home_request
    assert api.warm_estimates is home_warm


def test_query_names_are_in_the_inventory():
    for name in ("EstimateRequest", "EstimateResponse", "estimate", "warm_estimates"):
        assert name in api.__all__


def test_serve_protocol_reexports_the_same_schema():
    from repro.serve.protocol import EstimateRequest as wire_request
    from repro.serve.protocol import EstimateResponse as wire_response

    assert wire_request is api.EstimateRequest
    assert wire_response is api.EstimateResponse


JUMPS = ZetaJumpDistribution(2.5)
WALK = (JUMPS, (3, 4))

#: (id, callable, positional args, keywords in a pre-1.1 spelling).
_OLD_SPELLINGS = [
    ("walk-n_walks", api.walk_hitting_times, WALK, dict(horizon=50, n_walks=4)),
    ("walk-positional-tail", api.walk_hitting_times, WALK + (50, 4, 0), {}),
    ("walk-n_walks-beside-n", api.walk_hitting_times, WALK,
     dict(horizon=50, n=4, n_walks=4)),
    ("flight-horizon_jumps", api.flight_hitting_times, WALK,
     dict(horizon_jumps=50, n=4)),
    ("flight-n_flights", api.flight_hitting_times, WALK, dict(horizon=50, n_flights=4)),
    ("trajectories-n_steps", api.walk_trajectories, (JUMPS,), dict(n_steps=20, n=3)),
    ("ball-n_walks", api.ball_hitting_times, WALK,
     dict(radius=2, horizon=50, n_walks=4)),
    ("multi_target-n_walks", api.multi_target_search, (JUMPS, [(3, 0), (0, 5)]),
     dict(horizon=50, n_walks=4)),
    ("estimate-n_walks-target", api.estimate, (),
     dict(alpha=2.5, target=(3, 4), n_walks=500)),
    ("estimate-n", api.estimate, (), dict(alpha=2.2, l=6, max_ci=0.001, n=300)),
    ("estimate-n_steps", api.estimate, (), dict(alpha=2.5, l=8, n_steps=100)),
]


@pytest.mark.parametrize(
    "func,args,kwargs",
    [case[1:] for case in _OLD_SPELLINGS],
    ids=[case[0] for case in _OLD_SPELLINGS],
)
def test_old_spelling_raises_type_error(func, args, kwargs, tmp_path):
    if func is api.estimate:  # keep a wrongly accepted call off the cwd
        kwargs = dict(kwargs, cache_dir=tmp_path / "c", registry_dir=tmp_path / "r")
    with pytest.raises(TypeError):
        func(*args, **kwargs)
