"""The stable import surface: ``from repro.api import ...``.

Everything re-exported here is supported API; internal module paths
(``repro.engine.vectorized`` etc.) remain importable but may reorganise
between versions.  The facade groups the five layers a study touches:

* **distributions** -- jump laws (Eq. (3) zeta law and friends);
* **engines** -- vectorized censored Monte-Carlo samplers.  All engines
  share one calling convention: structural arguments first
  (``jumps``, ``target``/``nodes``/``center``/``targets``), then
  keyword-only ``horizon`` (time budget), ``n`` (sample size), ``rng``;
* **results** -- censored samples and parallel-group reductions;
* **execution** -- the fault-tolerant chunked :class:`Runner` and its
  picklable tasks;
* **sweeps** -- declarative grids (:class:`SweepSpec`) scheduled over
  one shared runner pool (:func:`run_sweep`);
* **search** -- the paper's headline parallel-search objects;
* **queries** -- the v2 typed estimation contract
  (:class:`EstimateRequest` -> :class:`EstimateResponse` via
  :func:`estimate`, cached/theory/simulation tiers, shared with the
  ``repro-experiment serve`` daemon; :func:`warm_estimates` surfaces
  already-known answers from the result cache and run registry).

Typical use::

    from repro.api import SweepSpec, run_sweep, Runner

    spec = SweepSpec(
        axes={"alpha": (2.2, 2.6), "l": (32, 64)},
        n=2_000,
        horizon=lambda p: p["l"] ** 2,
        k=16,
        n_groups=400,
    )
    result = run_sweep(spec, seed=0, runner=Runner(workers=4))
    print(result.summary_table().render())
"""

from repro.api.query import (
    EstimateRequest,
    EstimateResponse,
    estimate,
    warm_estimates,
)
from repro.core.ants import universal_lower_bound
from repro.core.exponents import optimal_exponent
from repro.core.search import ParallelLevySearch, SearchResult
from repro.core.strategies import (
    FixedExponentStrategy,
    OracleExponentStrategy,
    UniformRandomExponentStrategy,
)
from repro.distributions.base import JumpDistribution
from repro.distributions.geometric import GeometricJumpDistribution
from repro.distributions.quantized import QuantizedZetaJumpDistribution
from repro.distributions.unit import UnitJumpDistribution
from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.ball_targets import ball_hitting_times
from repro.engine.multi_target import ForagingResult, multi_target_search
from repro.engine.reference import reference_hitting_times
from repro.engine.results import (
    CENSORED,
    HittingTimeSample,
    bootstrap_parallel,
    group_minimum,
)
from repro.engine.trajectories import walk_trajectories
from repro.engine.vectorized import flight_hitting_times, walk_hitting_times
from repro.runner import (
    CCRWTask,
    ChunkPlan,
    ForagingTask,
    HittingTimeTask,
    Job,
    RunOutcome,
    Runner,
    RunnerState,
    trap_signals,
)
from repro.sweep import GridPoint, PointResult, SweepResult, SweepSpec, run_sweep

__all__ = [
    # distributions
    "GeometricJumpDistribution",
    "JumpDistribution",
    "QuantizedZetaJumpDistribution",
    "UnitJumpDistribution",
    "ZetaJumpDistribution",
    # engines
    "ball_hitting_times",
    "flight_hitting_times",
    "multi_target_search",
    "reference_hitting_times",
    "walk_hitting_times",
    "walk_trajectories",
    # results
    "CENSORED",
    "ForagingResult",
    "HittingTimeSample",
    "bootstrap_parallel",
    "group_minimum",
    # execution
    "CCRWTask",
    "ChunkPlan",
    "ForagingTask",
    "HittingTimeTask",
    "Job",
    "RunOutcome",
    "Runner",
    "RunnerState",
    "trap_signals",
    # sweeps
    "GridPoint",
    "PointResult",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    # search
    "FixedExponentStrategy",
    "OracleExponentStrategy",
    "ParallelLevySearch",
    "SearchResult",
    "UniformRandomExponentStrategy",
    "optimal_exponent",
    "universal_lower_bound",
    # queries
    "EstimateRequest",
    "EstimateResponse",
    "estimate",
    "warm_estimates",
]
