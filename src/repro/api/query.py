"""The v2 typed query layer: ``P(hit by t)?`` as a first-class request.

The paper's headline quantity -- the probability that ``k`` parallel
Levy walkers with exponent ``alpha`` hit a target at distance ``l``
within ``t`` steps -- is exactly what the estimation service
(``repro-experiment serve``, :mod:`repro.serve`) answers.  This module
is the single typed contract shared by three call paths:

* the **in-process** convenience :func:`estimate` (no daemon needed);
* the **daemon** (:mod:`repro.serve.daemon`), which coalesces
  concurrent requests and streams progressive refinements;
* the **client** (:mod:`repro.serve.client` / the ``query``
  subcommand), which speaks the same dataclasses over NDJSON.

Callers describe *what* they want -- ``(law, l, k, horizon, target
CI)`` -- never raw engine kwargs (Guinard--Korman, arXiv:2003.13041,
and Levernier et al., arXiv:2002.00278, frame their queries the same
way: hitting probabilities and optimal exponents across target
scalings, not sampler plumbing).  Answers come in three tiers,
cheapest first:

1. ``cache`` -- a persistent result-cache hit (or a run-registry
   warm start via :meth:`repro.telemetry.registry.RunRegistry.lookup`);
2. ``theory`` -- an instant closed-form surrogate from
   :mod:`repro.theory.predictions`, marked ``approximate=True``
   (hidden constants are set to 1, so it is an order-of-magnitude
   answer, not an estimate);
3. ``simulation`` -- Monte-Carlo refinement through the existing
   Runner/telemetry stack until the requested CI is met.

The canonical join key is :func:`repro.telemetry.registry.estimate_key`
(PR 8's spelling), so cache entries, registry records, and live
queries all join on one string.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional

from repro.telemetry.registry import (
    DEFAULT_REGISTRY_DIR,
    RunRegistry,
    estimate_key,
)

#: Bumped when the request/response wire layout changes incompatibly.
#: Readers ignore unknown fields and default missing ones, so additive
#: growth does not need a bump.
QUERY_SCHEMA_VERSION = 1

#: Answer tiers, cheapest first (docs/serve.md).
TIERS = ("cache", "theory", "simulation")


def canonical_key(
    alpha: float,
    l: int,
    k: int = 1,
    horizon: Optional[int] = None,
    detect: bool = True,
) -> str:
    """The canonical cache/registry join key for one estimate query.

    Built with :func:`repro.telemetry.registry.estimate_key` so the
    spelling (sorted ``k=v`` pairs, ``%g`` floats) matches registry
    records and ``runs compare`` keys exactly.  ``horizon=None``
    resolves to the paper's default budget ``l**2``.
    """
    if horizon is None:
        horizon = int(l) ** 2
    return estimate_key(
        {
            "alpha": float(alpha),
            "l": int(l),
            "k": int(k),
            "horizon": int(horizon),
            "detect": bool(detect),
        }
    )


@dataclass(frozen=True)
class EstimateRequest:
    """One typed hitting-probability query.

    Parameters
    ----------
    alpha:
        Levy exponent of the jump law (Eq. (3) zeta law), ``> 1``.
    l:
        Target's Manhattan distance from the origin, ``>= 1``.
    k:
        Number of parallel walkers (``P(tau_k <= t)``); default 1.
    horizon:
        Step budget ``t``; ``None`` means the paper's ``l**2``.
    max_ci:
        Target *absolute* 95% Wilson half-width for the answer.
        ``None`` accepts any tier (a theory surrogate suffices).
    detect:
        ``True`` -- the paper's model, targets are detected mid-jump;
        ``False`` -- endpoint-only (intermittent) detection.
    """

    alpha: float
    l: int
    k: int = 1
    horizon: Optional[int] = None
    max_ci: Optional[float] = None
    detect: bool = True

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if self.l < 1:
            raise ValueError(f"l must be a positive distance, got {self.l}")
        if self.k < 1:
            raise ValueError(f"k must be a positive walker count, got {self.k}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.max_ci is not None and not 0.0 < self.max_ci < 1.0:
            raise ValueError(f"max_ci must be in (0, 1), got {self.max_ci}")

    @property
    def resolved_horizon(self) -> int:
        """The step budget with the ``l**2`` default applied."""
        return int(self.horizon) if self.horizon is not None else int(self.l) ** 2

    @property
    def law(self) -> str:
        """The walk-family string registry records use (``"alpha=2.2"``)."""
        return estimate_key({"alpha": float(self.alpha)})

    @property
    def geometry(self) -> Dict[str, Any]:
        """The params filter for :meth:`RunRegistry.lookup`."""
        return {"l": int(self.l)}

    @property
    def key(self) -> str:
        """The canonical cache key (see :func:`canonical_key`)."""
        return canonical_key(
            self.alpha, self.l, k=self.k, horizon=self.horizon, detect=self.detect
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "l": self.l,
            "k": self.k,
            "horizon": self.horizon,
            "max_ci": self.max_ci,
            "detect": self.detect,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EstimateRequest":
        """Build a request from a wire/JSON mapping (unknown keys ignored)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"estimate request is not an object: {data!r}")
        if "alpha" not in data or "l" not in data:
            raise ValueError("estimate request needs at least 'alpha' and 'l'")
        horizon = data.get("horizon")
        max_ci = data.get("max_ci")
        return cls(
            alpha=float(data["alpha"]),
            l=int(data["l"]),
            k=int(data.get("k", 1)),
            horizon=int(horizon) if horizon is not None else None,
            max_ci=float(max_ci) if max_ci is not None else None,
            detect=bool(data.get("detect", True)),
        )


@dataclass(frozen=True)
class EstimateResponse:
    """One answer (possibly one of several progressive ones) to a query.

    ``tier`` names which layer produced it (:data:`TIERS`);
    ``approximate`` marks theory surrogates whose hidden constants are
    set to 1; ``final=False`` marks a progressive response with a
    tighter one still to come; ``seq`` orders the progressive stream.
    ``p``/``low``/``high`` are in *k-walker* space (``1-(1-p1)^k``
    applied monotonically to the single-walk Wilson interval), so the
    same request always reads the same way regardless of tier.
    """

    key: str
    tier: str
    p: float
    low: float
    high: float
    trials: int = 0
    successes: int = 0
    approximate: bool = False
    final: bool = True
    converged: bool = False
    seq: int = 0
    source: str = ""

    @property
    def half_width(self) -> float:
        return 0.5 * (self.high - self.low)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "tier": self.tier,
            "p": round(float(self.p), 8),
            "low": round(float(self.low), 8),
            "high": round(float(self.high), 8),
            "half_width": round(self.half_width, 8),
            "trials": int(self.trials),
            "successes": int(self.successes),
            "approximate": bool(self.approximate),
            "final": bool(self.final),
            "converged": bool(self.converged),
            "seq": int(self.seq),
            "source": str(self.source),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EstimateResponse":
        """Rehydrate from a wire/JSONL mapping (tolerant, like RunRecord)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"estimate response is not an object: {data!r}")
        key = data.get("key")
        if not isinstance(key, str) or not key:
            raise ValueError("estimate response has no key")
        return cls(
            key=key,
            tier=str(data.get("tier", "simulation")),
            p=float(data.get("p", 0.0)),
            low=float(data.get("low", 0.0)),
            high=float(data.get("high", 1.0)),
            trials=int(data.get("trials", 0)),
            successes=int(data.get("successes", 0)),
            approximate=bool(data.get("approximate", False)),
            final=bool(data.get("final", True)),
            converged=bool(data.get("converged", False)),
            seq=int(data.get("seq", 0)),
            source=str(data.get("source", "")),
        )


# ----------------------------------------------------------- k-walker algebra


def parallel_probability(p_single: float, k: int) -> float:
    """``P(tau_k <= t) = 1 - (1 - p1)^k`` for independent walkers."""
    p_single = max(0.0, min(1.0, float(p_single)))
    if k <= 1:
        return p_single
    return 1.0 - (1.0 - p_single) ** int(k)


def parallel_interval(
    successes: int, trials: int, k: int
) -> Dict[str, float]:
    """The k-walker Wilson interval from single-walk counts.

    The map ``p -> 1-(1-p)^k`` is monotone increasing, so applying it
    to the single-walk interval endpoints yields a valid (conservative)
    interval for the k-walker probability.
    """
    from repro.analysis.estimators import wilson_interval

    single = wilson_interval(int(successes), int(trials))
    return {
        "p": parallel_probability(single.point, k),
        "low": parallel_probability(single.low, k),
        "high": parallel_probability(single.high, k),
    }


# ----------------------------------------------------------- theory surrogate


def theory_estimate(request: EstimateRequest, seq: int = 0) -> EstimateResponse:
    """The instant closed-form tier: theorem bounds with constants at 1.

    Picks the single-walk bound for the request's regime
    (:mod:`repro.theory.predictions`), lifts it to ``k`` walkers, and
    wraps it in a deliberately wide interval (``[p/4, min(1, 4p)]``)
    because asymptotic statements with hidden constants are
    order-of-magnitude answers.  Always ``approximate=True``.
    """
    from repro.core.exponents import Regime, regime
    from repro.theory import predictions

    alpha, l, t = request.alpha, int(request.l), float(request.resolved_horizon)
    reg = regime(alpha)
    if reg is Regime.SUPERDIFFUSIVE:
        if t >= predictions.thm_1_1a_time(alpha, l):
            p1 = predictions.thm_1_1a_probability(alpha, l)
        else:
            p1 = predictions.thm_1_1b_probability(alpha, l, t)
    elif reg is Regime.BALLISTIC:
        p1 = predictions.thm_1_3a_probability(alpha, l) if t >= l else 0.0
    else:  # diffusive, alpha >= 3
        if t >= predictions.thm_1_2a_time(l):
            p1 = predictions.thm_1_2a_probability(l)
        else:
            p1 = predictions.thm_1_2b_probability(l, t)
    p = parallel_probability(p1, request.k)
    return EstimateResponse(
        key=request.key,
        tier="theory",
        p=p,
        low=max(0.0, 0.25 * p),
        high=min(1.0, 4.0 * p) if p > 0 else 1.0 / max(2.0, t),
        approximate=True,
        final=request.max_ci is None,
        seq=seq,
        source="repro.theory",
    )


# --------------------------------------------------------------- warm starts


def _key_token(name: str, value: Any) -> str:
    """One ``name=value`` token in the canonical key spelling."""
    return estimate_key({name: value})


def response_from_registry_estimate(
    row: Mapping[str, Any], request: EstimateRequest, source: str
) -> Optional[EstimateResponse]:
    """A cache-tier response from one registry estimate row, or None.

    The row must carry counts and a horizon matching the request; the
    single-walk Wilson interval is recomputed from the raw counts and
    lifted to ``k`` walkers (registry rows record per-walk Bernoulli
    samples regardless of their sweep's grouping ``k``).
    """
    trials = row.get("trials")
    successes = row.get("successes")
    if not isinstance(trials, int) or not isinstance(successes, int) or trials <= 0:
        return None
    if int(row.get("horizon", -1)) != request.resolved_horizon:
        return None
    params = row.get("params") or {}
    if params.get("detect", True) != request.detect:
        return None
    interval = parallel_interval(successes, trials, request.k)
    return EstimateResponse(
        key=request.key,
        tier="cache",
        trials=trials,
        successes=successes,
        final=True,
        converged=(
            request.max_ci is None
            or 0.5 * (interval["high"] - interval["low"]) <= request.max_ci
        ),
        source=source,
        **interval,
    )


def warm_estimates(
    law: Optional[str] = None,
    geometry: Optional[Mapping[str, Any]] = None,
    max_ci: Optional[float] = None,
    *,
    registry: Optional[RunRegistry] = None,
    registry_dir=None,
    cache=None,
) -> List[EstimateResponse]:
    """Every already-known answer matching a ``(law, geometry, CI)`` filter.

    The one public entry point over the two warm-start stores: the
    persistent result cache (:class:`repro.serve.cache.ResultCache`)
    and the run registry's :meth:`~RunRegistry.lookup` seam.  Returns
    cache-tier :class:`EstimateResponse` objects, cache entries first
    (they are exact served answers), then registry rows from the
    freshest adequate record; deduplicated by canonical key.
    """
    responses: List[EstimateResponse] = []
    seen = set()
    geometry_filter = {
        name: _key_token(name, value) for name, value in dict(geometry or {}).items()
    }
    if cache is not None:
        for entry in cache.entries():
            tokens = set(entry.key.split(" "))
            if law is not None and law not in tokens:
                continue
            if any(token not in tokens for token in geometry_filter.values()):
                continue
            if max_ci is not None and entry.half_width > max_ci:
                continue
            if entry.key not in seen:
                seen.add(entry.key)
                responses.append(entry)
    if registry is None:
        registry = RunRegistry(registry_dir or DEFAULT_REGISTRY_DIR)
    record = registry.lookup(law=law, geometry=geometry, max_ci=max_ci)
    if record is not None:
        geometry = dict(geometry or {})
        for row in record.estimates:
            if law is not None and row.get("law") != law:
                continue
            params = row.get("params") or {}
            if any(params.get(k) != v for k, v in geometry.items()):
                continue
            trials, successes = row.get("trials"), row.get("successes")
            if not isinstance(trials, int) or trials <= 0:
                continue
            if not isinstance(successes, int):
                continue
            half_width = row.get("half_width")
            if max_ci is not None and (
                not isinstance(half_width, (int, float)) or half_width > max_ci
            ):
                continue
            alpha = params.get("alpha")
            l = params.get("l")
            if not isinstance(alpha, (int, float)) or not isinstance(l, int):
                continue
            key = canonical_key(
                float(alpha),
                l,
                k=1,
                horizon=row.get("horizon"),
                detect=bool(params.get("detect", True)),
            )
            if key in seen:
                continue
            seen.add(key)
            interval = parallel_interval(successes, trials, 1)
            responses.append(
                EstimateResponse(
                    key=key,
                    tier="cache",
                    trials=trials,
                    successes=successes,
                    converged=True,
                    source=record.run_id,
                    **interval,
                )
            )
    return responses


# ------------------------------------------------------- the in-process path


def estimate(
    request: Optional[EstimateRequest] = None,
    *,
    refine: Optional[bool] = None,
    cache=None,
    cache_dir=None,
    registry: Optional[RunRegistry] = None,
    registry_dir=None,
    on_update=None,
    seed: Optional[int] = None,
    round_walks: int = 2_000,
    max_walks: int = 200_000,
    **fields,
) -> EstimateResponse:
    """Answer one hitting-probability query in process (no daemon).

    The same three-tier resolution the daemon performs, synchronously:
    persistent-cache/registry hit, else theory surrogate, else (when
    ``max_ci`` asks for a real CI and ``refine`` is not False)
    Monte-Carlo refinement through the Runner until the CI is met or
    ``max_walks`` is exhausted.  Progressive refinement responses go to
    ``on_update`` (one per Runner ``estimate`` event) when provided.

    Accepts either an :class:`EstimateRequest` or its fields as
    keywords.
    """
    if request is None:
        request = EstimateRequest(**fields)
    elif fields:
        raise TypeError(
            "estimate() takes either a request or field keywords, not both: "
            + ", ".join(sorted(fields))
        )
    if refine is None:
        refine = request.max_ci is not None

    if cache is None:
        from repro.serve.cache import ResultCache

        cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()
    hit = cache.get(request.key, max_ci=request.max_ci)
    if hit is not None:
        return replace(hit, tier="cache", final=True)

    if registry is None:
        registry = RunRegistry(registry_dir or DEFAULT_REGISTRY_DIR)
    record = registry.lookup(
        law=request.law, geometry=request.geometry, max_ci=request.max_ci
    )
    if record is not None:
        for row in record.estimates:
            if row.get("law") != request.law:
                continue
            params = row.get("params") or {}
            if any(params.get(k) != v for k, v in request.geometry.items()):
                continue
            response = response_from_registry_estimate(row, request, record.run_id)
            if response is not None and (
                request.max_ci is None or response.half_width <= request.max_ci
            ):
                cache.put(response)
                return response

    surrogate = theory_estimate(request)
    if not refine:
        return replace(surrogate, final=True)
    if on_update is not None:
        on_update(surrogate)

    from repro.serve.refine import refine_estimate

    final = refine_estimate(
        request,
        publish=on_update,
        seed=seed,
        round_walks=round_walks,
        max_walks=max_walks,
        first_seq=surrogate.seq + 1,
    )
    cache.put(final)
    return final
