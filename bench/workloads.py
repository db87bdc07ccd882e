"""The four benchmark workloads, each one closed-loop caller of public entry points.

A workload is a fixed list of operations -- a *pass* -- that the runner
repeats for the measured time.  The order of the operations in a pass and
every random input come from ``--seed``; the mix of operations does not,
so medians and rates are comparable across seeds.  Each workload calls
the program only through module attributes it looks up at call time, so
the traced run's wrappers (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import importlib
import math
import multiprocessing
import os
import shutil
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import BAND_SIGMAS, OUT, load_reference, median, ref_key, within_band

#: The exponents the paper's regimes turn on (Thm 1.1 / Cor 1.4): the
#: super-diffusive range and its diffusive edge.
ALPHAS = (2.2, 2.5, 3.0)
GRID_ALPHAS = (2.2, 2.5, 2.8, 3.0)
BALL_RADIUS = 2

#: Seed-stream tags: workload streams never meet each other or the
#: reference stream (tag 0, see make_reference.py), whatever ``--seed`` is.
REFERENCE_TAG = 0


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator for one input, a pure function of ``(seed, *key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def wait_for_children(timeout: float = 30.0) -> bool:
    """Reap every child process (pool workers exit after the pool shuts down)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


class Ledger:
    """Everything one run measured: op latencies, checked units, passes."""

    def __init__(self) -> None:
        #: One entry per timed op: (seconds, walks, pass index, traced).
        self.ops: List[Tuple[float, int, int, bool]] = []
        #: One ok-flag per checked unit (an op, or a sweep grid point).
        self.units: List[bool] = []
        #: Reference key -> [hits, trials, unit indices] pooled over the run.
        self.groups: Dict[str, list] = {}
        self.notes: List[str] = []
        self.tracer = None
        self.pass_index = 0
        self.traced = False

    def timed(self, call):
        """Run one op; returns ``(result, error, seconds)``."""
        if self.traced:
            self.tracer.trace_id = len(self.ops)
        started = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # one failed op must not end the run
            result, error = None, exc
            self.notes.append("op raised: " + "".join(traceback.format_exception_only(exc)).strip())
        return result, error, time.perf_counter() - started

    def op(self, seconds: float, walks: int) -> None:
        self.ops.append((seconds, int(walks), self.pass_index, self.traced))

    def unit(self, ok: bool, group: Optional[str] = None, hits: int = 0, trials: int = 0) -> None:
        if group is not None:
            entry = self.groups.setdefault(group, [0, 0, []])
            entry[0] += int(hits)
            entry[1] += int(trials)
            entry[2].append(len(self.units))
        self.units.append(bool(ok))

    def check_groups(self, reference: Dict[str, dict]) -> None:
        """Pooled hit fractions against the law-level references.

        A failing group fails every unit that contributed to it.
        """
        for key, (hits, trials, members) in sorted(self.groups.items()):
            entry = reference.get(key)
            if trials and entry is not None and within_band(hits, trials, entry["p"], entry.get("n")):
                continue
            expected = "no reference" if entry is None else f"reference {entry['p']:.5f}"
            self.notes.append(f"output check failed: {key}: {hits}/{trials} hits, {expected}")
            for index in members:
                self.units[index] = False


class Workload:
    """One closed-loop caller; subclasses define a pass and its checks."""

    name = ""
    why = ""
    tag = 0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.workdir = OUT / "tmp" / f"{self.name}-{os.getpid()}"
        self.extras: Dict[int, Dict[str, float]] = {}

    def reference_configs(self) -> List[tuple]:
        """``(engine, alpha, l, horizon, radius, cap)`` of every law checked."""
        raise NotImplementedError

    def laws(self) -> List[Tuple[float, Optional[int]]]:
        return sorted({(alpha, cap) for _, alpha, _, _, _, cap in self.reference_configs()}, key=str)

    def setup(self) -> None:
        """Imports, CDF tables for the workload's laws, work directory."""
        self.cdf_table = importlib.import_module("repro.distributions.cdf_table")
        zeta = importlib.import_module("repro.distributions.zeta")
        self.targets_for = importlib.import_module("repro.experiments.common").default_target
        self.law = {
            (alpha, cap): zeta.ZetaJumpDistribution(alpha, cap=cap) for alpha, cap in self.laws()
        }
        for alpha, cap in self.law:
            self.cdf_table.get_table(alpha, 0.5, cap)
        self.reference = load_reference()
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, index: int, ledger: Ledger) -> None:
        raise NotImplementedError

    def after_pass(self, index: int) -> None:
        """Untimed clean-up between passes."""

    def layer_extras(self, ledger: Ledger, traced: Sequence[int]) -> Dict[str, float]:
        """Workload-specific per-layer values, per traced pass."""
        return {}

    def exact_counts(self, passes: Sequence[int]) -> Dict[str, Tuple[str, List[int]]]:
        """Counts that must repeat exactly: name -> (unit, value per pass)."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _engine_op(self, ledger: Ledger, call, n: int, horizon: int, key: str) -> None:
        sample, error, seconds = ledger.timed(call)
        ok = error is None and sample.n == n and sample.horizon == horizon
        ledger.op(seconds, n if ok else 0)
        ledger.unit(ok, key, sample.n_hits if ok else 0, n if ok else 0)

    def _extra(self, index: int, name: str, value: float) -> None:
        self.extras.setdefault(index, {})[name] = value

    def _traced_mean(self, traced: Sequence[int], name: str) -> float:
        values = [self.extras.get(i, {}).get(name, 0.0) for i in traced]
        return sum(values) / len(values) if values else 0.0


class NarrowBatch(Workload):
    name = "narrow-batch"
    why = (
        "250-500-walk engine calls, the width of every pooled and refine chunk: "
        "per-round numpy dispatch dominates, no runner or telemetry"
    )
    tag = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        sizes = (25, 50) if tiny else (250, 500)
        ball_n = sizes[-1]
        # l=16 calls appear twice per pass so the median call sits inside
        # the l=16 mode instead of on the gap between the two modes.
        self.ops: List[Tuple[str, float, int, int]] = []
        for alpha in ALPHAS:
            for l, repeats in ((16, 2), (32, 1)):
                for _ in range(repeats):
                    self.ops += [("walk", alpha, l, n) for n in sizes]
                    self.ops.append(("ball", alpha, l, ball_n))

    def reference_configs(self):
        return sorted(
            {
                (engine, alpha, l, l * l, BALL_RADIUS if engine == "ball" else 0, None)
                for engine, alpha, l, _ in self.ops
            }
        )

    def setup(self) -> None:
        super().setup()
        self.vectorized = importlib.import_module("repro.engine.vectorized")
        self.ball = importlib.import_module("repro.engine.ball_targets")

    def run_pass(self, index: int, ledger: Ledger) -> None:
        order = seeded_rng(self.seed, self.tag, index).permutation(len(self.ops))
        for position in order:
            engine, alpha, l, n = self.ops[position]
            rng = seeded_rng(self.seed, self.tag, index, position)
            law, target, horizon = self.law[(alpha, None)], self.targets_for(l), l * l
            if engine == "walk":
                call = lambda: self.vectorized.walk_hitting_times(  # noqa: E731
                    law, target, horizon=horizon, n=n, rng=rng
                )
                key = ref_key("walk", alpha, l, horizon)
            else:
                call = lambda: self.ball.ball_hitting_times(  # noqa: E731
                    law, target, radius=BALL_RADIUS, horizon=horizon, n=n, rng=rng
                )
                key = ref_key("ball", alpha, l, horizon, BALL_RADIUS)
            self._engine_op(ledger, call, n, horizon, key)


class WideBatch(Workload):
    name = "wide-batch"
    why = (
        "20000-walk engine calls at l=64, bound by memory bandwidth, plus a capped "
        "flight checked against its exact law; guards narrow-batch wins"
    )
    tag = 2
    L = 64
    #: Two exponents keep a pass near 6.5 s, so a run repeats it three times.
    ALPHAS = (2.2, 3.0)
    #: Capped flight: target at distance 8, cap 8, 32 jumps (exact law known).
    FLIGHT = (2.5, 8, 8, 32)  # alpha, cap, l, horizon

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.n = 2_000 if tiny else 20_000

    def reference_configs(self):
        alpha, cap, l, horizon = self.FLIGHT
        walks = [("walk", a, self.L, self.L * self.L, 0, None) for a in self.ALPHAS]
        return walks + [("flight", alpha, l, horizon, 0, cap)]

    def setup(self) -> None:
        super().setup()
        self.vectorized = importlib.import_module("repro.engine.vectorized")

    def run_pass(self, index: int, ledger: Ledger) -> None:
        ops = self.reference_configs()
        order = seeded_rng(self.seed, self.tag, index).permutation(len(ops))
        for position in order:
            engine, alpha, l, horizon, _, cap = ops[position]
            rng = seeded_rng(self.seed, self.tag, index, position)
            law, target, n = self.law[(alpha, cap)], self.targets_for(l), self.n
            if engine == "walk":
                call = lambda: self.vectorized.walk_hitting_times(  # noqa: E731
                    law, target, horizon=horizon, n=n, rng=rng
                )
            else:
                call = lambda: self.vectorized.flight_hitting_times(  # noqa: E731
                    law, target, horizon=horizon, n=n, rng=rng
                )
            self._engine_op(ledger, call, n, horizon, ref_key(engine, alpha, l, horizon, 0, cap))


class SweepPool(Workload):
    name = "sweep-pool"
    why = (
        "the CLI's production sweep: 250-walk chunks cross a 2-worker pool, are "
        "checkpointed and logged, so runner, transport and telemetry costs show"
    )
    tag = 3
    LS = (24, 48)
    WORKERS = 2
    K = 8
    N_GROUPS = 200

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.n, self.chunks = (500, 2) if tiny else (3_000, 12)

    def reference_configs(self):
        return [("walk", a, l, l * l, 0, None) for a in GRID_ALPHAS for l in self.LS]

    def setup(self) -> None:
        super().setup()
        self.telemetry = importlib.import_module("repro.telemetry")
        importlib.import_module("repro.telemetry.events")  # else the first sweep imports it
        self.runner_mod = importlib.import_module("repro.runner")
        self.sweep = importlib.import_module("repro.sweep")
        self.shm = importlib.import_module("repro.engine.shm")
        self.spec = self.sweep.SweepSpec(
            axes={"alpha": GRID_ALPHAS, "l": self.LS},
            n=self.n,
            horizon=lambda p: p["l"] ** 2,
            k=self.K,
            n_groups=self.N_GROUPS,
        )

    def run_pass(self, index: int, ledger: Ledger) -> None:
        work = self.workdir / f"pass-{index}"
        log_path = work / "events.jsonl"
        sweep_seed = int(seeded_rng(self.seed, self.tag, index).integers(2**62))
        runner = self.runner_mod.Runner(
            workers=self.WORKERS, n_chunks=self.chunks, checkpoint_dir=work / "checkpoints"
        )

        def sweep():
            recorder = self.telemetry.configure(log_path=log_path)
            try:
                return self.sweep.run_sweep(self.spec, seed=sweep_seed, runner=runner)
            finally:
                recorder.close()
                self.telemetry.set_recorder(None)

        result, error, seconds = ledger.timed(sweep)
        reaped = wait_for_children()
        leaked = self.shm.list_segments(runner.shm_prefix) if runner.shm_prefix else []
        if leaked or not reaped:
            ledger.notes.append(f"pass {index}: leaked shm segments {leaked}, children reaped: {reaped}")
        points = list(result) if error is None else []
        walks = 0
        for point in points:
            outcome, sample = point.outcome, point.sample
            ok = (
                outcome.complete
                and not outcome.degraded
                and not outcome.quarantined_point
                and sample.n == point.point.n
                and point.parallel is not None
                and point.parallel.shape == (self.N_GROUPS,)
                and not leaked
                and reaped
            )
            alpha, l = point.params["alpha"], point.params["l"]
            walks += sample.n
            ledger.unit(ok, ref_key("walk", alpha, l, l * l), sample.n_hits, sample.n)
        for _ in range(len(self.spec.expand()) - len(points)):
            ledger.unit(False)
        ledger.op(seconds, walks)
        self._extra(index, "sweep.points", len(points))
        self._extra(index, "runner.checkpoint_bytes", directory_bytes(work / "checkpoints"))
        self._extra(index, "telemetry.event_bytes", log_path.stat().st_size if log_path.exists() else 0)

    def after_pass(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"pass-{index}", ignore_errors=True)

    def layer_extras(self, ledger, traced):
        return {
            name: self._traced_mean(traced, name)
            for name in ("sweep.points", "runner.checkpoint_bytes", "telemetry.event_bytes")
        }

    def close(self) -> None:
        super().close()
        # Shared-memory transport starts the resource tracker; stop it and
        # wait for it, so the run leaves no process behind.
        from multiprocessing import resource_tracker

        stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
        if stop is not None:
            stop()


class EstimateCI(Workload):
    name = "estimate-ci"
    why = (
        "in-process estimate() to a stated CI: 12 cold keys refine through the runner, "
        "then Zipf repeats hit the result cache, reopened from disk halfway"
    )
    tag = 4
    L = 16
    ZIPF_S = 1.1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        if tiny:
            alphas, ks, self.max_ci, self.repeats = (2.2, 3.0), (1, 4), 0.05, 40
        else:
            # max_ci sits between the half-widths of successive refine
            # rounds for every key, so no key converges by a coin flip.
            alphas, ks, self.max_ci, self.repeats = GRID_ALPHAS, (1, 4, 16), 0.023, 600
        self.keys = [(a, self.L, k) for a in alphas for k in ks]
        #: (pass, seconds) of cold and repeat requests; cold answers' counts.
        self.cold_seconds: List[Tuple[int, float]] = []
        self.hit_seconds: List[Tuple[int, float]] = []
        self.cold_counts: Dict[int, List[Tuple[int, int, int]]] = {}

    def reference_configs(self):
        return sorted({("walk", a, l, l * l, 0, None) for a, l, _ in self.keys})

    def setup(self) -> None:
        super().setup()
        self.query = importlib.import_module("repro.api.query")
        self.cache_mod = importlib.import_module("repro.serve.cache")
        self.registry_mod = importlib.import_module("repro.telemetry.registry")
        self.max_walks = importlib.import_module("repro.serve.refine").DEFAULT_MAX_WALKS
        importlib.import_module("repro.theory.predictions")  # else the first request imports it
        self.requests = [
            self.query.EstimateRequest(alpha=a, l=l, k=k, max_ci=self.max_ci) for a, l, k in self.keys
        ]

    def _cold_ok(self, request, response) -> bool:
        if response.tier != "simulation" or not response.final:
            return False
        if response.half_width > request.max_ci and response.trials < self.max_walks:
            return False
        l, k = request.l, request.k
        entry = self.reference[ref_key("walk", request.alpha, l, l * l)]
        p1 = entry["p"]
        expected = 1.0 - (1.0 - p1) ** k
        sd_answer = response.half_width / 1.96
        sd_reference = k * (1.0 - p1) ** (k - 1) * math.sqrt(p1 * (1.0 - p1) / entry["n"])
        return abs(response.p - expected) <= BAND_SIGMAS * math.hypot(sd_answer, sd_reference)

    @staticmethod
    def _same_answer(a, b) -> bool:
        fields = ("key", "p", "low", "high", "trials", "successes", "converged")
        da, db = a.to_dict(), b.to_dict()
        return all(da[f] == db[f] for f in fields)

    def run_pass(self, index: int, ledger: Ledger) -> None:
        work = self.workdir / f"pass-{index}"
        registry = self.registry_mod.RunRegistry(work / "registry")
        cache = self.cache_mod.ResultCache(work / "cache")
        rng = seeded_rng(self.seed, self.tag, index)
        order = rng.permutation(len(self.requests))
        cold = {}
        counts = self.cold_counts.setdefault(index, [])
        for i in order:
            request = self.requests[i]
            response, error, seconds = ledger.timed(
                lambda: self.query.estimate(request, cache=cache, registry=registry)
            )
            ok = error is None and self._cold_ok(request, response)
            ledger.op(seconds, response.trials if error is None else 0)
            ledger.unit(ok)
            self.cold_seconds.append((index, seconds))
            if error is None:
                cold[i] = response
                counts.append((response.successes, response.trials, request.k))
        # Repeats follow a Zipf law over the keys, most popular first in
        # the seeded cold order; halfway the cache is reopened from disk.
        weights = 1.0 / np.arange(1, len(order) + 1) ** self.ZIPF_S
        stream = rng.choice(len(order), size=self.repeats, p=weights / weights.sum())
        hits = 0
        for j, rank in enumerate(stream):
            if j == self.repeats // 2:
                cache = self.cache_mod.ResultCache(work / "cache")
            i = order[rank]
            request = self.requests[i]
            response, error, seconds = ledger.timed(
                lambda: self.query.estimate(request, cache=cache, registry=registry)
            )
            ok = (
                error is None
                and i in cold
                and response.tier == "cache"
                and self._same_answer(response, cold[i])
            )
            ledger.op(seconds, 0)
            ledger.unit(ok)
            self.hit_seconds.append((index, seconds))
            hits += error is None and response.tier == "cache"
        self._extra(index, "serve.cache_bytes", directory_bytes(work / "cache"))
        self._extra(index, "serve.cache_hits", hits)

    def after_pass(self, index: int) -> None:
        shutil.rmtree(self.workdir / f"pass-{index}", ignore_errors=True)

    def _fewest_trials(self, successes: int, trials: int, k: int) -> int:
        """Fewest trials whose k-walker CI meets ``max_ci`` at the final p."""
        p1 = successes / trials
        lo, hi = 1, trials
        while lo < hi:
            mid = (lo + hi) // 2
            interval = self.query.parallel_interval(round(p1 * mid), mid, k)
            if 0.5 * (interval["high"] - interval["low"]) <= self.max_ci:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def walks_to_ci(self, index: int) -> int:
        """Trials summed over the cold answers of one pass."""
        return sum(trials for _, trials, _ in self.cold_counts.get(index, []))

    def exact_counts(self, passes):
        return {"walks_to_ci": ("walks", [self.walks_to_ci(i) for i in passes])}

    def layer_extras(self, ledger, traced):
        untraced = {index for _, _, index, is_traced in ledger.ops if not is_traced}
        cold = [s for i, s in self.cold_seconds if i in untraced]
        hits = [s for i, s in self.hit_seconds if i in untraced]
        counts = [c for i in traced for c in self.cold_counts.get(i, [])]
        used = sum(trials for _, trials, _ in counts)
        useful = sum(self._fewest_trials(s, t, k) for s, t, k in counts)
        return {
            "serve.cache_bytes": self._traced_mean(traced, "serve.cache_bytes"),
            "serve.cache_hits": self._traced_mean(traced, "serve.cache_hits"),
            "serve.walks_to_ci": used / max(1, len(traced)),
            "serve.useful_walk_frac": useful / used if used else 0.0,
            "serve.cold_p50_ms": median(cold) * 1e3 if cold else 0.0,
            "serve.hit_p50_us": median(hits) * 1e6 if hits else 0.0,
        }


WORKLOAD_TYPES = {w.name: w for w in (NarrowBatch, WideBatch, SweepPool, EstimateCI)}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOAD_TYPES[name](seed, tiny)


def reference_configs() -> List[tuple]:
    """Every law any workload checks, full or tiny size."""
    configs = set()
    for cls in WORKLOAD_TYPES.values():
        for tiny in (False, True):
            configs.update(cls(0, tiny).reference_configs())
    return sorted(configs, key=str)
