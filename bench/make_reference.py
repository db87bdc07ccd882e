"""Compute ``reference.json``: law-level hit probabilities the output checks use.

Every law a workload checks -- (engine, alpha, l, horizon, radius, cap) --
gets one reference: the capped flight from its exact absorbing-chain law
(``flight_hitting_probability_exact``), walks and balls from at least a
million Monte-Carlo walks on a seed stream no workload draws from (tag 0;
workloads use tags 1-4).  The references are law-level, so they survive
a change to how seeds map to samples.

Usage (takes ~12 minutes on 2 CPUs)::

    python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import REFERENCE_PATH, import_program, ref_key  # noqa: E402
from workloads import REFERENCE_TAG, reference_configs, seeded_rng  # noqa: E402

#: Root entropy of the reference stream.
REFERENCE_SEED = 20210526
#: Monte-Carlo walks per reference, simulated in batches by a process pool.
WALKS = 1_000_000
BATCH = 20_000
WORKERS = 2


def config_id(key: str) -> int:
    """A stable per-law spawn-key component (independent of list order)."""
    return int(hashlib.sha256(key.encode()).hexdigest()[:12], 16)


def simulate(config: tuple, batch: int) -> int:
    """Hits among ``BATCH`` walks of one law, from the reference stream."""
    import_program()
    from repro.distributions.zeta import ZetaJumpDistribution
    from repro.engine.ball_targets import ball_hitting_times
    from repro.engine.vectorized import walk_hitting_times
    from repro.experiments.common import default_target

    engine, alpha, l, horizon, radius, cap = config
    law = ZetaJumpDistribution(alpha, cap=cap)
    rng = seeded_rng(REFERENCE_SEED, REFERENCE_TAG, config_id(ref_key(*config)), batch)
    if engine == "ball":
        sample = ball_hitting_times(
            law, default_target(l), radius=radius, horizon=horizon, n=BATCH, rng=rng
        )
    else:
        sample = walk_hitting_times(law, default_target(l), horizon=horizon, n=BATCH, rng=rng)
    return sample.n_hits


def exact_flight(config: tuple) -> float:
    import_program()
    from repro.distributions.zeta import ZetaJumpDistribution
    from repro.engine.exact_occupation import flight_hitting_probability_exact
    from repro.experiments.common import default_target

    _, alpha, l, horizon, _, cap = config
    law = ZetaJumpDistribution(alpha, cap=cap)
    return flight_hitting_probability_exact(law, default_target(l), horizon)[horizon]


def main() -> int:
    batches = -(-WALKS // BATCH)
    configs = reference_configs()
    entries = []
    started = time.perf_counter()
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
        futures = {}
        for config in configs:
            if config[0] != "flight":
                futures[config] = [pool.submit(simulate, config, b) for b in range(batches)]
        for config in configs:
            engine, alpha, l, horizon, radius, cap = config
            key = ref_key(*config)
            entry = {
                "key": key,
                "engine": engine,
                "alpha": alpha,
                "l": l,
                "horizon": horizon,
                "radius": radius,
                "cap": cap,
            }
            if engine == "flight":
                entry.update(p=exact_flight(config), n=None, method="exact absorbing chain")
            else:
                hits = sum(f.result() for f in futures[config])
                n = batches * BATCH
                entry.update(
                    p=hits / n,
                    hits=hits,
                    n=n,
                    method="monte-carlo",
                    seed=REFERENCE_SEED,
                    spawn_key=[REFERENCE_TAG, config_id(key), "0..%d" % (batches - 1)],
                )
            entries.append(entry)
            print(f"{key}: p={entry['p']:.6f} ({time.perf_counter() - started:.0f}s)", flush=True)
    data = {
        "description": "law-level reference hit probabilities for bench/ output checks",
        "generated_by": "python3 bench/make_reference.py",
        "batch_walks": BATCH,
        "entries": entries,
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
