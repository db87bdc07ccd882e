"""Reference (object-level) Monte-Carlo estimators.

These estimators drive the exact-but-slow processes of :mod:`repro.walks`
step by step.  They exist to cross-validate the vectorized engines: the
test suite checks that, on small instances, the hitting-time distributions
produced by :func:`repro.engine.vectorized.walk_hitting_times` and by
:func:`reference_walk_hitting_times` agree statistically.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.engine.results import CENSORED, HittingTimeSample
from repro.rng import SeedLike, as_generator, spawn
from repro.walks.base import JumpProcess

IntPoint = Tuple[int, int]


def reference_hitting_times(
    make_process: Callable[[np.random.Generator], JumpProcess],
    target: IntPoint,
    *,
    horizon: int,
    n: int,
    rng: SeedLike = None,
) -> HittingTimeSample:
    """Hitting times of ``n`` processes, advanced one step at a time.

    Parameters
    ----------
    make_process:
        Factory mapping a generator to a fresh :class:`JumpProcess`
        (e.g. ``lambda g: LevyWalk(2.5, rng=g)``).
    target, horizon, n, rng:
        As in :func:`repro.engine.vectorized.walk_hitting_times`.
    """
    rng = as_generator(rng)
    n_walks = int(n)
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    for i, child in enumerate(spawn(rng, n_walks)):
        process = make_process(child)
        tau = process.hitting_time(target, horizon)
        if tau is not None:
            times[i] = tau
    return HittingTimeSample(times=times, horizon=horizon)
