"""Recovery-matrix tests for the fault-tolerant chunked runner.

The acceptance bar (ISSUE 1): for a fixed seed, a run that is killed via
each :class:`FaultInjector` mode and resumed yields a sample identical to
an uninterrupted run, and a deadline-expired run returns a valid partial
sample flagged as degraded rather than raising.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.multi_target import multi_target_search
from repro.engine.vectorized import walk_hitting_times
from repro.io_utils import CorruptResultError
from repro.runner import (
    CheckpointExistsError,
    CheckpointMismatchError,
    ChunkFailedError,
    ChunkPlan,
    FaultInjected,
    FaultInjector,
    ForagingTask,
    HittingTimeTask,
    RetryPolicy,
    Runner,
    RunnerState,
    arm,
    trap_signals,
)

LAW = ZetaJumpDistribution(2.5)
TARGET = (5, 3)
HORIZON = 150
N_WALKS = 400
N_CHUNKS = 4
SEED = 42


def make_task() -> HittingTimeTask:
    return HittingTimeTask(jumps=LAW, target=TARGET, horizon=HORIZON)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted chunked sample every recovery test must match."""
    return Runner(n_chunks=N_CHUNKS).run(make_task(), N_WALKS, SEED).payload


# ---------------------------------------------------------------- chunk plans


def test_chunk_plan_sizes_and_offsets():
    plan = ChunkPlan(n_total=10, n_chunks=3, seed=0)
    assert plan.sizes() == [4, 3, 3]
    assert plan.offsets() == [0, 4, 7]
    assert sum(plan.sizes()) == 10


def test_chunk_plan_child_seeds_are_deterministic():
    a = ChunkPlan(n_total=100, n_chunks=5, seed=9).child_seeds()
    b = ChunkPlan(n_total=100, n_chunks=5, seed=9).child_seeds()
    for left, right in zip(a, b):
        assert left.generate_state(4).tolist() == right.generate_state(4).tolist()


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_runner_rejects_non_positive_chunk_timeout(timeout):
    # A zero timeout would declare every pooled chunk hung.
    with pytest.raises(ValueError, match="chunk_timeout"):
        Runner(workers=1, chunk_timeout=timeout)


def test_chunk_plan_validation():
    with pytest.raises(ValueError):
        ChunkPlan(n_total=0, n_chunks=1, seed=0)
    with pytest.raises(ValueError):
        ChunkPlan(n_total=4, n_chunks=5, seed=0)
    with pytest.raises(ValueError):
        ChunkPlan(n_total=4, n_chunks=2, seed=0).chunk(2)


# -------------------------------------------------------------- determinism


def test_chunked_run_is_deterministic(reference):
    again = Runner(n_chunks=N_CHUNKS).run(make_task(), N_WALKS, SEED).payload
    np.testing.assert_array_equal(again.times, reference.times)
    assert again.horizon == reference.horizon


def test_chunked_equals_manual_per_chunk_execution(reference):
    """The runner's contract: concat of independently seeded chunk runs."""
    plan = ChunkPlan(n_total=N_WALKS, n_chunks=N_CHUNKS, seed=SEED)
    pieces = [
        walk_hitting_times(
            LAW, TARGET, horizon=HORIZON, n=size, rng=np.random.default_rng(child)
        ).times
        for size, child in zip(plan.sizes(), plan.child_seeds())
    ]
    np.testing.assert_array_equal(np.concatenate(pieces), reference.times)


def test_pool_matches_serial(reference):
    outcome = Runner(n_chunks=N_CHUNKS, workers=2).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)


def test_checkpointed_matches_uncheckpointed(tmp_path, reference):
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    state = RunnerState.load(tmp_path / "sample")
    assert state.completed_indices == list(range(N_CHUNKS))


# ---------------------------------------------------------- crash-and-resume


@pytest.mark.parametrize(
    "mode", ["crash-before-write", "crash-after-write", "corrupt-checkpoint"]
)
def test_kill_and_resume_reproduces_single_shot(tmp_path, reference, mode):
    injector = FaultInjector(mode, chunk_index=2, arm_file=str(tmp_path / "armed"))
    arm(injector)
    with pytest.raises(FaultInjected):
        Runner(
            checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, fault_injector=injector
        ).run(make_task(), N_WALKS, SEED)
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    if mode == "crash-before-write":
        assert outcome.resumed_chunks == 2  # chunk 2 never reached disk
    elif mode == "crash-after-write":
        assert outcome.resumed_chunks == 3  # chunk 2 was durable before the crash
    else:
        assert outcome.quarantined  # garbled payload moved aside, recomputed
        assert outcome.resumed_chunks == 2


def test_hard_kill_subprocess_and_resume(tmp_path, reference):
    """A real ``os._exit`` kill (not an exception), then an in-process resume."""
    src_dir = Path(__file__).resolve().parents[1] / "src"
    script = f"""
import sys
sys.path.insert(0, {str(src_dir)!r})
from repro.distributions.zeta import ZetaJumpDistribution
from repro.runner import FaultInjector, HittingTimeTask, Runner, arm
injector = FaultInjector(
    "crash-after-write", chunk_index=1, arm_file={str(tmp_path / "armed")!r},
    hard_exit=True,
)
arm(injector)
task = HittingTimeTask(jumps=ZetaJumpDistribution(2.5), target={TARGET!r}, horizon={HORIZON})
Runner(checkpoint_dir={str(tmp_path)!r}, n_chunks={N_CHUNKS}, fault_injector=injector).run(
    task, {N_WALKS}, {SEED}
)
"""
    process = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert process.returncode == FaultInjector.EXIT_CODE, process.stderr
    state = RunnerState.load(tmp_path / "sample")
    assert state.completed_indices == [0, 1]
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.resumed_chunks == 2


def test_hang_timeout_retry(tmp_path, reference):
    injector = FaultInjector(
        "hang", chunk_index=1, arm_file=str(tmp_path / "armed"), hang_seconds=60.0
    )
    arm(injector)
    outcome = Runner(
        checkpoint_dir=tmp_path,
        n_chunks=N_CHUNKS,
        workers=1,
        chunk_timeout=1.0,
        fault_injector=injector,
        retry_policy=RetryPolicy(backoff_base=0.01),
    ).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.retries >= 1
    assert not Path(tmp_path / "armed").exists()


def test_worker_death_retry(tmp_path, reference):
    injector = FaultInjector(
        "worker-kill", chunk_index=0, arm_file=str(tmp_path / "armed")
    )
    arm(injector)
    outcome = Runner(
        checkpoint_dir=tmp_path,
        n_chunks=N_CHUNKS,
        workers=2,
        fault_injector=injector,
        retry_policy=RetryPolicy(backoff_base=0.01),
    ).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.retries >= 1


class AlwaysFailingTask:
    """Picklable task that fails on every attempt (retry-budget test)."""

    kind = "hitting"

    def __call__(self, n, seed):
        raise RuntimeError("synthetic permanent failure")

    def merge(self, plan, chunks):  # pragma: no cover - never reached
        raise AssertionError


def test_retry_budget_exhaustion_raises():
    with pytest.raises(ChunkFailedError):
        Runner(
            n_chunks=2,
            workers=1,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        ).run(AlwaysFailingTask(), 10, SEED)


# ------------------------------------------------- damaged checkpoint loads


def _complete_checkpoint(tmp_path):
    Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS).run(make_task(), N_WALKS, SEED)
    return tmp_path / "sample"


def test_truncated_npz_quarantined_and_recomputed(tmp_path, reference):
    run_dir = _complete_checkpoint(tmp_path)
    payload = run_dir / "chunks" / "chunk_00001.npz"
    payload.write_bytes(payload.read_bytes()[:20])
    state = RunnerState.load(run_dir)
    assert state.completed_indices == [0, 2, 3]
    assert state.quarantined
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(outcome.payload.times, reference.times)


def test_stale_schema_version_quarantined(tmp_path, reference):
    import json

    run_dir = _complete_checkpoint(tmp_path)
    manifest_path = run_dir / "chunks" / "chunk_00002.json"
    meta = json.loads(manifest_path.read_text())
    meta["schema_version"] = 0
    manifest_path.write_text(json.dumps(meta))
    state = RunnerState.load(run_dir)
    assert 2 not in state.completed_indices
    assert state.quarantined
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(outcome.payload.times, reference.times)


def test_uncommitted_payload_without_manifest_quarantined(tmp_path):
    run_dir = _complete_checkpoint(tmp_path)
    (run_dir / "chunks" / "chunk_00003.json").unlink()
    state = RunnerState.load(run_dir)
    assert state.completed_indices == [0, 1, 2]
    assert state.quarantined


def test_runner_state_load_empty_directory(tmp_path):
    state = RunnerState.load(tmp_path / "nothing-here")
    assert state.manifest is None
    assert state.completed == {}


def test_existing_checkpoint_without_resume_refused(tmp_path):
    _complete_checkpoint(tmp_path)
    with pytest.raises(CheckpointExistsError):
        Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS).run(
            make_task(), N_WALKS, SEED
        )


def test_resume_with_different_run_identity_refused(tmp_path):
    _complete_checkpoint(tmp_path)
    with pytest.raises(CheckpointMismatchError):
        Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
            make_task(), N_WALKS, SEED + 1
        )


def test_resume_onto_schema_v1_checkpoint_refused(tmp_path, reference):
    # Schema 1 chunks were drawn before the staged engine blocks changed
    # which samples a seed yields; resuming must not mix the two streams.
    import json

    run_dir = _complete_checkpoint(tmp_path)
    for path in [run_dir / "manifest.json", *(run_dir / "chunks").glob("*.json")]:
        meta = json.loads(path.read_text())
        meta["schema_version"] = 1
        path.write_text(json.dumps(meta))
    with pytest.raises(CheckpointMismatchError, match="schema_version"):
        Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
            make_task(), N_WALKS, SEED
        )
    fresh = Runner(checkpoint_dir=tmp_path / "fresh", n_chunks=N_CHUNKS).run(
        make_task(), N_WALKS, SEED
    )
    np.testing.assert_array_equal(fresh.payload.times, reference.times)


def test_garbage_run_manifest_raises_corrupt_error(tmp_path):
    run_dir = _complete_checkpoint(tmp_path)
    (run_dir / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptResultError):
        RunnerState.load(run_dir)


# ----------------------------------------------------- deadline degradation


class SlowTask:
    """Picklable wrapper adding a fixed delay per chunk."""

    kind = "hitting"

    def __init__(self, delay: float) -> None:
        self.inner = make_task()
        self.delay = delay

    def __call__(self, n, seed):
        time.sleep(self.delay)
        return self.inner(n, seed)

    def merge(self, plan, chunks):
        return self.inner.merge(plan, chunks)


def test_deadline_returns_degraded_partial_sample():
    runner = Runner(n_chunks=8, max_seconds=0.8)
    outcome = runner.run(SlowTask(0.25), N_WALKS, SEED)
    assert outcome.degraded and not outcome.interrupted
    assert 0 < outcome.completed_chunks < outcome.total_chunks
    payload = outcome.payload
    assert 0 < payload.n < N_WALKS  # a valid, smaller censored sample
    assert payload.horizon == HORIZON
    assert runner.degraded  # aggregate flag feeds the CLI's exit code
    assert any("degraded" in note for note in outcome.notes)


def test_degraded_checkpoint_can_be_resumed_to_completion(tmp_path, reference):
    task = SlowTask(0.3)
    Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, max_seconds=0.4).run(
        task, N_WALKS, SEED
    )
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        task, N_WALKS, SEED
    )
    assert outcome.complete
    np.testing.assert_array_equal(outcome.payload.times, reference.times)


# ------------------------------------------------------------------ signals


class SignalingTask:
    """Sends SIGTERM to the current process once, after the first chunk."""

    kind = "hitting"

    def __init__(self, arm_file: str) -> None:
        self.inner = make_task()
        self.arm_file = arm_file

    def __call__(self, n, seed):
        payload = self.inner(n, seed)
        try:
            os.unlink(self.arm_file)
        except FileNotFoundError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGTERM)
        return payload

    def merge(self, plan, chunks):
        return self.inner.merge(plan, chunks)


def test_sigterm_checkpoints_and_resumes(tmp_path, reference):
    arm_file = tmp_path / "armed"
    arm_file.touch()
    task = SignalingTask(str(arm_file))
    with trap_signals():
        outcome = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS).run(
            task, N_WALKS, SEED
        )
    assert outcome.interrupted and not outcome.degraded
    assert outcome.completed_chunks == 1
    resumed = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        task, N_WALKS, SEED
    )
    assert resumed.complete
    np.testing.assert_array_equal(resumed.payload.times, reference.times)


# ----------------------------------------------------------------- foraging


def test_foraging_chunks_merge_like_one_big_run():
    targets = ((3, 1), (0, 4), (-2, -2), (6, 0))
    task = ForagingTask(jumps=LAW, targets=targets, horizon=HORIZON)
    outcome = Runner(n_chunks=3).run(task, 90, SEED)
    plan = ChunkPlan(n_total=90, n_chunks=3, seed=SEED)
    # Manual reference: per-chunk engine runs merged by earliest crossing.
    best_time = np.full(len(targets), np.iinfo(np.int64).max, dtype=np.int64)
    best_walk = np.full(len(targets), -1, dtype=np.int64)
    for offset, size, child in zip(plan.offsets(), plan.sizes(), plan.child_seeds()):
        result = multi_target_search(
            LAW, list(targets), horizon=HORIZON, n=size, rng=np.random.default_rng(child)
        )
        observed = np.where(
            result.discovery_times < 0, np.iinfo(np.int64).max, result.discovery_times
        )
        better = observed < best_time
        best_time = np.where(better, observed, best_time)
        best_walk = np.where(
            better,
            np.where(result.discoverer >= 0, result.discoverer + offset, -1),
            best_walk,
        )
    expected_times = np.where(
        best_time == np.iinfo(np.int64).max, -1, best_time
    )
    np.testing.assert_array_equal(outcome.payload.discovery_times, expected_times)
    np.testing.assert_array_equal(outcome.payload.discoverer, best_walk)


def test_foraging_kill_and_resume(tmp_path):
    targets = ((3, 1), (0, 4), (-2, -2))
    task = ForagingTask(jumps=LAW, targets=targets, horizon=HORIZON)
    reference = Runner(n_chunks=3).run(task, 90, SEED).payload
    injector = FaultInjector(
        "crash-before-write", chunk_index=1, arm_file=str(tmp_path / "armed")
    )
    arm(injector)
    with pytest.raises(FaultInjected):
        Runner(checkpoint_dir=tmp_path, n_chunks=3, fault_injector=injector).run(
            task, 90, SEED
        )
    outcome = Runner(checkpoint_dir=tmp_path, n_chunks=3, resume=True).run(
        task, 90, SEED
    )
    np.testing.assert_array_equal(
        outcome.payload.discovery_times, reference.discovery_times
    )
    np.testing.assert_array_equal(outcome.payload.discoverer, reference.discoverer)
