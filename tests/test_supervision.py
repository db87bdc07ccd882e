"""Supervised execution: heartbeats, watchdog, retries, chaos matrix.

The acceptance bar (ISSUE 6): a hung pool worker is detected by the
heartbeat watchdog within the configured timeout, killed, and its chunk
rescheduled so the final merged sample is bit-identical to an unfaulted
run; a sweep containing a poison grid point quarantines that point and
completes the others at ``workers=0`` and ``workers=2``; resource
pressure degrades checkpointing to manifest-only mode instead of
crashing; and every fault in the chaos matrix ends in a classified
outcome with the documented exit code.
"""

import json
import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.cli import EXIT_QUARANTINED
from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.results import HittingTimeSample
from repro.runner import (
    ChaosFault,
    ChaosPlan,
    ChunkFailedError,
    CorruptPayloadError,
    FaultInjector,
    HittingTimeTask,
    Job,
    PoisonTask,
    ResourceGuards,
    RetryPolicy,
    Runner,
    Supervisor,
    WorkerHeartbeat,
    arm,
    chaos_plan,
    run_chaos_matrix,
    trap_signals,
)
from repro.runner.chaos import OUTCOME_EXIT_CODES, parse_fault
from repro.runner.supervision import (
    FATAL,
    TRANSIENT,
    chunk_retry_key,
    validate_payload,
)
from repro.sweep import SweepSpec, run_sweep
from repro.telemetry.events import read_events

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
    """The unfaulted chunked sample every recovery test must match."""
    return Runner(n_chunks=N_CHUNKS).run(make_task(), N_WALKS, SEED).payload


# -------------------------------------------------------------- retry policy


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(quarantine_after=0)


def test_retry_policy_classifies_transient_vs_fatal():
    policy = RetryPolicy()
    assert policy.classify(RuntimeError("boom")) == TRANSIENT
    assert policy.classify(CorruptPayloadError("torn")) == TRANSIENT
    assert policy.classify(OSError("hiccup")) == TRANSIENT
    for error in (MemoryError(), KeyboardInterrupt(), SystemExit()):
        assert policy.classify(error) == FATAL


def test_retry_policy_backoff_deterministic_seeded_jitter():
    policy = RetryPolicy(
        backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0, jitter=0.25
    )
    key = chunk_retry_key("sample", 3)
    # Reproducible: the jitter is seeded from (key, attempt), not drawn.
    assert policy.backoff(2, key) == policy.backoff(2, key)
    nominal = 0.1 * 2.0  # base * factor**(attempt-1) for attempt 2
    assert 0.75 * nominal <= policy.backoff(2, key) <= 1.25 * nominal
    # De-synchronised across chunks: different keys jitter differently.
    assert policy.backoff(2, key) != policy.backoff(2, chunk_retry_key("sample", 4))
    # Capped: huge attempt counts saturate at backoff_max (pre-jitter).
    assert policy.backoff(99, key) <= 10.0 * 1.25
    assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0
    assert chunk_retry_key("a", 1) == chunk_retry_key("a", 1)
    assert chunk_retry_key("a", 1) != chunk_retry_key("a", 2)


def test_validate_payload_screens_sizes():
    sample = HittingTimeSample(times=np.zeros(5, dtype=np.int64), horizon=10)
    assert validate_payload(sample, 5, 0) is sample
    with pytest.raises(CorruptPayloadError):
        validate_payload(sample, 6, 0)
    with pytest.raises(CorruptPayloadError):
        validate_payload(None, 5, 0)

    class NoSize:  # payload kinds without an ``n`` pass through (foraging)
        pass

    payload = NoSize()
    assert validate_payload(payload, 5, 0) is payload


class OOMTask:
    """Fatal-classified failure: must not burn the retry budget."""

    kind = "hitting"

    def __call__(self, n, seed):
        raise MemoryError("synthetic OOM")

    def merge(self, plan, chunks):  # pragma: no cover - never reached
        raise AssertionError


def test_fatal_error_stops_without_retries():
    with pytest.raises(ChunkFailedError, match="failed 1 times"):
        Runner(n_chunks=2, retry_policy=RetryPolicy(backoff_base=0.0)).run(
            OOMTask(), 10, SEED
        )


# ------------------------------------------------------ heartbeats & watchdog


def test_worker_heartbeat_touches_and_rate_limits(tmp_path):
    path = tmp_path / "chunk.hb"
    beat = WorkerHeartbeat(path, interval=60.0)
    assert path.exists() and beat.beats == 1  # immediate touch at install
    for _ in range(5):
        beat.tick()
    assert beat.beats == 1  # rate-limited: interval has not elapsed
    beat.touch(force=True)
    assert beat.beats == 2
    assert beat.enabled is False  # engine accounting stays off in workers


def test_supervisor_flags_only_silent_chunks(tmp_path):
    supervisor = Supervisor(tmp_path / "hb", timeout=0.5, poll=60.0)
    supervisor.directory.mkdir(parents=True, exist_ok=True)
    alive_path = supervisor.register("job", 0)
    hung_path = supervisor.register("job", 1)
    WorkerHeartbeat(alive_path, interval=0.0)
    WorkerHeartbeat(hung_path, interval=0.0)
    assert supervisor.scan_once() == {}  # both just beat
    # One second later the live worker has beaten again; the other is silent.
    later = time.time() + 1.0
    os.utime(alive_path, (later, later))
    newly = supervisor.scan_once(now=later + 0.1)
    assert set(newly) == {("job", 1)}
    assert newly[("job", 1)] > 0.5
    hung = supervisor.take_hung()
    assert set(hung) == {("job", 1)}
    assert supervisor.take_hung() == {}  # drained
    assert supervisor.watched() == 1
    supervisor.unregister("job", 0)
    assert supervisor.watched() == 0


def test_supervisor_catches_worker_dead_before_first_touch(tmp_path):
    supervisor = Supervisor(tmp_path / "hb", timeout=0.5, poll=60.0)
    supervisor.directory.mkdir(parents=True, exist_ok=True)
    supervisor.register("job", 2)  # heartbeat file never created
    newly = supervisor.scan_once(now=time.time() + 1.0)
    assert ("job", 2) in newly


def test_hung_worker_detected_and_rescheduled_bit_identical(tmp_path, reference):
    """Acceptance: watchdog kills the hung worker; recovered sample matches."""
    log = tmp_path / "events.jsonl"
    injector = FaultInjector(
        "hang", chunk_index=1, arm_file=str(tmp_path / "armed"), hang_seconds=60.0
    )
    arm(injector)
    recorder = telemetry.configure(log_path=log)
    try:
        outcome = Runner(
            n_chunks=N_CHUNKS,
            workers=2,
            chunk_timeout=1.0,
            fault_injector=injector,
            retry_policy=RetryPolicy(backoff_base=0.01),
            recorder=recorder,
        ).run(make_task(), N_WALKS, SEED)
        metrics = recorder.metrics.snapshot()
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.complete and outcome.retries >= 1
    events = read_events(log)
    hung = [e for e in events if e["type"] == "heartbeat" and e.get("status") == "hung"]
    assert hung and hung[0]["chunk"] == 1
    # Detected promptly after the timeout, nowhere near the 60s hang.
    assert 1.0 < hung[0]["silent"] < 30.0
    assert any(e["type"] == "pool_rebuild" for e in events)
    assert metrics["runner.hung_chunks"]["value"] >= 1


def test_slow_chunk_keeps_heartbeating_and_is_not_killed(tmp_path, reference):
    """A straggler is not a hang: ticking engines must placate the watchdog."""
    plan = ChaosPlan(
        (ChaosFault("slowdown", chunk=1, seconds=3.0),), arm_dir=str(tmp_path / "arm")
    )
    with plan:
        outcome = Runner(
            n_chunks=N_CHUNKS,
            workers=2,
            chunk_timeout=1.0,
            fault_injector=plan,
            retry_policy=RetryPolicy(backoff_base=0.01),
        ).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.complete and outcome.retries == 0


# ------------------------------------------------------------ chunk screening


def test_crash_on_first_attempts_then_recovers(tmp_path, reference):
    plan = ChaosPlan(
        (ChaosFault("crash", chunk=1, attempts=2),), arm_dir=str(tmp_path / "arm")
    )
    policy = RetryPolicy(max_attempts=4, backoff_base=0.01, backoff_max=0.05)
    with plan:
        outcome = Runner(
            n_chunks=N_CHUNKS, retry_policy=policy, fault_injector=plan
        ).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.retries == 2  # failed on attempts 1 and 2, landed on 3


def test_corrupt_return_screened_and_retried(tmp_path, reference):
    plan = ChaosPlan(
        (ChaosFault("corrupt-return", chunk=0),), arm_dir=str(tmp_path / "arm")
    )
    policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
    with plan:
        outcome = Runner(
            n_chunks=N_CHUNKS, retry_policy=policy, fault_injector=plan
        ).run(make_task(), N_WALKS, SEED)
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    assert outcome.retries == 1  # the swapped payload never reached the merge


# ------------------------------------------------------------------ quarantine


@pytest.mark.parametrize("workers", [0, 2])
def test_poison_point_quarantined_siblings_complete(workers, reference):
    """Acceptance: the breaker fences the poison point at both pool sizes."""
    policy = RetryPolicy(max_attempts=2, backoff_base=0.0, quarantine_after=2)
    runner = Runner(n_chunks=N_CHUNKS, workers=workers, retry_policy=policy)
    poison, healthy = runner.run_many(
        [
            Job(PoisonTask(make_task()), N_WALKS, SEED, label="poison"),
            Job(make_task(), N_WALKS, SEED, label="healthy"),
        ]
    )
    assert poison.quarantined_point and not poison.complete
    assert not poison.interrupted and not poison.degraded
    assert poison.payload.n == 0  # empty censored sample, still mergeable
    assert healthy.complete and not healthy.quarantined_point
    np.testing.assert_array_equal(healthy.payload.times, reference.times)
    assert runner.quarantined_points == 1
    assert OUTCOME_EXIT_CODES["quarantined"] == EXIT_QUARANTINED == 4


def _poison_or_default(params, horizon):
    from repro.sweep.spec import default_task

    task = default_task(params, horizon)
    if params["alpha"] == 9.9:  # the poisoned cell of the grid
        return PoisonTask(task)
    return task


@pytest.mark.parametrize("workers", [0, 2])
def test_sweep_with_poison_point_completes_the_grid(workers):
    spec = SweepSpec(
        axes={"alpha": (2.2, 9.9), "l": (12,)},
        n=240,
        horizon=144,
        task=_poison_or_default,
    )
    runner = Runner(
        n_chunks=N_CHUNKS,
        workers=workers,
        retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
    )
    result = run_sweep(spec, seed=SEED, runner=runner)  # sweeps arm the breaker
    healthy, poisoned = result.results
    assert poisoned.outcome.quarantined_point and poisoned.sample.n == 0
    assert healthy.outcome.complete and healthy.sample.n == 240
    assert result.quarantined_points == 1
    assert "quarantined" in result.summary_table().render()
    assert result.to_dict()["points"][1]["quarantined"] is True


def test_exhaustion_without_breaker_still_raises():
    """Back-compat: no quarantine_after means the old ChunkFailedError."""

    class Failing:
        kind = "hitting"

        def __call__(self, n, seed):
            raise RuntimeError("synthetic permanent failure")

        def merge(self, plan, chunks):  # pragma: no cover - never reached
            raise AssertionError

    with pytest.raises(ChunkFailedError):
        Runner(
            n_chunks=2, retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0)
        ).run(Failing(), 10, SEED)


# ------------------------------------------------------------ resource guards


def test_enospc_degrades_checkpointing_and_resume_recomputes(tmp_path, reference):
    guards = ResourceGuards(min_disk_mb=1.0, check_every=0.0, disk_probe=lambda: 0.0)
    runner = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resource_guards=guards)
    outcome = runner.run(make_task(), N_WALKS, SEED)
    assert outcome.complete and outcome.storage_degraded
    assert runner.storage_degraded  # aggregate flag feeds the CLI exit code
    np.testing.assert_array_equal(outcome.payload.times, reference.times)
    run_dir = tmp_path / "sample"
    assert not list(run_dir.glob("chunks/*.npz"))  # no payload writes
    manifests = sorted(run_dir.glob("chunks/*.json"))
    assert len(manifests) == N_CHUNKS
    assert all(json.loads(m.read_text()).get("degraded") for m in manifests)
    # Degraded manifests are provenance, not data: resume recomputes them.
    resumed = Runner(checkpoint_dir=tmp_path, n_chunks=N_CHUNKS, resume=True).run(
        make_task(), N_WALKS, SEED
    )
    assert resumed.complete and resumed.resumed_chunks == 0
    np.testing.assert_array_equal(resumed.payload.times, reference.times)
    assert list(run_dir.glob("chunks/*.npz"))  # the healthy rerun persists


# ---------------------------------------------------- kill-and-resume (pooled)


def test_sigterm_mid_pooled_sweep_resumes_bit_identical(tmp_path):
    """SIGTERM a workers=2 sweep mid-run; --resume completes it exactly
    once per chunk and reproduces the serial samples bit-for-bit."""
    spec = SweepSpec(axes={"alpha": (2.2, 2.8), "l": (12,)}, n=240, horizon=144)
    serial = run_sweep(spec, seed=SEED, runner=Runner(n_chunks=N_CHUNKS))
    ckpt = tmp_path / "ckpt"
    plan = ChaosPlan((ChaosFault("sigterm", chunk=1),), arm_dir=str(tmp_path / "arm"))
    with plan:
        runner = Runner(
            checkpoint_dir=ckpt,
            workers=2,
            n_chunks=N_CHUNKS,
            fault_injector=plan,
            retry_policy=RetryPolicy(backoff_base=0.01),
        )
        with trap_signals():
            first = run_sweep(spec, seed=SEED, runner=runner, label="grid")
    assert first.interrupted
    log = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=log)
    try:
        resumed = run_sweep(
            spec,
            seed=SEED,
            runner=Runner(
                checkpoint_dir=ckpt,
                workers=2,
                n_chunks=N_CHUNKS,
                resume=True,
                recorder=recorder,
            ),
            label="grid",
        )
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    assert not resumed.interrupted
    for a, b in zip(serial, resumed):
        np.testing.assert_array_equal(a.sample.times, b.sample.times)
    # No duplicate chunks: every chunk either resumed from disk or was
    # computed exactly once in the second run.
    done = [
        (e["label"], e["chunk"])
        for e in read_events(log)
        if e["type"] == "chunk_end"
    ]
    assert len(done) == len(set(done))
    assert any(r.outcome.resumed_chunks > 0 for r in resumed.results)
    for r in resumed.results:
        assert r.outcome.complete
        computed = sum(1 for label, _ in done if label == f"grid-{r.point.label}")
        assert r.outcome.resumed_chunks + computed == r.outcome.total_chunks


# ---------------------------------------------------------------- fault arming


def test_injector_arm_handle_disarms_on_exception(tmp_path):
    injector = FaultInjector("hang", chunk_index=0, arm_file=str(tmp_path / "armed"))
    with pytest.raises(RuntimeError):
        with injector.arm() as path:
            assert os.path.exists(path)
            raise RuntimeError("test body blew up")
    assert not os.path.exists(str(tmp_path / "armed"))  # no leaked arm file
    handle = injector.arm()
    assert handle.exists()
    handle.disarm()
    handle.disarm()  # idempotent
    assert not handle.exists()
    assert os.fspath(handle) == str(tmp_path / "armed")


def test_chaos_plan_parse_arm_and_exception_cleanup(tmp_path):
    fault = parse_fault("crash@3#2/7.5")
    assert fault == ChaosFault("crash", chunk=3, attempts=2, seconds=7.5)
    with pytest.raises(ValueError):
        parse_fault("nonsense")
    plan = chaos_plan("hang@1,crash@0#2", tmp_path / "arm")
    assert [f.kind for f in plan.faults] == ["hang", "crash"]
    with pytest.raises(RuntimeError):
        with plan:
            assert plan.armed(0) and plan.armed(1)
            raise RuntimeError("test body blew up")
    assert not plan.armed(0) and not plan.armed(1)


# --------------------------------------------------------------- chaos matrix


def test_chaos_matrix_smoke_subset(tmp_path):
    rows = run_chaos_matrix(
        faults=["crash", "corrupt-return", "poison"],
        workers=0,
        chunk_timeout=1.0,
        n_walks=200,
        n_chunks=2,
        seed=7,
        workdir=tmp_path,
    )
    assert [row.ok for row in rows] == [True, True, True]
    assert {row.fault: row.outcome for row in rows} == {
        "crash": "completed",
        "corrupt-return": "completed",
        "poison": "quarantined",
    }
    assert rows[-1].exit_code == EXIT_QUARANTINED
    assert all(row.bit_identical for row in rows)


# ----------------------------------------------------------- report rendering


def _supervision_events():
    return [
        {"type": "run_start", "label": "p", "n_total": 100, "n_chunks": 2, "t": 0.0},
        {"type": "chunk_start", "label": "p", "chunk": 0, "attempt": 1, "t": 0.1},
        {"type": "retry", "label": "p", "chunk": 0, "attempt": 1,
         "reason": "boom", "t": 0.2},
        {"type": "retry", "label": "p", "chunk": 0, "attempt": 2,
         "reason": "boom", "t": 0.3},
        {"type": "quarantine", "label": "p", "scope": "point", "chunk": 0,
         "failures": 2, "reason": "boom", "completed": 0, "total": 2, "t": 0.4},
        {"type": "heartbeat", "label": "p", "chunk": 1, "status": "hung",
         "silent": 2.0, "timeout": 1.0, "t": 0.5},
        {"type": "run_end", "label": "p", "completed": 0, "total": 2,
         "point_quarantined": True, "seconds": 0.6, "t": 0.6},
    ]


def test_report_renders_quarantine_and_heartbeat_sections():
    from repro.telemetry.report import render_report, summarize_events

    summary = summarize_events(_supervision_events())
    assert len(summary["quarantined_points"]) == 1
    assert summary["runs"][0].status == "quarantined"
    incident_types = {e["type"] for e in summary["incidents"]}
    assert {"quarantine", "heartbeat"} <= incident_types
    text = render_report(_supervision_events())
    assert "quarantined points" in text
    assert "retry timeline" in text
    assert "heartbeat" in text


def test_watch_tracks_quarantined_points():
    from repro.telemetry.watch import WatchState, render_watch

    state = WatchState()
    state.consume(_supervision_events())
    assert state.quarantined == ["p"]
    assert any(e["type"] == "heartbeat" for e in state.incidents)
    assert "quarantined points" in render_watch(state)
