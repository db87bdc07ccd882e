"""Tests for the telemetry subsystem: metrics, event logs, spans, wiring.

The acceptance bar (observability ISSUE): with an event log enabled, a
run that is killed and resumed yields a JSONL log from which
``repro-experiment report`` reconstructs the full chunk timeline --
including the quarantined checkpoint and the retried chunks -- and with
telemetry disabled (the default) nothing is recorded anywhere.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.vectorized import flight_hitting_times, walk_hitting_times
from repro.io_utils import CorruptResultError
from repro.runner import (
    FaultInjected,
    FaultInjector,
    HittingTimeTask,
    Runner,
    arm,
)
from repro.telemetry import (
    DECADE_BOUNDS,
    EventLogWriter,
    MetricsRegistry,
    NullRecorder,
    TelemetryRecorder,
    get_recorder,
    read_events,
    render_report,
    summarize_events,
    use_recorder,
)

LAW = ZetaJumpDistribution(2.5)


def make_task() -> HittingTimeTask:
    return HittingTimeTask(jumps=LAW, target=(5, 3), horizon=150)


# ------------------------------------------------------------------- metrics


def test_counter_accumulates_and_rejects_decrease():
    registry = MetricsRegistry()
    counter = registry.counter("x.events")
    counter.add()
    counter.add(4)
    assert registry.counter("x.events").value == 5  # get-or-create, same object
    with pytest.raises(ValueError):
        counter.add(-1)


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    registry.gauge("x.rate").set(10.0)
    registry.gauge("x.rate").set(2.5)
    assert registry.gauge("x.rate").value == 2.5


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry()
    hist = registry.histogram("x.seconds", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    assert hist.counts == [1, 1, 1, 1]  # under, two interior, overflow
    assert hist.total == 4
    assert hist.min == 0.5 and hist.max == 500.0


def test_histogram_bulk_bucket_counts():
    registry = MetricsRegistry()
    hist = registry.histogram("x.decades", bounds=DECADE_BOUNDS)
    counts = np.bincount(
        np.digitize([0, 3, 30, 30], DECADE_BOUNDS), minlength=len(DECADE_BOUNDS) + 1
    )
    hist.add_bucket_counts(counts.tolist())
    assert hist.total == 4
    assert hist.counts[0] == 1  # d < 1 (lazy)
    assert hist.counts[1] == 1  # 1 <= d < 10
    assert hist.counts[2] == 2  # 10 <= d < 100
    with pytest.raises(ValueError):
        hist.add_bucket_counts([0] * (len(DECADE_BOUNDS) + 2))


def test_registry_rejects_kind_and_bounds_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")
    registry.histogram("h", bounds=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h", bounds=(1.0, 3.0))


def test_snapshot_write_json(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").add(2)
    registry.gauge("b").set(1.5)
    registry.histogram("c", bounds=(1.0,)).observe(0.5)
    path = tmp_path / "metrics.json"
    registry.write_json(path)
    snapshot = json.loads(path.read_text())
    assert snapshot["a"] == {"type": "counter", "value": 2}
    assert snapshot["b"]["value"] == 1.5
    assert snapshot["c"]["counts"] == [1, 0]


# ---------------------------------------------------------------- event logs


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLogWriter(path) as writer:
        writer.write({"type": "a", "n": 1})
        writer.write({"type": "b", "n": 2})
    events = read_events(path)
    assert [event["type"] for event in events] == ["log_open", "a", "b", "log_close"]
    assert events[0]["schema"] == telemetry.SCHEMA_VERSION


def test_event_log_tolerates_truncated_final_line(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLogWriter(path) as writer:
        writer.write({"type": "a"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type":"torn-by-a-ki')  # kill signature: no newline
    events = read_events(path, strict=True)  # even strict tolerates the tail
    assert [event["type"] for event in events] == ["log_open", "a", "log_close"]


def test_reopened_writer_heals_a_torn_tail(tmp_path):
    """A --resume rerun appending to a killed run's log keeps its header."""
    path = tmp_path / "events.jsonl"
    with EventLogWriter(path, run_id="a") as writer:
        writer.write({"type": "chunk_end", "chunk": 0})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type":"chunk_end"')  # kill signature: no newline
    with EventLogWriter(path, run_id="b") as writer:
        writer.write({"type": "chunk_end", "chunk": 1})
    events = read_events(path, strict=True)
    headers = [e["run_id"] for e in events if e["type"] == "log_open"]
    assert headers == ["a", "b"]
    assert [e["type"] for e in events].count("log_close") == 2


def test_event_log_strict_rejects_interior_corruption(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"type":"a"}\nnot json at all\n{"type":"b"}\n')
    assert [e["type"] for e in read_events(path)] == ["a", "b"]  # default skips
    with pytest.raises(CorruptResultError):
        read_events(path, strict=True)


def test_writer_refuses_after_close(tmp_path):
    writer = EventLogWriter(tmp_path / "events.jsonl")
    writer.close()
    with pytest.raises(ValueError):
        writer.write({"type": "late"})


def test_writer_buffers_until_flush(tmp_path):
    path = tmp_path / "events.jsonl"
    writer = EventLogWriter(path)
    try:
        # log_open is flushed eagerly; subsequent events sit in memory.
        assert [e["type"] for e in read_events(path)] == ["log_open"]
        writer.write({"type": "a"})
        writer.write({"type": "b"})
        assert [e["type"] for e in read_events(path)] == ["log_open"]
        writer.flush()
        assert [e["type"] for e in read_events(path)] == ["log_open", "a", "b"]
    finally:
        writer.close()
    assert [e["type"] for e in read_events(path)][-1] == "log_close"


def test_writer_auto_flushes_past_threshold(tmp_path):
    path = tmp_path / "events.jsonl"
    writer = EventLogWriter(path, auto_flush_bytes=256)
    try:
        for n in range(40):  # ~25 bytes/line blows the 256-byte buffer fast
            writer.write({"type": "tick", "n": n})
        on_disk = read_events(path)
        assert len(on_disk) > 1  # auto-flush ran without an explicit flush()
    finally:
        writer.close()


def test_recorder_flushes_chunk_boundaries_buffers_rest(tmp_path):
    """Boundary events land on disk immediately; chatter waits in memory."""
    path = tmp_path / "events.jsonl"
    recorder = TelemetryRecorder(writer=EventLogWriter(path))
    recorder.event("span_start", name="x")  # not a flush type
    assert "span_start" not in {e["type"] for e in read_events(path)}
    recorder.event("chunk_end", chunk=0, n=10, seconds=0.1)  # flush type
    types = [e["type"] for e in read_events(path)]
    assert types == ["log_open", "span_start", "chunk_end"]
    recorder.close()


# ------------------------------------------------------------------ recorder


def test_default_recorder_is_disabled_null():
    recorder = get_recorder()
    assert isinstance(recorder, NullRecorder)
    assert recorder.enabled is False
    with recorder.span("anything"):
        recorder.event("ignored")  # must not raise, must not record


def test_events_carry_time_context_and_span(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=path, context={"seed": 7})
    try:
        recorder.bind(experiment="EXP-X")
        with recorder.span("outer") as outer_id:
            with recorder.span("inner") as inner_id:
                recorder.event("probe", detail="deep")
        recorder.unbind("experiment")
        recorder.event("probe", detail="shallow")
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    events = read_events(path)
    deep = next(e for e in events if e.get("detail") == "deep")
    assert deep["seed"] == 7 and deep["experiment"] == "EXP-X"
    assert deep["span"] == inner_id and deep["t"] >= 0.0
    inner_start = next(
        e for e in events if e["type"] == "span_start" and e["name"] == "inner"
    )
    assert inner_start["parent"] == outer_id
    shallow = next(e for e in events if e.get("detail") == "shallow")
    assert "experiment" not in shallow and "span" not in shallow
    ends = [e for e in events if e["type"] == "span_end"]
    assert all(e["ok"] for e in ends) and all(e["seconds"] >= 0.0 for e in ends)


def test_span_end_emitted_on_raise(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = TelemetryRecorder(writer=EventLogWriter(path))
    with pytest.raises(RuntimeError):
        with recorder.span("doomed"):
            raise RuntimeError("boom")
    recorder.close()
    end = next(e for e in read_events(path) if e["type"] == "span_end")
    assert end["ok"] is False and end["error"] == "RuntimeError"


def test_bound_context_restores_previous_values():
    recorder = TelemetryRecorder()
    recorder.bind(scale="smoke")
    with recorder.bound(scale="full", extra=1):
        assert recorder.context == {"scale": "full", "extra": 1}
    assert recorder.context == {"scale": "smoke"}


def test_use_recorder_restores_global_seam():
    original = get_recorder()
    with use_recorder(TelemetryRecorder()) as recorder:
        assert get_recorder() is recorder
    assert get_recorder() is original


# --------------------------------------------------------------- runner wiring


def test_serial_run_emits_lifecycle_events(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=path)
    try:
        Runner(checkpoint_dir=tmp_path / "ckpt", n_chunks=3, recorder=recorder).run(
            make_task(), 300, 42, label="t1"
        )
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    events = read_events(path)
    types = [event["type"] for event in events]
    assert types[0] == "log_open"
    assert types.count("run_start") == 1 and types.count("run_end") == 1
    assert types.count("chunk_start") == 3 and types.count("chunk_end") == 3
    assert types.count("checkpoint") == 3
    run_end = next(e for e in events if e["type"] == "run_end")
    assert run_end["completed"] == 3 and not run_end["degraded"]
    assert all(e["label"] == "t1" for e in events if e["type"] == "chunk_end")
    metrics = recorder.metrics.snapshot()
    assert metrics["runner.chunks_completed"]["value"] == 3
    assert metrics["runner.checkpoints_written"]["value"] == 3
    assert metrics["engine.jumps_sampled"]["value"] > 0


def test_deadline_run_emits_deadline_event(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=path)
    try:
        outcome = Runner(n_chunks=3, max_seconds=0.0, recorder=recorder).run(
            make_task(), 300, 42
        )
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    assert outcome.degraded
    events = read_events(path)
    deadlines = [e for e in events if e["type"] == "deadline"]
    assert len(deadlines) == 1  # emitted once, not once per skipped chunk
    assert next(e for e in events if e["type"] == "run_end")["degraded"]


def test_kill_and_resume_log_reconstructs_timeline(tmp_path):
    """Acceptance: one log across kill + resume; report shows everything."""
    log = tmp_path / "events.jsonl"
    ckpt = tmp_path / "ckpt"
    injector = FaultInjector(
        "corrupt-checkpoint", chunk_index=1, arm_file=str(tmp_path / "armed")
    )
    arm(injector)

    recorder = telemetry.configure(log_path=log)
    try:
        with pytest.raises(FaultInjected):
            Runner(
                checkpoint_dir=ckpt,
                n_chunks=4,
                fault_injector=injector,
                recorder=recorder,
            ).run(make_task(), 400, 42, label="t1")
    finally:
        recorder.close()
        telemetry.set_recorder(None)

    # Second process appends to the *same* log (a new log_open header).
    recorder = telemetry.configure(log_path=log)
    try:
        outcome = Runner(checkpoint_dir=ckpt, n_chunks=4, resume=True, recorder=recorder).run(
            make_task(), 400, 42, label="t1"
        )
    finally:
        recorder.close()
        telemetry.set_recorder(None)

    reference = Runner(n_chunks=4).run(make_task(), 400, 42).payload
    np.testing.assert_array_equal(outcome.payload.times, reference.times)

    events = read_events(log)
    summary = summarize_events(events)
    assert len(summary["runs"]) == 2
    first, second = summary["runs"]
    assert first.status == "unfinished"  # killed before run_end
    assert second.status == "ok"
    assert second.resumed == outcome.resumed_chunks
    # The garbled chunk-1 checkpoint was quarantined, then recomputed.
    assert any(e["type"] == "quarantine" for e in events)
    assert any(e["type"] == "fault_injected" for e in events)
    resumed_indices = {e["chunk"] for e in summary["chunks"] if e["run"] == second.key}
    assert 1 in resumed_indices  # the quarantined chunk was recomputed
    # All four chunks appear exactly once across the two invocations.
    all_chunks = sorted(e["chunk"] for e in summary["chunks"])
    assert all_chunks == [0, 1, 2, 3]

    report = render_report(events)
    assert "runner invocations" in report
    assert "chunk timeline" in report
    assert "incidents" in report
    assert "quarantine" in report
    assert "unfinished" in report and "ok" in report


def test_pool_run_emits_chunk_events(tmp_path):
    path = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=path)
    try:
        Runner(n_chunks=4, workers=2, recorder=recorder).run(make_task(), 400, 42)
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    events = read_events(path)
    assert len([e for e in events if e["type"] == "chunk_end"]) == 4
    assert {e["chunk"] for e in events if e["type"] == "chunk_start"} == {0, 1, 2, 3}


# --------------------------------------------------------------- engine wiring


def test_engine_metrics_recorded_when_enabled():
    with use_recorder(TelemetryRecorder()) as recorder:
        walk_hitting_times(LAW, (5, 3), horizon=100, n=200, rng=np.random.default_rng(0))
        flight_hitting_times(LAW, (5, 3), horizon=50, n=200, rng=np.random.default_rng(1))
    snapshot = recorder.metrics.snapshot()
    assert snapshot["engine.walk.samples"]["value"] == 200
    assert snapshot["engine.flight.samples"]["value"] == 200
    assert snapshot["engine.steps_simulated"]["value"] > 0
    assert snapshot["engine.jumps_sampled"]["value"] > 0
    assert "engine.jump_length_decades" not in snapshot  # metric removed


def test_engine_records_nothing_when_disabled():
    recorder = get_recorder()
    assert recorder.enabled is False
    walk_hitting_times(LAW, (5, 3), horizon=100, n=200, rng=np.random.default_rng(0))
    assert recorder.metrics.snapshot() == {}


def test_telemetry_does_not_perturb_results():
    baseline = walk_hitting_times(LAW, (5, 3), horizon=150, n=300, rng=np.random.default_rng(7))
    with use_recorder(TelemetryRecorder()):
        traced = walk_hitting_times(LAW, (5, 3), horizon=150, n=300, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(baseline.times, traced.times)


# ------------------------------------------------------------------ heartbeat


def test_progress_heartbeat_lines(tmp_path):
    import io

    stream = io.StringIO()
    recorder = TelemetryRecorder(progress=stream)
    recorder.event("run_start", n_total=100, n_chunks=4, label="t1")
    recorder.event("chunk_end", chunk=0, n=25, seconds=0.5, label="t1")
    recorder.event("chunk_start", chunk=1)  # not a progress type: silent
    recorder.event("run_end", completed=4, total=4, degraded=False, label="t1")
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3
    assert "run start: 100 walks in 4 chunks" in lines[0]
    assert "chunk 0 done" in lines[1] and "[t1]" in lines[1]
    assert "run end: 4/4 chunks" in lines[2]
