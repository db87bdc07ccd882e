"""Shared CDF-table segments and the pooled result pipe.

Pooled runs publish their inverse-CDF tables through POSIX shared memory
and ship chunk results back over the executor's pickle pipe.  The bar:
pooled samples are bit-identical to ``workers=0`` for every payload
kind, with or without shared tables; no segment outlives a run, even one
whose worker was SIGKILLed; ``chunk_end`` events account the pickled
payload; and event logs written while result slabs existed still load.
"""

import pickle

import numpy as np
import pytest

from repro.distributions.cdf_table import JumpCdfTable, get_table
from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine import shm
from repro.engine.results import HittingTimeSample
from repro.runner import (
    ChaosFault,
    ChaosPlan,
    ForagingTask,
    HittingTimeTask,
    Runner,
    RetryPolicy,
)
from repro.telemetry import render_report
from repro.telemetry.events import read_events
from repro.telemetry.profile import render_profile
from repro.telemetry.recorder import NullRecorder, configure, set_recorder

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

LAW = ZetaJumpDistribution(2.5)
TARGET = (5, 3)
HORIZON = 150
N_WALKS = 400
N_CHUNKS = 4
SEED = 42


def make_task() -> HittingTimeTask:
    return HittingTimeTask(jumps=LAW, target=TARGET, horizon=HORIZON)


def run_pooled(**kw) -> HittingTimeSample:
    runner = Runner(workers=2, n_chunks=N_CHUNKS, **kw)
    return runner.run(make_task(), N_WALKS, SEED).payload


def logged_chunk_ends(tmp_path):
    log = tmp_path / "events.jsonl"
    rec = configure(log_path=log)
    try:
        run_pooled(recorder=rec)
    finally:
        set_recorder(NullRecorder())
    return [e for e in read_events(log) if e.get("type") == "chunk_end"]


# ----------------------------------------------------------------- unit layer


def test_registry_publishes_tables_and_unlinks_on_close():
    registry = shm.SharedTableRegistry()
    registry.publish(2.5, 0.0, LAW.cap)
    descriptors = registry.descriptors()
    assert len(descriptors) == 1
    assert registry.nbytes > 0
    assert shm.list_segments(registry.prefix)
    registry.close()
    assert shm.list_segments(registry.prefix) == []
    registry.close()  # idempotent


def test_attach_tables_reconstructs_bitwise_equal_cdf():
    registry = shm.SharedTableRegistry()
    try:
        local = get_table(2.5, 0.0, LAW.cap).cdf.copy()
        registry.publish(2.5, 0.0, LAW.cap)
        before = shm.attached_table_count()
        assert shm.attach_tables(registry.descriptors()) == 1
        assert shm.attached_table_count() == before + 1
        # install_table routed the shared view into the process cache:
        # the next lookup must serve the bitwise-identical table.
        np.testing.assert_array_equal(get_table(2.5, 0.0, LAW.cap).cdf, local)
        # Re-attaching the same descriptors is an idempotent no-op.
        assert shm.attach_tables(registry.descriptors()) == 0
    finally:
        registry.close()


def test_attached_table_draws_match_a_locally_built_one():
    """Workers build the lookup index from the read-only shared CDF."""
    local = JumpCdfTable(2.2, 0.5, None, get_table(2.2, 0.5).length)
    registry = shm.SharedTableRegistry()
    try:
        registry.publish(2.2, 0.5)
        assert shm.attach_tables(registry.descriptors()) == 1
        attached = get_table(2.2, 0.5)
        assert not attached.cdf.flags.writeable
        np.testing.assert_array_equal(attached.guide, local.guide)
        np.testing.assert_array_equal(
            attached.sample(np.random.default_rng(SEED), 50_000),
            local.sample(np.random.default_rng(SEED), 50_000),
        )
    finally:
        registry.close()


def test_publish_for_tasks_dedupes_by_table_key():
    registry = shm.SharedTableRegistry()
    try:
        registry.publish_for_tasks([make_task(), make_task()])
        assert len(registry.descriptors()) == 1
    finally:
        registry.close()


# ------------------------------------------------------------- identity layer


@pytest.fixture(scope="module")
def serial_reference():
    return Runner(n_chunks=N_CHUNKS).run(make_task(), N_WALKS, SEED).payload


def test_shm_transport_bit_identical_to_serial(tmp_path, serial_reference):
    """Workers that attach the published table segments match serial."""
    log = tmp_path / "events.jsonl"
    rec = configure(log_path=log)
    try:
        runner = Runner(workers=2, n_chunks=N_CHUNKS, recorder=rec)
        pooled = runner.run(make_task(), N_WALKS, SEED).payload
    finally:
        set_recorder(NullRecorder())
    assert runner.shm_prefix is not None
    tables = [e for e in read_events(log) if e.get("type") == "shm_tables"]
    assert len(tables) == 1
    assert tables[0]["tables"] == 1 and tables[0]["bytes"] > 0
    np.testing.assert_array_equal(pooled.times, serial_reference.times)


def test_pickle_transport_bit_identical_to_serial(serial_reference):
    pooled = run_pooled()
    np.testing.assert_array_equal(pooled.times, serial_reference.times)


def test_pooled_without_shared_tables_bit_identical_to_serial(
    serial_reference, monkeypatch
):
    """Hosts without named shared memory: workers derive tables locally."""
    monkeypatch.setattr(shm, "shm_available", lambda: False)
    runner = Runner(workers=2, n_chunks=N_CHUNKS)
    pooled = runner.run(make_task(), N_WALKS, SEED).payload
    assert runner.shm_prefix is None
    np.testing.assert_array_equal(pooled.times, serial_reference.times)


def test_foraging_payload_bit_identical_to_serial():
    task = ForagingTask.with_targets(
        LAW, targets=[(4, 2), (-3, 5), (9, -1)], horizon=HORIZON
    )
    serial = Runner(n_chunks=N_CHUNKS).run(task, N_WALKS, SEED).payload
    runner = Runner(workers=2, n_chunks=N_CHUNKS)
    pooled = runner.run(task, N_WALKS, SEED).payload
    np.testing.assert_array_equal(
        pooled.discovery_times, serial.discovery_times
    )
    assert runner.shm_prefix is not None
    assert shm.list_segments(runner.shm_prefix) == []


def test_no_segments_leak_after_clean_run():
    runner = Runner(workers=2, n_chunks=N_CHUNKS)
    runner.run(make_task(), N_WALKS, SEED)
    assert runner.shm_prefix is not None
    assert shm.list_segments(runner.shm_prefix) == []


# -------------------------------------------------------------- failure layer


def test_sigkilled_worker_leaves_no_segments(tmp_path, serial_reference):
    """The acceptance scenario: kill -9 mid-chunk, sweep /dev/shm after."""
    plan_dir = str(tmp_path / "arm")
    with ChaosPlan((ChaosFault("worker-kill", chunk=1),), plan_dir) as plan:
        runner = Runner(
            workers=2, n_chunks=N_CHUNKS,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base=0.01),
            fault_injector=plan,
        )
        outcome = runner.run(make_task(), N_WALKS, SEED)
    assert outcome.complete
    assert outcome.retries >= 1
    np.testing.assert_array_equal(outcome.payload.times, serial_reference.times)
    assert runner.shm_prefix is not None
    assert shm.list_segments(runner.shm_prefix) == []


# ------------------------------------------------------------ telemetry layer


def test_explicit_pickle_transport_has_no_shm_fields(tmp_path):
    """chunk_end accounts the pickled payload and nothing slab-shaped."""
    events = logged_chunk_ends(tmp_path)
    assert len(events) == N_CHUNKS
    for event in events:
        chunk = HittingTimeSample(
            times=np.zeros(event["n"], dtype=np.int64), horizon=HORIZON
        )
        assert event["ipc_bytes"] >= len(
            pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert event["pickle_seconds"] >= 0.0
        assert event["unpickle_seconds"] >= 0.0
        for retired in ("shm_bytes", "shm_seconds", "transport"):
            assert retired not in event


def test_profile_and_report_render_logs_with_retired_shm_fields(tmp_path):
    """Logs from runs that shipped results as shm slabs still load."""
    logged_chunk_ends(tmp_path)
    events = read_events(tmp_path / "events.jsonl")
    for event in events:
        if event.get("type") == "chunk_end":
            event.update(
                ipc_bytes=115, shm_bytes=3232, shm_seconds=0.0004,
                pickle_seconds=0.0, unpickle_seconds=0.0, transport="shm",
            )
    incident = dict(events[-2], type="incident", kind="shm_unavailable",
                    action="pickle-transport")
    events.insert(-1, incident)
    profile = render_profile(events)
    assert "IPC:" in profile
    assert "slowest" in profile
    assert render_report(events)
