"""Tests for the repro-experiment command-line interface."""

import numpy as np
import pytest

from repro.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def test_list_command(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "EXP-T1.6" in out
    assert "FIG-1..6" in out


def test_run_single_experiment(capsys):
    assert main(["run", "EXP-L3.2", "--scale", "smoke"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Lemma 3.2" in out
    assert "ALL CHECKS PASSED" in out


def test_run_with_csv_dump(tmp_path, capsys):
    code = main(
        ["run", "FIG-1..6", "--scale", "smoke", "--csv-dir", str(tmp_path)]
    )
    assert code == EXIT_OK
    files = list(tmp_path.glob("*.csv"))
    assert files, "expected CSV output"
    capsys.readouterr()


def test_run_unknown_experiment_exits_2_with_message(capsys):
    assert main(["run", "EXP-BOGUS"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "EXP-T1.6" in err  # the known-ids listing helps the user recover


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "EXP-T1.1", "--workers", "-1"],
        ["run", "EXP-T1.1", "--chunks", "0"],
        ["run", "EXP-T1.1", "--max-attempts", "0"],
        ["run", "EXP-T1.1", "--quarantine-after", "0"],
        ["run", "EXP-T1.1", "--chunk-timeout", "0"],
        ["run", "EXP-T1.1", "--chunk-timeout", "-1"],
        ["run", "EXP-T1.1", "--max-seconds", "-1"],
        ["sweep", "--l", "8", "--workers", "-1"],
        ["chaos", "--workers", "-1"],
        ["chaos", "--chunk-timeout", "0"],
    ],
)
def test_out_of_range_runner_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[-2]}" in err
    assert "Traceback" not in err


def test_removed_ring_rounds_flag_is_unknown(capsys):
    # The engines pick their block depth from the live width; there is no
    # loop switch left to set.
    with pytest.raises(SystemExit) as exc:
        main(["run", "EXP-T1.1", "--ring-rounds", "8"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --ring-rounds 8" in err
    assert "Traceback" not in err


def test_seed_changes_nothing_for_deterministic_experiment(capsys):
    main(["run", "EXP-L3.2", "--scale", "smoke", "--seed", "1"])
    first = capsys.readouterr().out
    main(["run", "EXP-L3.2", "--scale", "smoke", "--seed", "2"])
    second = capsys.readouterr().out
    assert first.replace("seed=1", "seed=S") == second.replace("seed=2", "seed=S")


# ------------------------------------------------------- sweep fault isolation


def test_run_all_survives_one_broken_experiment(monkeypatch, capsys):
    """One raising experiment must not abort the sweep (satellite task)."""
    import repro.cli as cli

    def fake_ids():
        return ["GOOD-1", "BAD-2", "GOOD-3"]

    def fake_run(experiment_id, scale="small", seed=0, runner=None):
        if experiment_id == "BAD-2":
            raise RuntimeError("synthetic harness crash")
        from repro.experiments.common import ExperimentResult

        return ExperimentResult(
            experiment_id=experiment_id, title="stub", scale=scale, seed=seed
        )

    class _Module:
        @staticmethod
        def run(scale="small", seed=0):  # signature probed by the CLI
            raise AssertionError("not called directly")

    monkeypatch.setattr(cli, "experiment_ids", fake_ids)
    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "get_experiment", lambda _id: _Module)
    code = main(["run", "all", "--scale", "smoke"])
    captured = capsys.readouterr()
    assert code == EXIT_FAILED
    assert "sweep summary" in captured.out
    assert "ERROR" in captured.out
    assert "2 passed, 0 failed, 1 errored" in captured.out
    assert "synthetic harness crash" in captured.err


# ------------------------------------------------------------- runner wiring


def test_run_with_checkpoint_dir_writes_chunks(tmp_path, capsys):
    code = main(
        [
            "run",
            "EXP-T1.1",
            "--scale",
            "smoke",
            "--checkpoint-dir",
            str(tmp_path),
            "--chunks",
            "2",
        ]
    )
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_FAILED)  # statistical checks may wobble
    payloads = list(tmp_path.rglob("chunk_*.npz"))
    manifests = list(tmp_path.rglob("manifest.json"))
    assert payloads, "expected durable chunk payloads under the checkpoint dir"
    assert manifests, "expected run manifests under the checkpoint dir"
    assert (tmp_path / "EXP-T1.1").is_dir()


def test_run_with_checkpoint_resume_is_identical(tmp_path, capsys):
    from repro.experiments.registry import run_experiment
    from repro.runner import Runner

    first = run_experiment(
        "EXP-T1.1",
        scale="smoke",
        seed=3,
        runner=Runner(checkpoint_dir=tmp_path, n_chunks=2),
    )
    again = run_experiment(
        "EXP-T1.1",
        scale="smoke",
        seed=3,
        runner=Runner(checkpoint_dir=tmp_path, n_chunks=2, resume=True),
    )
    assert first.render().strip() == again.render().strip()


def test_runner_ignored_for_unsupporting_experiment(capsys):
    # EXP-L3.2 is deterministic/analytic and has no runner parameter; the
    # CLI must say so and still succeed.
    code = main(
        ["run", "EXP-L3.2", "--scale", "smoke", "--workers", "0", "--chunks", "2"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "does not support the chunked runner" in captured.err


# ---------------------------------------------------------- telemetry wiring


def test_deadline_expiry_exits_degraded_and_logs_deadline_event(tmp_path, capsys):
    """--max-seconds expiry must exit 3 and leave a deadline event in the log."""
    import json

    from repro.cli import EXIT_DEGRADED

    log = tmp_path / "events.jsonl"
    code = main(
        [
            "run",
            "EXP-T1.1",
            "--scale",
            "smoke",
            "--max-seconds",
            "0",
            "--log-json",
            str(log),
        ]
    )
    capsys.readouterr()
    assert code == EXIT_DEGRADED
    events = [json.loads(line) for line in log.read_text().splitlines() if line]
    types = {event["type"] for event in events}
    assert "deadline" in types
    assert "run_start" in types and "run_end" in types
    deadline = next(event for event in events if event["type"] == "deadline")
    assert deadline["experiment"] == "EXP-T1.1"  # bound context travels


def test_report_command_renders_event_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    main(
        [
            "run",
            "EXP-T1.1",
            "--scale",
            "smoke",
            "--max-seconds",
            "0",
            "--log-json",
            str(log),
        ]
    )
    capsys.readouterr()
    assert main(["report", str(log)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "runner invocations" in out
    assert "incidents" in out
    assert "deadline" in out


def test_report_missing_file_exits_usage(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE
    assert "no event log" in capsys.readouterr().err


def _write_log_then_tear(tmp_path, interior_damage=False):
    """A realistic log with, optionally, a corrupt interior line, plus a
    torn final line (the kill-while-appending signature)."""
    from repro import telemetry

    log = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=log)
    try:
        recorder.event("run_start", n_total=100, n_chunks=2, label="t1")
        recorder.event("chunk_end", chunk=0, n=50, seconds=0.1, label="t1")
        recorder.event("run_end", completed=2, total=2, degraded=False, label="t1")
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    if interior_damage:
        lines = log.read_text().splitlines()
        lines[2] = '{"type": "chunk_end", torn interior garbage'
        log.write_text("\n".join(lines) + "\n")
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"type":"chunk_end","chu')  # no trailing newline
    return log


def test_report_tolerates_torn_final_line_even_strict(tmp_path, capsys):
    log = _write_log_then_tear(tmp_path)
    assert main(["report", str(log), "--strict"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "runner invocations" in out


def test_report_strict_rejects_interior_damage(tmp_path, capsys):
    log = _write_log_then_tear(tmp_path, interior_damage=True)
    assert main(["report", str(log)]) == EXIT_OK  # default: skip and render
    capsys.readouterr()
    assert main(["report", str(log), "--strict"]) == EXIT_USAGE
    assert "corrupt event" in capsys.readouterr().err


# -------------------------------------------------------------------- watch


def test_watch_once_renders_estimates_from_partial_log(tmp_path, capsys):
    """watch --once on a log still being appended to: estimates render,
    the torn trailing line is ignored, and the exit code is 0."""
    import json

    log = tmp_path / "events.jsonl"
    events = [
        {"type": "log_open", "schema": 2, "t": 0.0},
        {"type": "run_start", "n_total": 400, "n_chunks": 4, "label": "t1", "t": 0.1},
        {"type": "chunk_end", "chunk": 0, "n": 100, "seconds": 0.5, "t": 0.6},
        {
            "type": "estimate", "label": "t1", "chunk": 0, "successes": 30,
            "trials": 100, "p": 0.3, "low": 0.22, "high": 0.4,
            "half_width": 0.09, "rel_half_width": 0.3, "t": 0.6,
        },
        {
            "type": "incident", "kind": "slow_chunk", "label": "t1",
            "chunk": 1, "seconds": 9.0, "median_seconds": 0.5, "t": 9.5,
        },
    ]
    with open(log, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
        handle.write('{"type":"estimate","chu')  # writer still mid-append
    assert main(["watch", str(log), "--once"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "running estimates" in out
    assert "t1" in out and "0.3" in out
    assert "recent incidents" in out and "slow_chunk" in out
    assert "log closed" not in out  # no log_close trailer yet


def test_watch_once_reports_closed_log(tmp_path, capsys):
    from repro import telemetry

    log = tmp_path / "events.jsonl"
    recorder = telemetry.configure(log_path=log)
    try:
        recorder.event("run_start", n_total=10, n_chunks=1, label="t1")
    finally:
        recorder.close()
        telemetry.set_recorder(None)
    assert main(["watch", str(log), "--once"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "log closed -- all writers finished" in out
    assert "no estimate events yet" in out


def test_watch_once_missing_file_exits_2(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "nope.jsonl"), "--once"]) == 2
    assert "no event log" in capsys.readouterr().out


def test_watch_follows_live_appends(tmp_path):
    """The follower picks up lines appended between polls and holds torn
    fragments until their newline arrives."""
    import json

    from repro.telemetry.watch import LogFollower, WatchState, render_watch

    log = tmp_path / "events.jsonl"
    log.write_text('{"type":"log_open","schema":2}\n')
    follower = LogFollower(log)
    state = WatchState()
    state.consume(follower.poll())
    assert state.opens == 1 and not state.finished

    estimate = {
        "type": "estimate", "label": "t1", "chunk": 0, "successes": 5,
        "trials": 50, "p": 0.1, "low": 0.04, "high": 0.21,
        "half_width": 0.085, "rel_half_width": 0.85,
    }
    line = json.dumps(estimate) + "\n"
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(line[:20])  # torn mid-line
    assert follower.poll() == []  # fragment withheld, not mangled
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(line[20:])  # rest of the line lands
        handle.write('{"type":"log_close"}\n')
    state.consume(follower.poll())
    assert "t1" in state.estimates
    assert state.estimates["t1"]["successes"] == 5
    assert state.finished
    frame = render_watch(state)
    assert "log closed" in frame and "t1" in frame


def test_metrics_out_writes_snapshot(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.json"
    code = main(
        [
            "run",
            "EXP-T1.1",
            "--scale",
            "smoke",
            "--chunks",
            "2",
            "--metrics-out",
            str(metrics),
        ]
    )
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_FAILED)  # statistical checks may wobble
    snapshot = json.loads(metrics.read_text())
    assert snapshot["engine.jumps_sampled"]["value"] > 0
    assert snapshot["runner.chunks_completed"]["value"] > 0
    assert "engine.jump_length_decades" not in snapshot  # metric removed


def test_progress_heartbeat_goes_to_stderr(tmp_path, capsys):
    code = main(
        [
            "run",
            "EXP-T1.1",
            "--scale",
            "smoke",
            "--chunks",
            "2",
            "--checkpoint-dir",
            str(tmp_path),
            "--progress",
        ]
    )
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_FAILED)  # statistical checks may wobble
    assert "run_start" in captured.err
    assert "run_end" in captured.err
    assert "run_start" not in captured.out  # stdout stays a clean report
