"""Tests of the benchmark itself (``pytest bench/``; not part of tier-1)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import run
import tracing
import workloads
from harness import BENCH_DIR, END_TO_END, PER_LAYER, ROOT, WORKLOADS

harness.import_program()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = _benchmark_json()
    names = [w["name"] for w in spec["workloads"]] + list(END_TO_END) + list(PER_LAYER)
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert END_TO_END["setup_s"][2] == max(bound for _, _, bound in END_TO_END.values())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]


@pytest.mark.parametrize("n, expected", [(9, None), (19, None), (20, 50), (100, 90), (200, 95), (405, 97)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = harness.tail_percentile(n)
    assert q == expected
    if q is not None:
        values = list(range(n))
        cut = harness.percentile(values, q)
        assert sum(v > cut for v in values) >= 10
        if q < 99:
            assert n * (100 - (q + 1)) < 100 * 10


def test_steady_takes_the_better_quartile_of_repeats():
    times = [1.0, 2.0, 3.0, 4.0, 100.0]  # one pass disturbed: slower
    rates = [1.0, 96.0, 97.0, 98.0, 99.0]  # one pass disturbed: fewer walks/s
    assert harness.steady(times) == harness.quartiles(times)[0] == 1.5
    assert harness.steady(rates, "higher") == harness.quartiles(rates)[2] == 98.5
    assert harness.steady([7.0]) == 7.0


def test_run_stops_at_its_time_limit_even_inside_an_op(monkeypatch, tmp_path):
    def hang(self, index, ledger):
        ledger.timed(lambda: time.sleep(60))

    monkeypatch.setattr(workloads.NarrowBatch, "run_pass", hang)
    monkeypatch.setattr(run, "RUN_LIMIT_S", 1)
    monkeypatch.setattr(run, "probe_setup", lambda args: [0.0])
    args = run.parse_args(["--workload", "narrow-batch", "--tiny", "--out", str(tmp_path)])
    started = time.monotonic()
    assert run.run_workload(args) == 3
    assert time.monotonic() - started < 30


def test_compare_gates_the_exact_count():
    import compare

    assert compare.assess_count([[5, 5], [5]], [[5], [5, 5]])["status"] == "ok"
    assert compare.assess_count([[5]], [[6]])["status"] == "REGRESSION"
    assert compare.assess_count([[5]], [[4]])["status"] == "gain"
    assert compare.assess_count([[5]], [[5, 6]])["status"] == "VARIES"


def test_self_time_subtracts_union_of_children_and_leaf_time():
    spans = [
        # name, start, end, parent, trace, leaf_ns, attrs
        ["engine", 0, 100, -1, 0, 5, {"n": 10}],
        ["child", 10, 30, 0, 0, 0, None],
        ["child", 20, 50, 0, 0, 0, None],  # overlaps the first child
        ["child", 60, 70, 0, 0, 0, None],
        ["grandchild", 62, 64, 3, 0, 0, None],
    ]
    assert tracing.self_times_ns(spans) == [100 - 50 - 5, 20, 30, 8, 2]
    assert harness.union_ns([(0, 10), (5, 20), (30, 40)]) == 30
    assert tracing.coverage(spans, [(0, 200)]) == pytest.approx(0.5)


def test_all_censored_engine_fails_the_output_checks(monkeypatch):
    workload = workloads.make_workload("narrow-batch", seed=0)
    workload.setup()
    try:
        from repro.engine.results import CENSORED, HittingTimeSample

        def censored(*args, horizon, n, **kwargs):
            return HittingTimeSample(times=np.full(n, CENSORED, dtype=np.int64), horizon=horizon)

        monkeypatch.setattr(workload.vectorized, "walk_hitting_times", censored)
        monkeypatch.setattr(workload.ball, "ball_hitting_times", censored)
        ledger = workloads.Ledger()
        run.run_passes(workload, ledger, None, seconds=0.01)
        assert all(ledger.units)  # each call looked structurally fine...
        ledger.check_groups(workload.reference)
        assert ledger.units.count(False) > 0  # ...but the laws are wrong
        assert any("output check failed" in note for note in ledger.notes)
    finally:
        workload.close()


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_of_each_workload_has_no_failures(workload, trace, tmp_path):
    done = _run(["--workload", workload, "--seed", "0", "--seconds", "1", "--tiny",
                 "--trace", str(trace), "--out", str(tmp_path)])
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(table)
    assert all(result["metrics"][name]["unit"] == table[name][0] for name in table)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    stamped = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert stamped["run"]["workload"] == workload and stamped["run"]["seed"] == 0
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(stamped["host"])
    assert {"git_rev", "src_digest"} <= set(stamped["run"])
    if workload == "estimate-ci" and not trace:
        per_pass = stamped["counts"]["walks_to_ci"]
        assert len(per_pass) >= 3 and len(set(per_pass)) == 1 and per_pass[0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "narrow-batch", "--seed", "0", "--seconds", "1"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
