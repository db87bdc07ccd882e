"""Compare a parent and a change from two directories of untraced result JSONs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Runs are paired in the order they started (run the sides alternately).
For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs the change won (ties count for
neither), the larger side's spread (IQR / median) and a status:

* ``REGRESSION`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the spread exceeds the bound, unless every change run
  reads better than every parent run;
* ``gain`` -- the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own IQR;
* ``ok`` -- none of the above: no regression.

Exact counts a workload stamps beside its metrics (``walks_to_ci`` in
estimate-ci) must read the same in every pass of every run of a side
(else ``VARIES``); a higher count on the change is a ``REGRESSION``, a
lower one a ``gain``.

Exits 1 when any metric regressed, any count varied or any run failed
its output checks.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import END_TO_END, WORKLOADS, quartiles, read_results  # noqa: E402

WIN_SHARE = 0.9


def by_workload(directory: Path) -> dict:
    runs = defaultdict(list)
    for data in read_results(directory):
        if not data["run"].get("trace"):
            runs[data["run"]["workload"]].append(data)
    for values in runs.values():
        values.sort(key=lambda d: d["run"]["started_at"])
    return runs


def assess(name: str, parent: list, change: list) -> dict:
    """Statistics and status of one metric, from each side's run values."""
    _, better, bound = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse_by > bound:
        status = "REGRESSION"
    elif spread > bound and not every_better:
        status = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        status = "gain"
    else:
        status = "ok"
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "worse_by": worse_by,
        "wins": f"{wins}/{len(pairs)}",
        "spread": spread,
        "bound": bound,
        "status": status,
    }


def assess_count(parent: list, change: list) -> dict:
    """Status of an exact count (lower is better), from each side's
    per-pass values; a count that differs between passes or runs of one
    side is not exact."""
    p_values, c_values = ({v for run in side for v in run} for side in (parent, change))
    if len(p_values) != 1 or len(c_values) != 1:
        status = "VARIES"
    else:
        (p,), (c,) = p_values, c_values
        status = "REGRESSION" if c > p else "gain" if c < p else "ok"
    return {"parent": sorted(p_values), "change": sorted(c_values), "status": status}


def _hosts(runs: list) -> set:
    return {(d["host"]["nproc"], d["host"]["cpu_model"]) for d in runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = by_workload(args.parent), by_workload(args.change)
    failing = False
    header = (
        f"  {'metric':<12} {'unit':<8} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'worse by':>9} {'wins':>6} {'spread':>7} {'bound':>6}  status"
    )
    for workload in WORKLOADS:
        if not parent.get(workload) or not change.get(workload):
            continue
        p_runs, c_runs = parent[workload], change[workload]
        failed = [d for d in p_runs + c_runs if not d["result"]["correct"]]
        rows, counts = [], defaultdict(int)
        for name, (unit, _, _) in END_TO_END.items():
            values = [[d["result"]["metrics"][name]["value"] for d in runs] for runs in (p_runs, c_runs)]
            a = assess(name, *values)
            counts[a["status"]] += 1
            cells = [
                "{:.6g} [{:.6g}, {:.6g}]".format(*a[side]) for side in ("parent", "change")
            ]
            rows.append(
                f"  {name:<12} {unit:<8} {cells[0]:<34} {cells[1]:<34} "
                f"{a['worse_by']:>+9.2%} {a['wins']:>6} {a['spread']:>7.2%} {a['bound']:>6.0%}  {a['status']}"
            )
        for name in sorted({n for d in p_runs + c_runs for n in d.get("counts", {})}):
            a = assess_count(*[[d.get("counts", {}).get(name, []) for d in runs] for runs in (p_runs, c_runs)])
            counts[a["status"]] += 1
            cells = [" ".join(map(str, a[side])) for side in ("parent", "change")]
            rows.append(f"  {name:<12} {'count':<8} {cells[0]:<34} {cells[1]:<34} {'':>24} {'exact':>6}  {a['status']}")
        verdict = "REGRESSION" if counts["REGRESSION"] or counts["VARIES"] else "ok"
        if failed:
            verdict = f"FAILED CHECKS in {len(failed)} run(s)"
        failing = failing or bool(failed) or verdict != "ok"
        summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
        print(f"{workload}: {verdict} (parent {len(p_runs)} runs, change {len(c_runs)} runs; {summary})")
        if len(_hosts(p_runs + c_runs)) > 1:
            print(f"  warning: runs come from different hosts: {sorted(_hosts(p_runs + c_runs))}")
        print(header)
        print("\n".join(rows))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
