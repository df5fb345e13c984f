"""Compare two result files written by ``suite.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints one row per workload and end-to-end metric: each side's median and
quartiles, and a verdict against the metric's bound in BENCHMARK.json:

* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell a change from noise;
* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``better``: the new side wins at least 9 in 10 seed-paired runs and the
  medians differ by more than the base's quartile distance;
* ``within``: none of these.

Exits with 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_values(runs, workload, metric):
    """{seed: value} of one metric over the runs of one workload."""
    return {run["seed"]: run["result"]["metrics"][metric]["value"]
            for run in runs
            if run["workload"] == workload and metric in run["result"]["metrics"]}


def verdict(base: dict, new: dict, bound: float, higher_is_better: bool) -> str:
    base_values, new_values = list(base.values()), list(new.values())
    if spread(base_values) > bound or spread(new_values) > bound:
        return "unresolved"
    b_q1, b_med, b_q3 = quartiles(base_values)
    n_med = quartiles(new_values)[1]
    gain = (n_med - b_med) if higher_is_better else (b_med - n_med)
    if gain < -bound * abs(b_med):
        return "worse"
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum((n > b) if higher_is_better else (n < b) for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > b_q3 - b_q1:
        return "better"
    return "within"


def _fmt(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    base_runs = json.loads(Path(args.base).read_text())["runs"]
    new_runs = json.loads(Path(args.new).read_text())["runs"]
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':34} {'metric':12} {'base median [q1, q3]':32} "
          f"{'new median [q1, q3]':32} {'bound':>6}  verdict")
    worse = 0
    for workload in workloads:
        for metric in bench["end_to_end"]:
            base = metric_values(base_runs, workload, metric["name"])
            new = metric_values(new_runs, workload, metric["name"])
            if not base or not new:
                continue
            result = verdict(base, new, metric["bound"], metric["better"] == "higher")
            worse += result == "worse"
            print(f"{workload:34} {metric['name']:12} {_fmt(list(base.values())):32} "
                  f"{_fmt(list(new.values())):32} {metric['bound']:6.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
