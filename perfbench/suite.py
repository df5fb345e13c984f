"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/suite.py --seeds 1-10 --out .perfbench_out/base.json
    python3 perfbench/suite.py --seeds 1-2 --trace 1 --out .perfbench_out/trace.json

Runs ``run.py`` once per (seed, workload), one run at a time, each in a
fresh process, taking the seconds per run from BENCHMARK.json. Writes every
run's environment record and result line to ``--out`` (the input of
``compare.py``) and prints, per workload, every end-to-end metric (per-layer
with ``--trace 1``) as median [q1, q3] with its spread and bound, plus the
failed-operation ratio. On a ``policy-comparison-4x5.<policy>`` workload,
``ops_per_s`` is that policy's replications per second.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import BENCHMARK, quartiles, spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def summarize(bench: dict, runs: list, trace: int) -> None:
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    print(f"{'workload':34} {'metric':44} {'median [q1, q3]':34} {'spread':>7} "
          f"{'bound':>6}  unit")
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        for metric in metrics:
            values = [run["result"]["metrics"][metric["name"]]["value"] for run in mine]
            q1, median, q3 = quartiles(values)
            bound = f"{metric['bound']:6.2f}" if "bound" in metric else " " * 6
            print(f"{workload:34} {metric['name']:44} "
                  f"{f'{median:.5g} [{q1:.5g}, {q3:.5g}]':34} {spread(values):7.3f} "
                  f"{bound}  {metric['unit']}")
        attempted = sum(run["result"]["attempted"] for run in mine)
        failed = sum(run["result"]["failed"] for run in mine)
        walls = [run["wall_s"] for run in mine]
        print(f"{workload:34} {'failed_ratio':44} {failed / attempted:<34.3g} "
              f"{'':7} {'':6}  ratio ({failed} of {attempted} operations, {len(mine)} runs, "
              f"{max(walls):.1f} s longest run)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="result file to write")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = []
    # Seeds outer, workloads inner: slow drifts in host load spread over all workloads.
    for seed in _seeds(args.seeds):
        for workload in workloads:
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"done {workload} seed {seed} ({runs[-1]['wall_s']:.1f} s)", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    summarize(bench, runs, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
