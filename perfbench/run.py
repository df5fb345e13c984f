"""Run one benchmark workload in this process and print its result line.

Run from the repository root:

    python3 perfbench/run.py --workload instance-build --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` next to this directory. Everything runs
in this one process, with no threads and no child processes. The run:

1. sets up ``SETUPS`` times: import ``relaymatch`` (the first time from
   process start, later after dropping it from ``sys.modules``), load the
   workload's config and build its first instance;
2. runs block 0 once as a warm-up;
3. times blocks 0, 1, 2, ... until their operations have taken ``--seconds``
   (with ``--trace 1``: half the time untraced, then half again traced from
   block 0, with every public callable wrapped in a timing span).

It prints an environment record, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

import time

_PROCESS_START = time.perf_counter()  # the first set-up is timed from here

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path

from workloads import POLICIES, WORKLOADS, Block

# Everything runs on one thread: keep BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
# Nominal time of one reference loop; see ``_host_factor``.
REFERENCE_S = 0.001


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 2**30:
        _fail(f"--seed must be in [0, 2**30), got {args.seed}")
    if not 0 < args.seconds <= 60:
        _fail(f"--seconds must be in (0, 60], got {args.seconds}")
    return args


class _ReferenceAgent:
    __slots__ = ("index", "estimates", "counts")

    def __init__(self, index: int):
        self.index = index
        self.estimates = [1.0] * 5
        self.counts = [0] * 5

    def act(self, rng):
        if rng.random() < 0.1:
            return int(rng.random() * 5), 0.3
        best = max(range(5), key=self.estimates.__getitem__)
        return best, 0.1 * self.estimates[best]

    def update(self, proposals, sample: float) -> None:
        n = proposals[self.index][0]
        self.counts[n] += 1
        self.estimates[n] += (sample - self.estimates[n]) / (1 + self.counts[n])


def _reference_loop() -> None:
    """A fixed miniature period loop that never calls the package.

    It does the same mix of interpreter work as the package's hot paths
    (small objects, tuples, lists, dicts, random draws, float math), so a
    co-tenant slows it about as much as it slows the workloads.
    """
    rng = random.Random(1)
    agents = [_ReferenceAgent(m) for m in range(4)]
    seen = {}
    for _ in range(120):
        proposals = tuple(agent.act(rng) for agent in agents)
        winners, bids = [None] * 5, [0.0] * 5
        for m, (n, alpha) in enumerate(proposals):
            if winners[n] is None or alpha > bids[n]:
                winners[n], bids[n] = m, alpha
        seen.setdefault(tuple(winners), len(seen))
        for agent in agents:
            agent.update(proposals, math.log1p(2.0 * rng.expovariate(1.0)))


def _host_factor() -> float:
    """How slow the host runs now: a fixed pure-Python loop's time over ``REFERENCE_S``.

    On a shared host the speed of a core drifts by tens of percent within
    seconds, with the load its co-tenants put on it. Times are divided by
    (rates multiplied by) this factor, measured next to them, so results
    read as on a host that runs the loop in exactly ``REFERENCE_S``. The
    loop never calls the package, so a change to the package moves the
    scaled figures in full.
    """
    times = []
    gc.disable()  # a collection scans the whole heap: it measures the heap, not the host
    try:
        for _ in range(5):
            start = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times) / REFERENCE_S


def _set_up(config_file: str, seed: int, start: float) -> dict:
    """Import the package, load the config and build the first instance."""
    for name in [n for n in sys.modules if n == "relaymatch" or n.startswith("relaymatch.")]:
        del sys.modules[name]
    rm = importlib.import_module("relaymatch")
    importlib.import_module("relaymatch.cli")
    imported = time.perf_counter()
    config = rm.config_io.load_config(ROOT / "configs" / config_file)
    loaded = time.perf_counter()
    import numpy as np

    topology = rm.generate_topology(config.topology, np.random.default_rng([seed, 0]))
    rm.SimEnvironment(topology, config.system)
    built = time.perf_counter()
    return {"rm": rm, "total_s": built - start, "import_s": imported - start,
            "load_config_s": loaded - imported, "build_s": built - loaded,
            "host_factor": _host_factor()}


def _measure(workload, seconds: float, tally: dict):
    """Time blocks 0, 1, ... until their operations took ``seconds``.

    Returns the median of the blocks' operation rates, each scaled by the
    host factor measured around its block; the summed operation time; and
    the median host factor.
    """
    rates = []
    factors = [_host_factor()]
    busy = 0.0
    i = 0
    while busy < seconds:
        block = _run_block(workload, i, tally)
        factors.append(_host_factor())
        busy += block.seconds
        if block.seconds > 0:
            rates.append(block.ops / block.seconds * (factors[-2] + factors[-1]) / 2)
        i += 1
    return statistics.median(rates), busy, statistics.median(factors)


def _setup_seconds(setups: list) -> float:
    """Median set-up time, each scaled by the host factor measured around it."""
    scaled = []
    before = setups[0]["host_factor"]
    for setup in setups:
        scaled.append(setup["total_s"] / ((before + setup["host_factor"]) / 2))
        before = setup["host_factor"]
    return statistics.median(scaled)


def _run_block(workload, i: int, tally: dict):
    try:
        block = workload.run_block(i)
    except Exception as exc:  # a block that raises fails as a whole; keep measuring
        block = Block(1, 1, 0.0, [f"block {i}: {type(exc).__name__}: {exc}"])
    tally["attempted"] += block.ops
    tally["failed"] += block.failed
    tally["problems"].extend(block.problems)
    return block


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _thread_count():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _environment(rm, args, workload, host_factor: float) -> dict:
    import numpy
    import scipy

    cpus = os.cpu_count()
    return {
        "git_sha": _git_sha(),
        "relaymatch_version": rm.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "cpu_count": cpus,
        "threads": _thread_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "host_factor": host_factor,
        "note": (f"wall-clock timings on a shared host with {cpus} CPUs; "
                 "load from other tenants makes them noisy"),
    }


def _per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def _layer_metrics(tracer, traced_ops: int, traced_seconds: float, setups: list) -> dict:
    """Per-layer metrics of BENCHMARK.json; zero for layers the workload never calls."""
    metrics = {}

    def mean_us(span):
        calls, total, _ = tracer.stats.get(span, (0, 0.0, 0.0))
        return _per_op(total, calls) * 1e6

    warm = setups[1:]
    metrics["import.relaymatch.ms"] = (1e3 * statistics.median(s["import_s"] for s in warm), "ms")
    metrics["import.relaymatch.cold_ms"] = (1e3 * setups[0]["import_s"], "ms")
    metrics["config_io.load_config.ms"] = (
        1e3 * statistics.median(s["load_config_s"] for s in setups), "ms")
    for span in ("channel.expected_log_rate", "channel.true_rates", "channel.generate_topology",
                 "bargaining.nbs_alpha", "bargaining.nbs_alpha_oracle",
                 "matching.build_preferences", "matching.gale_shapley", "matching.is_stable",
                 "matching.enumerate_stable_matchings", "game.TieBreakRule.for_instance",
                 "game.choice_winners", "game.enumerate_pne", "game.better_reply_path",
                 "harness.SimEnvironment"):
        metrics[f"{span}.us"] = (mean_us(span), "us")
    steps = tracer.counts.get("game.better_reply_path.steps", (0, 0))
    metrics["game.better_reply_path.steps"] = (_per_op(steps[1], steps[0]), "count")
    for policy in POLICIES:
        for method in ("act", "update"):
            metrics[f"learners.{policy}.{method}.us"] = (
                mean_us(f"learners.{policy}.{method}"), "us")
        calls, total, self_s = tracer.stats.get(f"harness.run_period.{policy}", (0, 0.0, 0.0))
        metrics[f"harness.run_period.{policy}.us"] = (_per_op(total, calls) * 1e6, "us")
        metrics[f"harness.run_period.{policy}.self_us"] = (_per_op(self_s, calls) * 1e6, "us")
    checks = tracer.stats.get("harness.matching_is_stable", (0, 0.0, 0.0))[0]
    distinct = tracer.counts.get("harness.matching_is_stable.distinct", (0, 0))[1]
    metrics["harness.matching_is_stable.hit_ratio"] = (
        1.0 - _per_op(distinct, checks) if checks else 0.0, "ratio")
    emits, emit_s, _ = tracer.stats.get("harness.emit_csv", (0, 0.0, 0.0))
    metrics["harness.emit_csv.ms"] = (_per_op(emit_s, emits) * 1e3, "ms")
    emitted = tracer.counts.get("harness.emit_csv.bytes", (0, 0))
    metrics["harness.emit_csv.bytes"] = (_per_op(emitted[1], emitted[0]), "bytes")
    metrics["harness.write_manifest.ms"] = (mean_us("harness.write_manifest") / 1e3, "ms")
    for suite in ("nbs", "stability", "theorem2"):  # the suites ORACLE_CYCLE calls
        metrics[f"verification.{suite}.ms"] = (mean_us(f"verification.{suite}") / 1e3, "ms")
    for layer, self_s in tracer.layer_self_seconds().items():
        metrics[f"self_ms_per_op.{layer}"] = (1e3 * _per_op(self_s, traced_ops), "ms")
    outside = traced_seconds - tracer.top_level_seconds
    metrics["self_ms_per_op.perfbench"] = (1e3 * _per_op(outside, traced_ops), "ms")
    return metrics


def main() -> int:
    if not (ROOT / "src" / "relaymatch" / "__init__.py").is_file():
        _fail(f"no package source at {ROOT / 'src' / 'relaymatch'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    # Workload and seed are needed by the first set-up; argparse is cheap.
    args = _parse_args()
    config_file, factory = WORKLOADS[args.workload]
    if not (ROOT / "configs" / config_file).is_file():
        _fail(f"missing config {ROOT / 'configs' / config_file}")
    setups = [_set_up(config_file, args.seed, _PROCESS_START)]
    for _ in range(SETUPS - 1):
        setups.append(_set_up(config_file, args.seed, time.perf_counter()))
    rm = setups[-1]["rm"]
    if not Path(rm.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"imported relaymatch from {rm.__file__}, not from this checkout")

    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"{args.workload}.{args.seed}.{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = factory(rm, ROOT, out_dir, args.seed)
        tally = {"attempted": 0, "failed": 0, "problems": []}
        _run_block(workload, 0, tally)  # warm-up; also the reference for block 0's replay
        if args.trace:
            from spans import Tracer

            untraced_rate, _, _ = _measure(workload, args.seconds / 2, tally)
            tracer = Tracer()
            tracer.install(rm)
            attempted_before = tally["attempted"]
            traced_rate, traced_seconds, host_factor = _measure(workload, args.seconds / 2, tally)
            tracer.uninstall()
            metrics = _layer_metrics(tracer, tally["attempted"] - attempted_before,
                                     traced_seconds, setups)
            metrics["trace.ops_per_s"] = (traced_rate, "1/s")
            metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
            metrics["trace.ops_per_s_delta"] = (traced_rate - untraced_rate, "1/s")
            metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate - 1.0, "ratio")
            metrics["ops.failed_ratio"] = (tally["failed"] / tally["attempted"], "ratio")
            metrics["host.reference_factor"] = (host_factor, "ratio")
            tracer.write(out_root / f"spans.{args.workload}.{args.seed}.json")
        else:
            ops_per_s, _, host_factor = _measure(workload, args.seconds, tally)
            metrics = {
                "setup_s": (_setup_seconds(setups), "s"),
                "ops_per_s": (ops_per_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        env = _environment(rm, args, workload, host_factor)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in tally["problems"][:20]:
        print(f"perfbench: failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
