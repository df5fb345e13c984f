"""The benchmark's workloads: inputs drawn from the workload seed, and checks.

A workload runs in blocks. ``run_block(i)`` times the operations of block
``i`` (and only those: input generation and output checks are outside the
timed region) and returns how many operations it attempted, how many failed
and how long they took. Block ``i`` is fully determined by the workload seed
and ``i``, so a block can be replayed.

Every call into the package goes through a module attribute at call time, so
the spans installed by ``spans.Tracer`` see it.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

CSV_HEADER = "period,mean_throughput,sm_fraction,mean_alpha_ratio,policy"
POLICIES = ("ebriq", "epsilon_greedy", "random", "noncoop", "gs_oracle")


class Block(NamedTuple):
    ops: int
    failed: int
    seconds: float
    problems: list


def block_seed(seed: int, i: int) -> int:
    """Seed of block ``i``; distinct for every (seed, i) with i < 2**20."""
    return seed * 2**20 + i


class Simulation:
    """``relaymatch simulate`` calls of ``reps`` replications each (one block per call).

    Each call gets its own seed, so a config with ``fixed_topology = false``
    draws a fresh topology per replication and one with ``fixed_topology =
    true`` shares one topology (and its stability cache) across the call.
    The first block's CSV and manifest are kept; a replay of that block must
    reproduce them byte for byte.
    """

    def __init__(self, rm, root: Path, out_dir: Path, seed: int, config: str,
                 policy: str, reps: int):
        self.rm = rm
        self.config_path = root / "configs" / config
        self.out_dir = out_dir
        self.seed = seed
        self.policy = policy
        self.reps = reps
        self.horizon = rm.config_io.load_config(self.config_path).learning.horizon
        self._first_outputs = None

    @property
    def sizes(self) -> dict:
        return {"config": self.config_path.name, "policy": self.policy,
                "replications_per_block": self.reps, "horizon": self.horizon}

    def run_block(self, i: int) -> Block:
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.out_dir),
                "--policy", self.policy, "--seed", str(block_seed(self.seed, i)),
                "--replications", str(self.reps)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = self.rm.cli.main(argv)
            seconds = perf_counter() - start
        problems = self._check(code, i)
        return Block(self.reps, self.reps if problems else 0, seconds, problems)

    def _check(self, code: int, i: int) -> list:
        if code != 0:
            return [f"simulate exited with {code}"]
        csv_path = self.out_dir / f"{self.policy}.csv"
        outputs = (csv_path.read_bytes(), (self.out_dir / "manifest.txt").read_bytes())
        problems = self._check_csv(outputs[0].decode())
        if i == 0:
            if self._first_outputs is None:
                self._first_outputs = outputs
            elif outputs != self._first_outputs:
                problems.append("replay of block 0 did not reproduce its CSV and manifest")
        return problems

    def _check_csv(self, text: str) -> list:
        lines = text.split("\n")
        if lines[0] != CSV_HEADER:
            return [f"CSV header {lines[0]!r}"]
        if lines[-1] != "" or len(lines) != self.horizon + 2:
            return [f"CSV has {len(lines) - 2} rows, expected {self.horizon}"]
        for t, line in enumerate(lines[1:-1], start=1):
            period, throughput, sm_fraction, _, policy = line.split(",")
            throughput, sm_fraction = float(throughput), float(sm_fraction)
            if int(period) != t or policy != self.policy:
                return [f"CSV row {t}: {line!r}"]
            if not (math.isfinite(throughput) and throughput > 0):
                return [f"CSV row {t}: throughput {throughput}"]
            if not 0.0 <= sm_fraction <= 1.0:
                return [f"CSV row {t}: sm_fraction {sm_fraction}"]
            if self.policy == "gs_oracle" and sm_fraction != 1.0:
                return [f"CSV row {t}: gs_oracle matching unstable (sm_fraction {sm_fraction})"]
        return []


class InstanceBuild:
    """Fresh topologies and their complete-information solution, no period loop.

    Per instance: ``generate_topology``, ``SimEnvironment`` (true rates,
    preferences, tie-break rule), ``gale_shapley`` and ``is_stable``.
    """

    def __init__(self, rm, root: Path, seed: int, config: str, per_block: int):
        import numpy as np  # not at module level: the first set-up times its import

        self._rng = np.random.default_rng
        self.rm = rm
        self.config = rm.config_io.load_config(root / "configs" / config)
        self.config_name = config
        self.seed = seed
        self.per_block = per_block

    @property
    def sizes(self) -> dict:
        topo = self.config.topology
        return {"config": self.config_name, "num_cus": topo.num_cus,
                "num_d2d": topo.num_d2d, "instances_per_block": self.per_block}

    def run_block(self, i: int) -> Block:
        rm = self.rm
        topo_params, sys_params = self.config.topology, self.config.system
        seconds = 0.0
        failed = 0
        problems = []
        for j in range(self.per_block):
            rng = self._rng([self.seed, i, j])
            try:
                start = perf_counter()
                topology = rm.channel.generate_topology(topo_params, rng)
                env = rm.harness.SimEnvironment(topology, sys_params)
                mu = rm.matching.gale_shapley(env.prefs)
                stable = rm.matching.is_stable(mu, env.prefs)
                seconds += perf_counter() - start
                rates = env.rates
                rm.channel.RateTable(rates.direct_rates, rates.relay_rates, rates.d2d_rates)
            except Exception as exc:  # any error fails this instance only
                failed += 1
                problems.append(f"instance ({i}, {j}): {type(exc).__name__}: {exc}")
                continue
            if not stable:
                failed += 1
                problems.append(f"instance ({i}, {j}): deferred-acceptance output unstable")
        return Block(self.per_block, failed, seconds, problems)


# Operations of each kind per block, chosen so each kind takes a similar
# share of the block's time at the commit that introduced the benchmark. A
# name is a ``verification.SUITES`` entry, run with one instance per call, or
# ``stable-sets`` (see ``OracleSuites._stable_sets``).
ORACLE_CYCLE = (("nbs", 160), ("stability", 60), ("stable-sets", 100), ("theorem2", 4))
# The theorem1 suite on its own. It fails on instances with an exact tie in
# relay scores: ``matching.d2d_prefers`` gives the tie to the lower CU index,
# ``game.TieBreakRule`` to a seeded bias. BENCHMARK.json therefore does not
# list this workload; run it to see the defect.
THEOREM1_CYCLE = (("theorem1", 40),)


class OracleSuites:
    """Complete-information solvers on synthetic rate tables; the channel model is not used.

    A suite call with a single instance passes exactly when that instance
    passes, so ``SuiteReport.passed`` attributes every failure to one instance.
    """

    def __init__(self, rm, seed: int, cycle):
        import numpy as np  # not at module level: the first set-up times its import

        self._rng = np.random.default_rng
        self._sys = rm.params.SystemParams()
        self.rm = rm
        self.seed = seed
        self.cycle = cycle

    @property
    def sizes(self) -> dict:
        return {"instances_per_block": dict(self.cycle)}

    def run_block(self, i: int) -> Block:
        seconds = 0.0
        ops = failed = 0
        problems = []
        for name, count in self.cycle:
            for _ in range(count):
                seed = block_seed(self.seed, i) * 2**10 + ops
                ops += 1
                try:
                    op_seconds, op_problems = (self._stable_sets(seed) if name == "stable-sets"
                                               else self._suite(name, seed))
                except Exception as exc:  # any error fails this instance only
                    op_seconds, op_problems = 0.0, [f"{type(exc).__name__}: {exc}"]
                seconds += op_seconds
                if op_problems:
                    failed += 1
                    problems.append(f"{name} seed {seed}: " + "; ".join(op_problems))
        return Block(ops, failed, seconds, problems)

    def _suite(self, name: str, seed: int):
        size_arg = "num_pairs" if name == "nbs" else "num_instances"
        start = perf_counter()
        report = self.rm.verification.SUITES[name](**{size_arg: 1, "seed": seed})
        seconds = perf_counter() - start
        return seconds, [] if report.passed else report.lines

    def _stable_sets(self, seed: int):
        """``enumerate_stable_matchings`` and ``gale_shapley`` on a theorem1-sized instance.

        The instance is drawn as ``verify_theorem1`` draws one. Check: the
        deferred-acceptance output is in the stable set, and every member is
        individually rational with no blocking pair.
        """
        rm = self.rm
        rng = self._rng(seed)
        num_cus, num_d2d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        prefs = rm.verification.random_preferences(num_cus, num_d2d, rng, self._sys)
        start = perf_counter()
        stable = rm.matching.enumerate_stable_matchings(prefs)
        mu = rm.matching.gale_shapley(prefs)
        seconds = perf_counter() - start
        problems = [] if mu in stable else ["deferred-acceptance output not in the stable set"]
        for member in stable:
            if (not all(prefs.acceptability[m, n] for m, n in member.pairs)
                    or rm.matching.find_blocking_pairs(member, prefs)):
                problems.append(f"listed matching {member.pairs} is not stable")
        return seconds, problems


def _simulation(config, policy, reps):
    return config, lambda rm, root, out_dir, seed: Simulation(
        rm, root, out_dir, seed, config, policy, reps)


# Workload name -> (config file whose first instance the set-up builds,
# factory(rm, root, out_dir, seed) returning the workload).
WORKLOADS = {
    # Replications per block keep each block at a quarter to half a second,
    # so the host factor measured around a block describes it (see run.py).
    **{f"policy-comparison-4x5.{p}": _simulation("comparison.ini", p,
                                                 reps=1 if p == "ebriq" else 2)
       for p in POLICIES},
    "convergence-2x2": _simulation("small_network.ini", "ebriq", reps=1),
    "instance-build": ("comparison.ini", lambda rm, root, out_dir, seed: InstanceBuild(
        rm, root, seed, "comparison.ini", per_block=50)),
    "oracle-suites": ("comparison.ini", lambda rm, root, out_dir, seed: OracleSuites(
        rm, seed, ORACLE_CYCLE)),
    # Not in BENCHMARK.json: fails by the tie-break defect (see THEOREM1_CYCLE).
    "oracle-theorem1": ("comparison.ini", lambda rm, root, out_dir, seed: OracleSuites(
        rm, seed, THEOREM1_CYCLE)),
}
