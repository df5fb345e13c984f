"""Golden per-period traces: every policy, both shipped configs, both throughput modes.

Each case runs two short replications exactly as ``run_experiment`` seeds
them and hashes the raw bytes of every ``ReplicationTrace`` array. The
hashes pin the random stream and the order of every floating-point sum: a
change that moves a draw or reorders a sum changes a hash, even when the
results stay statistically the same. A change that alters the random stream
on purpose must refresh ``GOLDEN`` (run this module with ``-s`` to print the
new table) and say so in CHANGES.md.

``SOLVER_GOLDEN`` pins the complete-information solvers the same way: the
equilibria and every better-reply path (seed 0) on seeded random instances,
a third of them with allocations rounded to one decimal so that exact ties
are common.
"""

import dataclasses
import hashlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import relaymatch as rm
from relaymatch.config_io import load_config
from relaymatch.harness import SimEnvironment, _replication_rng, _topology_rng, run_replication
from relaymatch.verification import random_preferences

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HORIZON = 300
REPLICATIONS = 2

GOLDEN = {
    ("small_network.ini", "ebriq", "sampled"):
        "4532f120fca52385c04be7bd4d1b1de1db70467723a389af588d75e2f59302fb",
    ("small_network.ini", "ebriq", "expected"):
        "1cc7be44254a4191d1ecb3c7915c54e946837022f7f945889e4df0853badfba5",
    ("small_network.ini", "epsilon_greedy", "sampled"):
        "ce67700ca91ab3ebbeee1e4716462e6e2d8d375f6babf973f125bc4ba50732bb",
    ("small_network.ini", "epsilon_greedy", "expected"):
        "0869869768e2c2e720b955931ef99d7f04ed8e38e9aef70abb191c76f12c18ab",
    ("small_network.ini", "random", "sampled"):
        "ae0d7897883db09307b5f48f24c450f98e76bf4d2abeaf3c8d0f21c162d6d126",
    ("small_network.ini", "random", "expected"):
        "e3e3f6d1a21f2000ad0ad73e8f4e770db7fd4f0ce7d690dbb19ec22eb192d7cf",
    ("small_network.ini", "noncoop", "sampled"):
        "91159e07c2f32857032c9396506d615da04f4fcccfa2347c23ad615a696ced4b",
    ("small_network.ini", "noncoop", "expected"):
        "f97b5fe61a70a21190b69d0d9136974d6567c515dbac372585fea460c618a945",
    ("small_network.ini", "gs_oracle", "sampled"):
        "13a459ca64eaca37c33c7779fa4cf4fc1661506620237ca56a13d9feab2c3897",
    ("small_network.ini", "gs_oracle", "expected"):
        "73e987f00bc3a933290c634376132f1627bfed776a5386cd7c5a46f579870eaa",
    ("comparison.ini", "ebriq", "sampled"):
        "8476d6cc56ae5966f1a70f0430d0e751efc577cad4fbbeadb1142f44bc68309c",
    ("comparison.ini", "ebriq", "expected"):
        "0bde93ae74e7262ceaf372319e515346058edb06788fce6e84d97665eb82cbf9",
    ("comparison.ini", "epsilon_greedy", "sampled"):
        "96b7865dd882f300af31df9189935936ca45b5f26c9cc3a7040649dd4585316b",
    ("comparison.ini", "epsilon_greedy", "expected"):
        "18cd50fe0615de327fffd731d5be28be47e88a490ccd3b46b26b246612c6992e",
    ("comparison.ini", "random", "sampled"):
        "35f12f669e96be8f1bbad66dad813d888a7d52d8eb07cbb9549e5085e9f51973",
    ("comparison.ini", "random", "expected"):
        "6bc0f80cd1fc5f4ed6145de4619c4b602cd4a4c90720542b9cab3127a09b17e4",
    ("comparison.ini", "noncoop", "sampled"):
        "f5afac41b83a371fb1f9706b5ba5728d6a5937d2decc4367643f303bca201fc1",
    ("comparison.ini", "noncoop", "expected"):
        "01e7ed284c41c576ed5929e0c1f4c125cf24ac4b8801ad5d1f25a12c827251bb",
    ("comparison.ini", "gs_oracle", "sampled"):
        "45c5c3db7f90537f61f8ecc1b6a09306dfc9073bf816f81c84b6e4dd25660787",
    ("comparison.ini", "gs_oracle", "expected"):
        "75ea7f87ab468289e8ca1ade43ecf93cac624931162fabddaa6cef0b4d05ab25",
}


def trace_digest(config_name: str, policy: str, mode: str) -> str:
    config = load_config(CONFIGS / config_name)
    learning = dataclasses.replace(config.learning, horizon=HORIZON)

    def environment(rep):
        key = None if config.fixed_topology else rep
        topology = rm.generate_topology(config.topology, _topology_rng(config.seed, key))
        return SimEnvironment(topology, config.system)

    digest = hashlib.sha256()
    for rep in range(REPLICATIONS):
        trace = run_replication(environment(rep), policy, learning,
                                _replication_rng(config.seed, rep), throughput_mode=mode)
        for array in trace:
            digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_trace_matches_golden(case):
    digest = trace_digest(*case)
    print(f"    {case!r}:\n        {digest!r},".replace("'", '"'))
    assert digest == GOLDEN[case]


SOLVER_INSTANCES = 300
SOLVER_GOLDEN = "391b795d95f78732d8d797b96f3db098dea0f7c9cc4c27a685506d949ec47da2"


def solver_digest() -> str:
    sysp = rm.SystemParams()
    digest = hashlib.sha256()
    for i in range(SOLVER_INSTANCES):
        rng = np.random.default_rng([31, i])
        num_cus, num_d2d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        prefs = random_preferences(num_cus, num_d2d, rng, sysp)
        if i % 3 == 0:
            prefs = rm.PreferenceProfile(cu_scores=prefs.cu_scores,
                                         d2d_scores=np.round(prefs.d2d_scores, 1))
        equilibria = rm.enumerate_pne(prefs, sysp)
        paths = [rm.better_reply_path(start, prefs, sysp)
                 for start in product((None, *range(num_d2d)), repeat=num_cus)]
        digest.update(repr((equilibria, paths)).encode())
    return digest.hexdigest()


def test_solvers_match_golden():
    digest = solver_digest()
    print(f"    SOLVER_GOLDEN = {digest!r}".replace("'", '"'))
    assert digest == SOLVER_GOLDEN
