"""Golden per-period traces: every policy, both shipped configs, both throughput modes.

Each case runs two short replications exactly as ``run_experiment`` seeds
them and hashes the raw bytes of every ``ReplicationTrace`` array. The
hashes pin the random stream and the order of every floating-point sum: a
change that moves a draw or reorders a sum changes a hash, even when the
results stay statistically the same. A change that alters the random stream
on purpose must refresh ``GOLDEN`` (run this module with ``-s`` to print the
new table) and say so in CHANGES.md.

The sampled rates come from ``np.log1p`` (``channel.sample_log_rates``),
which on CPUs with AVX-512 runs numpy's own vectorized logarithm and differs
from the C library's ``log1p`` in the last bit on several percent of inputs.
So ``GOLDEN`` pins the values of one class of CPU, the x86-64 hosts with
AVX-512 it was computed on. On another class the sampled-mode cases may
differ in the last bits, while every statistical test still holds. The
expected-mode cases of ``noncoop`` and ``gs_oracle`` draw no sample that
reaches their metrics and do not depend on the CPU.

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
from relaymatch.harness import (
    SimEnvironment,
    _fading_rng,
    _replication_rng,
    _topology_rng,
    run_replication,
)
from relaymatch.verification import random_preferences

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HORIZON = 300
REPLICATIONS = 2

GOLDEN = {
    ("small_network.ini", "ebriq", "sampled"):
        "46ef6cfdf9f448454e667a2509d4a187884a372fc890112bd0115fcff24bb4fd",
    ("small_network.ini", "ebriq", "expected"):
        "4aaa00829c7c6c32d238838f239c5da0a9a32e48ab29e4a0173cfc8a6f6acd9b",
    ("small_network.ini", "epsilon_greedy", "sampled"):
        "3a07c5d1e8b12ecb9792b8947e6df34b5e8c592176d39ce41e82357c03e5dd37",
    ("small_network.ini", "epsilon_greedy", "expected"):
        "c9e37166536d1eb9429f351f35f41c3f49bde2c7e65c2b3d82ee8c0c0199486e",
    ("small_network.ini", "random", "sampled"):
        "2dc8495a8a4736098a4bb8ee6456a804933f98d3c0bd60979d1be12ad733dd7c",
    ("small_network.ini", "random", "expected"):
        "03984246ace71d263c5aae552f262653bcec813c696e324b64b7027dab6e8224",
    ("small_network.ini", "noncoop", "sampled"):
        "d8bf4be57015a9a878d68899202ed4ce1f2aa31d56ca0219df65626849242892",
    ("small_network.ini", "noncoop", "expected"):
        "f97b5fe61a70a21190b69d0d9136974d6567c515dbac372585fea460c618a945",
    ("small_network.ini", "gs_oracle", "sampled"):
        "f5a6f8717da1ed35472603fd5ed631de0ae9939a5222d5be5905e5bf4b2f2df3",
    ("small_network.ini", "gs_oracle", "expected"):
        "73e987f00bc3a933290c634376132f1627bfed776a5386cd7c5a46f579870eaa",
    ("comparison.ini", "ebriq", "sampled"):
        "8dd06ac5d972d9c8a8603926379fcd47322bf6748cdc5ca2b9688de4d5e26952",
    ("comparison.ini", "ebriq", "expected"):
        "7fa494fb11b15a84d52f5c0e0b15662359426b72e2d5bc2f4fd41990354ac975",
    ("comparison.ini", "epsilon_greedy", "sampled"):
        "332a9efba9292cb54c1429f8693136eafd6157e5fa9cafb62c73cfd86e1db45f",
    ("comparison.ini", "epsilon_greedy", "expected"):
        "76fda8b5f3cf573f9c5363169bd28282af202ed4292ccc96820bb5a435c0a652",
    ("comparison.ini", "random", "sampled"):
        "e64f65ec92c5793282ec9aa5b1e456ae0fe2265ec547c2a7035212d6989ba85e",
    ("comparison.ini", "random", "expected"):
        "1d5de826993e3b8726780e849b5f9df701f70f3bfaa7d4bf8088e63f6150e31c",
    ("comparison.ini", "noncoop", "sampled"):
        "3551bfbe1f9beb3eb6822a31b3a1ff87b49d99e433f3c3c21ea6ea9cc0fee635",
    ("comparison.ini", "noncoop", "expected"):
        "01e7ed284c41c576ed5929e0c1f4c125cf24ac4b8801ad5d1f25a12c827251bb",
    ("comparison.ini", "gs_oracle", "sampled"):
        "c45daa071a686b30d35a4a37a3c9dc7f80ab6f8736bb4eee7570790f2b1a6145",
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
                                _replication_rng(config.seed, rep), _fading_rng(config.seed, rep),
                                throughput_mode=mode)
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
