"""Golden per-period traces: every policy, both shipped configs, both throughput modes.

Each case runs two short replications exactly as ``run_experiment`` seeds
them and hashes the raw bytes of every ``ReplicationTrace`` array. The
hashes pin the random stream and the order of every floating-point sum: a
change that moves a draw or reorders a sum changes a hash, even when the
results stay statistically the same. A change that alters the random stream
on purpose must refresh ``GOLDEN`` (run this module with ``-s`` to print the
new table) and say so in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

import relaymatch as rm
from relaymatch.config_io import load_config
from relaymatch.harness import SimEnvironment, _replication_rng, _topology_rng, run_replication

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HORIZON = 300
REPLICATIONS = 2

GOLDEN = {
    ("small_network.ini", "ebriq", "sampled"):
        "d182656d627f9eacff5fc1403e713624b237f1ae8c76ac6f6c02492d16e70d7b",
    ("small_network.ini", "ebriq", "expected"):
        "32299e7ee4a234f32d150a12839302516b2139a04bb3e7a7784e2cd5db87cd0e",
    ("small_network.ini", "epsilon_greedy", "sampled"):
        "033ea1b2d08d5be93a4cbc17abf9631cace54a968a9fadd93a0b701d90928c09",
    ("small_network.ini", "epsilon_greedy", "expected"):
        "d2464ab984f7f01b41d900f7251fce725b9c7fe9755f6be86431fbcd744e0676",
    ("small_network.ini", "random", "sampled"):
        "30ce74dad2605efc8f69f750ff594be38e95959a02b325f7d5f249d47bbc6dac",
    ("small_network.ini", "random", "expected"):
        "5472af8b0e672f1db09fbb127cad10cb407fd47ba50e4fbbd612902051caf32e",
    ("small_network.ini", "noncoop", "sampled"):
        "91159e07c2f32857032c9396506d615da04f4fcccfa2347c23ad615a696ced4b",
    ("small_network.ini", "noncoop", "expected"):
        "e8b0d5bec1225237c20af411b972182426b713d4edc5c2b2a33a842b56cff5f5",
    ("small_network.ini", "gs_oracle", "sampled"):
        "a695dd04939e9d9dfdf928a1a26b40634b9e97e50485f6e2e68db52202e94a82",
    ("small_network.ini", "gs_oracle", "expected"):
        "6eb06b34326547e424d36ce53c1121a9ba82a5008d09f0f13cdfd1f26682fc97",
    ("comparison.ini", "ebriq", "sampled"):
        "1ecb7d705e55135731dbdcd0d7e6c05e05f34c07a23832326ae24686d9d3dc7d",
    ("comparison.ini", "ebriq", "expected"):
        "9717f83b393557746fb4f974bd004d71d75f569634b59056928aa19e72e5405d",
    ("comparison.ini", "epsilon_greedy", "sampled"):
        "5a2209d90a051b4124a51c550c44fc235e64f42245f2f119b404c3d35db0edaa",
    ("comparison.ini", "epsilon_greedy", "expected"):
        "94409816b38b0de6f68d0179defeec93e161ece39df302baed7297bb0905b49d",
    ("comparison.ini", "random", "sampled"):
        "bfe96c5f3d16e0ce5610f1e1ac18bae68deb331c8ca478eb4e62d48789bd6c85",
    ("comparison.ini", "random", "expected"):
        "9cca3ef5d7f16cb0e86ef6e47ebf676c4fbe622d0161e5ff6b0bbc4e4263fbb5",
    ("comparison.ini", "noncoop", "sampled"):
        "f5afac41b83a371fb1f9706b5ba5728d6a5937d2decc4367643f303bca201fc1",
    ("comparison.ini", "noncoop", "expected"):
        "21aa97bfb48dcfdb28fa7aec2d04840668038bcce370039b2037ccf990fc7b00",
    ("comparison.ini", "gs_oracle", "sampled"):
        "4fadd91e964f0e0518422c4f0d576c0b5c8c894165e3dd7699518a18ec3cad0b",
    ("comparison.ini", "gs_oracle", "expected"):
        "1bf548fa0ed804c28af2256ab1f8e28f29c857c7508f9cdbbf54f2dd76f54bd7",
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
