"""Every benchmark workload still runs and passes its own checks.

Block 0 of each workload that ``BENCHMARK.json`` lists runs in this process,
through ``perfbench/workloads.py`` loaded from its file as the benchmark
loads it. A renamed callable or a broken output check then fails here, not
only in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import relaymatch as rm
import relaymatch.cli  # noqa: F401  (the simulation workloads call cli.main)

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_first_block_of_workload_passes_its_checks(name, tmp_path):
    _, factory = load_workloads()[name]
    block = factory(rm, ROOT, tmp_path, 1).run_block(0)
    assert block.ops > 0
    assert block.failed == 0, block.problems
