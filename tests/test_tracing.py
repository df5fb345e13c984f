"""The benchmark's timing spans (``perfbench/spans.py``) still hook into the package.

The tracer replaces module attributes from outside, so a rename or a second
period-loop path would silently leave spans empty. It is loaded from its
file, as the benchmark loads it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import relaymatch as rm
import relaymatch.cli  # noqa: F401  (the tracer wraps cli.main)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
NUM_CUS, HORIZON, REPLICATIONS = 3, 30, 2


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.mark.parametrize("policy", rm.POLICIES)
def test_traced_run_records_agent_and_period_spans(policy):
    config = rm.ExperimentConfig(
        topology=rm.TopologyParams(num_cus=NUM_CUS, num_d2d=2),
        learning=rm.LearningParams(horizon=HORIZON),
        policy=policy,
        num_replications=REPLICATIONS,
        seed=5,
    )
    untraced = rm.run_experiment(config)
    original_run_period = rm.harness.run_period
    tracer = load_tracer_class()()
    tracer.install(rm)
    try:
        assert rm.harness.run_period is not original_run_period
        traced = rm.run_experiment(config)
    finally:
        tracer.uninstall()
    assert rm.harness.run_period is original_run_period
    periods = HORIZON * REPLICATIONS
    assert tracer.stats[f"learners.{policy}.act"][0] == periods * NUM_CUS
    assert tracer.stats[f"learners.{policy}.update"][0] == periods * NUM_CUS
    assert tracer.stats[f"harness.run_period.{policy}"][0] == periods
    for name in ("mean_throughput", "sm_fraction", "mean_alpha_ratio"):
        assert np.array_equal(getattr(traced, name), getattr(untraced, name), equal_nan=True)
