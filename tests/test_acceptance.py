"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the one-line
PASS/FAIL verdict each criterion prints. The two Monte Carlo scenarios
(2x2 convergence, 4x5 policy comparison) run the full replication counts and
dominate the suite's runtime (a few minutes total on one core).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import relaymatch as rm
from relaymatch.verification import (
    random_matching,
    random_rate_table,
    verify_nbs,
    verify_theorem1,
    verify_theorem2,
)
from test_matching import blocking_pairs_naive


def criterion(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_nbs_closed_form_vs_oracle():
    start = time.perf_counter()
    report = verify_nbs(num_pairs=1000, grid_step=1e-4, tol=1.1e-4, seed=1_2001)
    elapsed = time.perf_counter() - start
    criterion(
        "nbs-closed-form",
        report.passed and elapsed < 5.0,
        f"{'; '.join(report.lines)}; {elapsed:.2f}s",
    )


def test_stability_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1_2002)
    sysp = rm.SystemParams()
    failures = 0
    for _ in range(500):
        num_cus = int(rng.integers(1, 7))
        num_d2d = int(rng.integers(1, 7))
        prefs = rm.build_preferences(random_rate_table(num_cus, num_d2d, rng), sysp)
        gs = rm.gale_shapley(prefs)
        if not rm.is_stable(gs, prefs):
            failures += 1
        for mu in (gs, random_matching(num_cus, num_d2d, rng)):
            blocking = rm.find_blocking_pairs(mu, prefs)
            if blocking != blocking_pairs_naive(mu, prefs):
                failures += 1
            rational = all(prefs.acceptability[m, n] for m, n in mu.pairs)
            if rm.is_stable(mu, prefs) != (rational and not blocking):
                failures += 1
    elapsed = time.perf_counter() - start
    criterion(
        "stability-oracle",
        failures == 0 and elapsed < 5.0,
        f"{failures} failures over 500 instances (incl. M>N); {elapsed:.2f}s",
    )


def test_theorem1_equilibria_match_stable_set():
    report = verify_theorem1(num_instances=100, seed=1_2003)
    criterion(
        "pne-sm-equivalence",
        report.passed and report.duration < 30.0,
        f"{'; '.join(report.lines)}; {report.duration:.2f}s",
    )


def test_theorem2_better_reply_paths_reach_equilibria():
    report = verify_theorem2(num_instances=20, starts_per_instance=100, seed=1_2004)
    criterion(
        "better-reply-termination",
        report.passed and report.duration < 30.0,
        f"{'; '.join(report.lines)}; {report.duration:.2f}s",
    )


# ---------------------------------------------------------------------------
# Monte Carlo scenarios: the full-size runs, marked slow (``-m "not slow"``
# leaves them out)


@pytest.fixture(scope="module")
def small_network_results():
    """2 CUs, 2 pairs, one fixed topology with a unique stable matching."""
    config = rm.ExperimentConfig(
        topology=rm.TopologyParams(num_cus=2, num_d2d=2),
        learning=rm.LearningParams(horizon=10_000),
        policy="ebriq",
        num_replications=200,
        seed=1,
        fixed_topology=True,
    )
    from relaymatch.harness import SimEnvironment, _topology_rng

    env = SimEnvironment(
        rm.generate_topology(config.topology, _topology_rng(config.seed, None)),
        config.system,
    )
    stable = rm.enumerate_stable_matchings(env.prefs)
    assert len(stable) == 1, "scenario requires a unique stable matching"
    return rm.run_experiment(config)


@pytest.mark.slow
def test_learned_allocations_converge(small_network_results):
    res = small_network_results
    per_pair = np.nanmean(np.abs(res.rep_final_alpha_ratio - 1.0), axis=0)
    visited = ~np.isnan(res.rep_final_alpha_ratio).all(axis=0)
    worst = float(per_pair[visited].max())
    criterion(
        "allocation-convergence",
        visited.all() and worst < 0.05,
        f"max over visited pairs of mean |alpha/alpha* - 1| at T: {worst:.4f} (< 0.05)",
    )


@pytest.mark.slow
def test_stable_matching_frequency(small_network_results):
    fraction = small_network_results.window_sm_fraction
    criterion(
        "stable-matching-frequency",
        fraction >= 0.90,
        f"final-10%-window stable fraction {fraction:.3f} (>= 0.90) over 200 replications",
    )


@pytest.fixture(scope="module")
def comparison_results():
    """4 CUs, 5 pairs, 200 random topologies shared by every policy."""
    start = time.perf_counter()
    base = dict(
        topology=rm.TopologyParams(num_cus=4, num_d2d=5),
        learning=rm.LearningParams(horizon=10_000),
        num_replications=200,
        seed=4,
        fixed_topology=False,
    )
    results = {
        policy: rm.run_experiment(rm.ExperimentConfig(policy=policy, **base))
        for policy in rm.POLICIES
    }
    return results, time.perf_counter() - start


def _paired_lower_bound(a: np.ndarray, b: np.ndarray) -> float:
    """One-sided 95% lower confidence bound for mean(a - b), paired."""
    diff = a - b
    n = len(diff)
    return float(diff.mean() - stats.t.ppf(0.95, n - 1) * diff.std(ddof=1) / math.sqrt(n))


@pytest.mark.slow
def test_policy_throughput_ordering(comparison_results):
    results, elapsed = comparison_results
    window = {p: r.rep_window_throughput for p, r in results.items()}
    bounds = {
        (a, b): _paired_lower_bound(window[a], window[b])
        for a, b in [
            ("ebriq", "epsilon_greedy"),
            ("epsilon_greedy", "random"),
            ("random", "noncoop"),
        ]
    }
    ordering_ok = all(lcb > 0 for lcb in bounds.values())
    ratio = window["ebriq"].mean() / window["gs_oracle"].mean()
    detail = (
        "95% lower bounds on paired gaps: "
        + ", ".join(f"{a}>{b}: {lcb:+.3f}" for (a, b), lcb in bounds.items())
        + f"; ebriq/gs_oracle = {ratio:.3f} (>= 0.9); {elapsed:.0f}s (< 600s)"
    )
    criterion(
        "policy-ordering",
        ordering_ok and ratio >= 0.9 and elapsed < 600.0,
        detail,
    )


# ---------------------------------------------------------------------------
# Exactness and reproducibility


def test_estimator_exactness():
    rng = np.random.default_rng(1_2008)
    sysp = rm.SystemParams()
    agent = rm.EbriQAgent(0, 2, 3, 2.3, sysp, rm.LearningParams())
    init = agent.rate_estimates[1]
    samples = rng.uniform(0.5, 8.0, 137)
    for r in samples:
        agent.record_cooperation(1, float(r))
    exact = (init + samples.sum()) / (1 + samples.size)
    gap = abs(agent.rate_estimates[1] - exact)
    criterion(
        "estimator-exactness",
        gap <= 1e-12,
        f"|running mean - (init + sum)/(1+k)| = {gap:.2e} after k=137 samples (<= 1e-12)",
    )


def test_byte_identical_reruns(tmp_path):
    config = rm.ExperimentConfig(
        topology=rm.TopologyParams(num_cus=2, num_d2d=3),
        learning=rm.LearningParams(horizon=120),
        policy="ebriq",
        num_replications=3,
        seed=77,
    )
    paths = []
    for name in ("first", "second"):
        res = rm.run_experiment(config)
        path = tmp_path / f"{name}.csv"
        rm.emit_csv(res, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    criterion(
        "reproducibility",
        identical,
        "two runs with the identical config produced byte-identical CSV output",
    )
