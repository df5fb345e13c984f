"""Self-contained oracle suites cross-checking the analytical components.

Each suite pits a closed-form or constructive implementation against an
exhaustive or grid-based reference on seeded random instances:

* ``nbs``       closed-form bargained allocation vs. dense grid search;
* ``stability`` deferred acceptance output vs. the stability predicate, and
                the predicate vs. the blocking-pair scan, on random matchings;
* ``theorem1``  equilibria of the proposal game vs. enumerated stable
                matchings (set equality, both directions);
* ``theorem2``  better-reply paths from random profiles terminate at
                equilibria through strictly improving single-CU steps.

Instances are synthetic rate tables (log-uniform rates with the structural
relay bound built in), resampled when the negotiation cost would not be
negligible against the instance's smallest positive cooperation score.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bargaining import nbs_alpha, nbs_alpha_oracle
from .channel import RateTable
from .game import better_reply_path, enumerate_pne, induced_matching
from .matching import (
    Matching,
    build_preferences,
    enumerate_stable_matchings,
    find_blocking_pairs,
    gale_shapley,
    is_stable,
)
from .params import SystemParams

__all__ = [
    "SuiteReport",
    "random_rate_table",
    "random_preferences",
    "random_matching",
    "verify_nbs",
    "verify_stability",
    "verify_theorem1",
    "verify_theorem2",
    "SUITES",
]


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    duration: float = 0.0

    def add(self, ok: bool, message: str) -> None:
        self.lines.append(f"{'ok' if ok else 'FAIL'} - {message}")
        self.passed = self.passed and ok


def _log_uniform(rng, low, high, size):
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def random_rate_table(num_cus: int, num_d2d: int, rng: np.random.Generator) -> RateTable:
    """Synthetic rates with the relay = (direct + forward leg)/2 structure."""
    direct = _log_uniform(rng, 0.1, 10.0, num_cus)
    forward = _log_uniform(rng, 0.1, 10.0, num_d2d)
    d2d = _log_uniform(rng, 0.1, 10.0, num_d2d)
    relay = 0.5 * (direct[:, None] + forward[None, :])
    return RateTable(direct_rates=direct, relay_rates=relay, d2d_rates=d2d)


def random_preferences(num_cus: int, num_d2d: int, rng: np.random.Generator,
                       sys: SystemParams):
    """Random preference instance keeping theta negligible vs. every score.

    Instances whose smallest positive CU score is within 2x of the
    negotiation cost are redrawn: the equilibrium/stability equivalence
    assumes the cost never flips a worthwhile cooperation.
    """
    while True:
        prefs = build_preferences(random_rate_table(num_cus, num_d2d, rng), sys)
        positive = prefs.cu_scores[prefs.cu_scores > 0]
        if positive.size == 0 or positive.min() > 2.0 * sys.theta:
            return prefs


def random_matching(num_cus: int, num_d2d: int, rng: np.random.Generator) -> Matching:
    """Uniform-ish random partial matching (each CU flips, then draws a free pair)."""
    free = list(range(num_d2d))
    cu_partner = [None] * num_cus
    for m in range(num_cus):
        if free and rng.random() < 0.7:
            n = free.pop(int(rng.integers(len(free))))
            cu_partner[m] = n
    return Matching.from_cu_partners(cu_partner, num_d2d)


def verify_nbs(num_pairs: int = 1000, grid_step: float = 1e-4, tol: float = 1.1e-4,
               seed: int = 1_2001) -> SuiteReport:
    """Closed-form allocation within one grid step of the oracle, flags exact."""
    report = SuiteReport("nbs", True)
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sys = SystemParams()
    relay = _log_uniform(rng, 0.1, 10.0, num_pairs)
    direct = _log_uniform(rng, 0.1, 10.0, num_pairs)
    max_gap = 0.0
    flag_mismatches = 0
    for r, d in zip(relay, direct):
        closed = nbs_alpha(r, d, sys)
        grid = nbs_alpha_oracle(r, d, sys, grid_step=grid_step)
        max_gap = max(max_gap, abs(closed.alpha_star - grid.alpha_star))
        flag_mismatches += closed.feasible != grid.feasible
    report.add(max_gap <= tol,
               f"max |closed - grid| alpha gap {max_gap:.3g} over {num_pairs} pairs (tol {tol:g})")
    report.add(flag_mismatches == 0,
               f"{flag_mismatches} feasibility flag mismatches over {num_pairs} pairs")
    report.duration = time.perf_counter() - start
    return report


def verify_stability(num_instances: int = 500, max_side: int = 6,
                     seed: int = 1_2002) -> SuiteReport:
    """Deferred acceptance always stable; predicate consistent with blocking scan."""
    report = SuiteReport("stability", True)
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sys = SystemParams()
    unstable_gs = 0
    predicate_mismatches = 0
    checked_matchings = 0
    for _ in range(num_instances):
        num_cus = int(rng.integers(1, max_side + 1))
        num_d2d = int(rng.integers(1, max_side + 1))
        prefs = build_preferences(random_rate_table(num_cus, num_d2d, rng), sys)
        mu = gale_shapley(prefs)
        if not is_stable(mu, prefs):
            unstable_gs += 1
        for mu_probe in (mu, random_matching(num_cus, num_d2d, rng),
                         random_matching(num_cus, num_d2d, rng)):
            checked_matchings += 1
            rational = all(prefs.acceptability[m, n] for m, n in mu_probe.pairs)
            stable = is_stable(mu_probe, prefs)
            if stable != (rational and not find_blocking_pairs(mu_probe, prefs)):
                predicate_mismatches += 1
    report.add(unstable_gs == 0,
               f"{unstable_gs}/{num_instances} deferred-acceptance outputs unstable")
    report.add(predicate_mismatches == 0,
               f"{predicate_mismatches}/{checked_matchings} stability/blocking disagreements")
    report.duration = time.perf_counter() - start
    return report


def verify_theorem1(num_instances: int = 100, seed: int = 1_2003) -> SuiteReport:
    """Equilibrium-induced matchings coincide with the stable set, both ways."""
    report = SuiteReport("theorem1", True)
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sys = SystemParams()
    mismatched = 0
    for _ in range(num_instances):
        num_cus = int(rng.integers(2, 4))
        num_d2d = int(rng.integers(2, 4))
        prefs = random_preferences(num_cus, num_d2d, rng, sys)
        equilibria = enumerate_pne(prefs, sys)
        induced = {induced_matching(b, prefs, sys) for b in equilibria}
        stable = set(enumerate_stable_matchings(prefs))
        if induced != stable:
            mismatched += 1
    report.add(mismatched == 0,
               f"{mismatched}/{num_instances} instances where equilibrium matchings "
               "differ from the stable set")
    report.duration = time.perf_counter() - start
    return report


def verify_theorem2(num_instances: int = 20, starts_per_instance: int = 100,
                    seed: int = 1_2004) -> SuiteReport:
    """Better-reply paths from random profiles all end at equilibria."""
    report = SuiteReport("theorem2", True)
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    sys = SystemParams()
    bad_endpoints = 0
    total = 0
    for instance in range(num_instances):
        num_cus = int(rng.integers(2, 4))
        num_d2d = int(rng.integers(2, 4))
        prefs = random_preferences(num_cus, num_d2d, rng, sys)
        pne_set = set(enumerate_pne(prefs, sys))
        actions = (None, *range(num_d2d))
        for s in range(starts_per_instance):
            profile = tuple(actions[rng.integers(len(actions))] for _ in range(num_cus))
            path = better_reply_path(profile, prefs, sys, seed=instance * 1000 + s)
            total += 1
            if path[-1] not in pne_set:
                bad_endpoints += 1
    report.add(bad_endpoints == 0,
               f"{bad_endpoints}/{total} better-reply paths ended off-equilibrium")
    report.duration = time.perf_counter() - start
    return report


SUITES = {
    "nbs": verify_nbs,
    "stability": verify_stability,
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
}
