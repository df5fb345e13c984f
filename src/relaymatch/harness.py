"""Experiment orchestration: period loop, Monte Carlo replication, file output.

A replication simulates one topology for a fixed horizon of synchronous
periods. Per period: collect proposals, let every D2D pair choose, read the
period's row of fading realizations, hand every agent the period's one
observation, and record metrics.
Replications are seeded independently from the experiment seed through
numpy's SeedSequence, so results are reproducible bit-for-bit and independent
of execution order and of the replication count. A replication has two
streams of its own: the agents' decision draws come from a stdlib
``random.Random`` stream, which keeps the agents' scalar draws cheap, and the
fading from a numpy Generator, drawn as one table row per period
(``channel.sample_log_rates``) a chunk of periods at a time. A row holds the
realized rate of every link, CU->BS, DT->BS and DT->DR in that order
(``SimEnvironment.snr_scales``), whether or not the period uses it, so the
fading never depends on what the agents do.

Throughput accounting per period: a matched CU contributes its realized
relayed frame rate (1 - alpha) * r, an unmatched CU its realized direct rate,
and a matched D2D pair the rate of its alpha share of the frame. The CU-only
portion is also tracked separately. The ``expected`` throughput mode swaps
realized rates for their expectations in the metrics (learning still sees
noisy samples).
"""

from __future__ import annotations

import math
import random as _random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .channel import Topology, generate_topology, sample_log_rates, snr_scales, true_rates
from .config_io import write_manifest
from .errors import ConfigurationError
from .game import check_negotiation_cost, choice_winners
from .learners import (
    EbriQAgent,
    EpsilonGreedyAgent,
    FixedProposalAgent,
    PeriodObservation,
    PublicRecord,
    RandomAgent,
)
from .matching import Matching, build_preferences, gale_shapley, is_stable
from .params import (
    FADING_CHUNK_ELEMENTS,
    POLICIES,
    STABILITY_CACHE_SIZE,
    ExperimentConfig,
    LearningParams,
    SystemParams,
)

__all__ = [
    "POLICIES",
    "ExperimentConfig",
    "PeriodMetrics",
    "SimEnvironment",
    "ResultSet",
    "fading_rows",
    "make_agents",
    "run_period",
    "run_replication",
    "run_experiment",
    "emit_csv",
    "write_manifest",
]

CSV_HEADER = "period,mean_throughput,sm_fraction,mean_alpha_ratio,policy"
_CSV_CHUNK_ROWS = 1024


class PeriodMetrics(NamedTuple):
    period: int
    system_throughput: float  # CU frame rates plus matched pairs' D2D rates
    cu_throughput: float  # CU frame rates only
    sm_indicator: bool  # induced matching is stable under the true preferences
    mean_alpha_ratio: float  # mean over matched pairs of estimate/true alpha; NaN if none
    num_matched: int


class SimEnvironment:
    """One topology with everything the harness (not the agents) knows.

    Raises ``ConfigurationError`` when the instance breaks the
    negotiation-cost precondition (``game.check_negotiation_cost``).
    """

    def __init__(self, topology: Topology, sys: SystemParams):
        self.topology = topology
        self.sys = sys
        self.rates = true_rates(topology, sys)
        self.prefs = build_preferences(self.rates, sys)
        check_negotiation_cost(self.prefs, sys)
        self.snr_scales = np.concatenate(snr_scales(topology, sys))  # CU->BS, DT->BS, DT->DR
        self.direct_rates = [float(r) for r in self.rates.direct_rates]
        self.relay_rates = [list(map(float, row)) for row in self.rates.relay_rates]
        self.d2d_rates = [float(r) for r in self.rates.d2d_rates]
        self.alpha_star = [list(map(float, row)) for row in self.prefs.d2d_scores]
        self.num_cus = topology.num_cus
        self.num_d2d = topology.num_d2d
        self._stability_cache: dict = {}

    def matching_is_stable(self, winners) -> bool:
        """Stability of the matching given by each pair's chosen CU.

        Cached for the first ``STABILITY_CACHE_SIZE`` matchings seen.
        """
        key = tuple(winners)
        cached = self._stability_cache.get(key)
        if cached is None:
            cached = is_stable(Matching.from_d2d_partners(key, self.num_cus), self.prefs)
            if len(self._stability_cache) < STABILITY_CACHE_SIZE:
                self._stability_cache[key] = cached
        return cached


def make_agents(policy: str, env: SimEnvironment, learning: LearningParams) -> list:
    """Fresh per-CU agents for one replication."""
    m_range = range(env.num_cus)
    if policy == "ebriq":
        record = PublicRecord(env.num_cus, env.num_d2d, env.sys, learning.memory_length)
        return [
            EbriQAgent(m, env.num_cus, env.num_d2d, env.direct_rates[m],
                       env.sys, learning, record)
            for m in m_range
        ]
    if policy == "epsilon_greedy":
        return [
            EpsilonGreedyAgent(m, env.num_cus, env.num_d2d, env.direct_rates[m], env.sys)
            for m in m_range
        ]
    if policy == "random":
        return [RandomAgent(env.num_d2d, env.sys) for _ in m_range]
    if policy == "noncoop":
        return [FixedProposalAgent(None, None) for _ in m_range]
    if policy == "gs_oracle":
        mu = gale_shapley(env.prefs)
        return [
            FixedProposalAgent(
                mu.cu_partner[m],
                None if mu.cu_partner[m] is None else env.alpha_star[m][mu.cu_partner[m]],
            )
            for m in m_range
        ]
    raise ConfigurationError(f"unknown policy {policy!r}")


def run_period(env: SimEnvironment, agents, t: int, rng: _random.Random, fading,
               sampled: bool = True) -> PeriodMetrics:
    """One synchronous round; mutates the agents, returns the period metrics.

    ``rng`` serves the agents' decisions. ``fading`` is the period's row of
    realized link rates (``SimEnvironment.snr_scales`` gives the column
    order): a matched CU m with pair n samples the relayed rate
    ``0.5 * (fading[m] + fading[M + n])``, the pair's D2D rate is
    ``fading[M + N + n]``, and an unmatched CU's direct rate ``fading[m]``.
    """
    proposals = tuple([agent.act(t, rng) for agent in agents])
    winners = tuple(choice_winners(proposals, env.num_d2d))

    num_cus = env.num_cus
    own = num_cus + env.num_d2d  # column of pair 0's DT->DR link
    alpha_star = env.alpha_star
    cu_throughput = 0.0
    d2d_throughput = 0.0
    num_matched = 0
    ratio_sum = 0.0
    rate_samples = [None] * num_cus
    for n, m in enumerate(winners):
        if m is None:
            continue
        num_matched += 1
        alpha = proposals[m].alpha
        sample = 0.5 * (fading[m] + fading[num_cus + n])
        rate_samples[m] = sample
        if sampled:
            cu_throughput += (1.0 - alpha) * sample
            d2d_throughput += alpha * fading[own + n]
        else:
            cu_throughput += (1.0 - alpha) * env.relay_rates[m][n]
            d2d_throughput += alpha * env.d2d_rates[n]
        ratio_sum += agents[m].alpha_estimate(n) / alpha_star[m][n]
    for m, sample in enumerate(rate_samples):
        if sample is None:
            if sampled:
                cu_throughput += fading[m]
            else:
                cu_throughput += env.direct_rates[m]

    obs = PeriodObservation(proposals, winners, tuple(rate_samples))
    for agent in agents:
        agent.update(obs, t)

    # Positional: a keyword NamedTuple call costs about a microsecond more.
    return PeriodMetrics(t, cu_throughput + d2d_throughput, cu_throughput,
                         env.matching_is_stable(winners),
                         ratio_sum / num_matched if num_matched else math.nan, num_matched)


class ReplicationTrace(NamedTuple):
    """Per-period series of one replication plus the final estimator state."""

    system_throughput: np.ndarray
    cu_throughput: np.ndarray
    sm_indicator: np.ndarray
    mean_alpha_ratio: np.ndarray
    final_alpha_ratio: np.ndarray  # (M, N); NaN where the pair was never sampled


def fading_rows(snr_scale: np.ndarray, horizon: int, rng: np.random.Generator):
    """The rows 1..horizon of a replication's fading table, as lists of floats.

    Drawn ``FADING_CHUNK_ELEMENTS`` samples (at least one row) at a time;
    the table fills row by row, so the chunk size changes no value.
    """
    chunk_rows = max(1, FADING_CHUNK_ELEMENTS // len(snr_scale))
    for start in range(0, horizon, chunk_rows):
        yield from sample_log_rates(snr_scale, min(chunk_rows, horizon - start), rng).tolist()


def run_replication(env: SimEnvironment, policy: str, learning: LearningParams,
                    rng: _random.Random, fading_rng: np.random.Generator,
                    throughput_mode: str = "sampled") -> ReplicationTrace:
    """Simulate one seeded replication over ``learning.horizon`` periods.

    ``rng`` drives the agents' decisions and ``fading_rng`` the fading table.
    """
    horizon = learning.horizon
    sampled = throughput_mode == "sampled"
    agents = make_agents(policy, env, learning)
    system = np.empty(horizon)
    cu_only = np.empty(horizon)
    sm = np.empty(horizon, dtype=bool)
    ratio = np.empty(horizon)
    rows = fading_rows(env.snr_scales, horizon, fading_rng)
    for t, fading in enumerate(rows, start=1):
        metrics = run_period(env, agents, t, rng, fading, sampled)
        i = t - 1
        system[i] = metrics.system_throughput
        cu_only[i] = metrics.cu_throughput
        sm[i] = metrics.sm_indicator
        ratio[i] = metrics.mean_alpha_ratio
    final_ratio = np.full((env.num_cus, env.num_d2d), np.nan)
    for m, agent in enumerate(agents):
        counts = getattr(agent, "coop_counts", None)
        if counts is None:
            continue
        for n in range(env.num_d2d):
            if counts[n] > 0:
                final_ratio[m, n] = agent.alpha_estimate(n) / env.alpha_star[m][n]
    return ReplicationTrace(system, cu_only, sm, ratio, final_ratio)


@dataclass
class ResultSet:
    """Replication-averaged series plus per-replication summaries."""

    config: ExperimentConfig
    periods: np.ndarray
    mean_throughput: np.ndarray  # system throughput, mean over replications
    mean_cu_throughput: np.ndarray
    sm_fraction: np.ndarray
    mean_alpha_ratio: np.ndarray  # NaN-aware mean over replications
    window_start: int  # first period index of the final-10% window
    rep_window_throughput: np.ndarray  # (R,) final-window mean per replication
    rep_window_sm: np.ndarray  # (R,)
    rep_final_alpha_ratio: np.ndarray  # (R, M, N)

    @property
    def window_mean_throughput(self) -> float:
        return float(self.rep_window_throughput.mean())

    @property
    def window_sm_fraction(self) -> float:
        return float(self.rep_window_sm.mean())


def _replication_rng(seed: int, rep: int) -> _random.Random:
    state = np.random.SeedSequence([seed, 1, rep]).generate_state(2, dtype=np.uint64)
    return _random.Random(int(state[0]) << 64 | int(state[1]))


def _fading_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 3, rep]))


def _topology_rng(seed: int, rep: Optional[int]) -> np.random.Generator:
    key = [seed, 0] if rep is None else [seed, 2, rep]
    return np.random.default_rng(np.random.SeedSequence(key))


def run_experiment(config: ExperimentConfig, out_dir=None) -> ResultSet:
    """Run all replications of one policy and aggregate per-period metrics.

    Seeds are derived per replication from ``config.seed`` with a splittable
    scheme, so any execution order yields identical results. With
    ``fixed_topology`` one topology (and its derived preferences) is shared
    by every replication; otherwise each replication draws its own. When
    ``out_dir`` is given, the per-policy CSV and the run manifest are
    written there.
    """
    horizon = config.learning.horizon
    reps = config.num_replications
    shared_env = None
    if config.fixed_topology:
        topology = generate_topology(config.topology, _topology_rng(config.seed, None))
        shared_env = SimEnvironment(topology, config.system)

    sum_system = np.zeros(horizon)
    sum_cu = np.zeros(horizon)
    sum_sm = np.zeros(horizon)
    sum_ratio = np.zeros(horizon)
    cnt_ratio = np.zeros(horizon, dtype=np.int64)
    window_start = horizon - max(1, horizon // 10)
    rep_window_throughput = np.empty(reps)
    rep_window_sm = np.empty(reps)
    final_ratios = np.empty((reps, config.topology.num_cus, config.topology.num_d2d))

    for rep in range(reps):
        if shared_env is not None:
            env = shared_env
        else:
            topology = generate_topology(config.topology, _topology_rng(config.seed, rep))
            env = SimEnvironment(topology, config.system)
        trace = run_replication(
            env, config.policy, config.learning,
            _replication_rng(config.seed, rep), _fading_rng(config.seed, rep),
            throughput_mode=config.throughput_mode,
        )
        sum_system += trace.system_throughput
        sum_cu += trace.cu_throughput
        sum_sm += trace.sm_indicator
        seen = ~np.isnan(trace.mean_alpha_ratio)
        sum_ratio[seen] += trace.mean_alpha_ratio[seen]
        cnt_ratio += seen
        rep_window_throughput[rep] = trace.system_throughput[window_start:].mean()
        rep_window_sm[rep] = trace.sm_indicator[window_start:].mean()
        final_ratios[rep] = trace.final_alpha_ratio

    with np.errstate(invalid="ignore"):
        mean_ratio = np.where(cnt_ratio > 0, sum_ratio / np.maximum(cnt_ratio, 1), np.nan)
    results = ResultSet(
        config=config,
        periods=np.arange(1, horizon + 1),
        mean_throughput=sum_system / reps,
        mean_cu_throughput=sum_cu / reps,
        sm_fraction=sum_sm / reps,
        mean_alpha_ratio=mean_ratio,
        window_start=window_start,
        rep_window_throughput=rep_window_throughput,
        rep_window_sm=rep_window_sm,
        rep_final_alpha_ratio=final_ratios,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        emit_csv(results, out_dir / f"{config.policy}.csv")
        write_manifest(config, out_dir / "manifest.txt")
    return results


def emit_csv(results: ResultSet, path) -> None:
    """Write the per-period aggregates; deterministic byte-for-byte."""
    if len(results.periods) == 0:
        raise ValueError("results are empty")
    path = Path(path)
    policy = results.config.policy
    columns = (results.periods, results.mean_throughput, results.sm_fraction,
               results.mean_alpha_ratio)
    try:
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            # Python floats format faster than numpy scalars; converting a
            # chunk at a time keeps the temporary lists small.
            for start in range(0, len(results.periods), _CSV_CHUNK_ROWS):
                chunk = [column[start:start + _CSV_CHUNK_ROWS].tolist() for column in columns]
                fh.write("".join([
                    f"{t},{throughput:.9g},{sm_fraction:.9g},{alpha_ratio:.9g},{policy}\n"
                    for t, throughput, sm_fraction, alpha_ratio in zip(*chunk)
                ]))
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
