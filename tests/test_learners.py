import math
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import relaymatch as rm
from relaymatch import learners
from relaymatch.config_io import load_config
from relaymatch.game import PASS, Proposal
from relaymatch.harness import _fading_rng, _replication_rng, _topology_rng, fading_rows
from relaymatch.learners import PeriodObservation, PublicRecord, epsilon_schedule

LEARN = rm.LearningParams()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class ScriptedRng:
    """Feeds act() a fixed sequence of uniform draws."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_agent(sysp, index=0, num_cus=2, num_d2d=2, direct_rate=1.0, params=LEARN):
    bias = tuple((i + 1) * 1e-6 for i in range(num_cus))
    return rm.EbriQAgent(index, num_cus, num_d2d, direct_rate, sysp, params, bias)


def obs_for(agent, proposals, choices):
    """Build a consistent observation for ``agent`` given the joint round."""
    own = proposals[agent.index]
    chosen = own.target is not None and choices[own.target] == agent.index
    samples = [None] * len(proposals)
    samples[agent.index] = 1.5 if chosen else None
    return PeriodObservation(tuple(proposals), tuple(choices), tuple(samples))


class TestSchedule:
    def test_starts_at_epsilon0(self):
        assert epsilon_schedule(1, 0.1, 2, 4) == pytest.approx(0.1)

    def test_reference_point(self):
        # 256^(1/8) = 2, so the rate halves by t = 256 for M=2, L=4
        assert epsilon_schedule(256, 0.1, 2, 4) == pytest.approx(0.05, rel=1e-12)

    def test_slower_decay_with_longer_memory(self):
        assert epsilon_schedule(1000, 0.1, 2, 8) > epsilon_schedule(1000, 0.1, 2, 4)


class TestEbriqInitialization:
    def test_optimistic_start_makes_every_pair_acceptable(self, sysp):
        agent = make_agent(sysp, direct_rate=2.3)
        for n in range(agent.num_d2d):
            estimate = agent.rate_estimates[n]
            alpha = agent.own_alphas[n]
            assert (1 - alpha) * estimate - agent.direct_rate > 0
            assert alpha == pytest.approx(
                min(max((estimate - 2.3) / (2 * estimate), sysp.alpha_low), sysp.alpha_high)
            )

    def test_first_period_proposes_uniformly_with_own_alpha(self, sysp):
        agent = make_agent(sysp)
        prop = agent.act(1, ScriptedRng(0.7))
        assert prop.target == 1  # int(0.7 * 2)
        assert prop.alpha == agent.own_alphas[1]


class TestEbriqActBranches:
    def test_exploration_with_announcement(self, sysp):
        agent = make_agent(sysp)
        # below epsilon -> explore; target draw 0.6 -> pair 1; below zeta -> own alpha
        prop = agent.act(2, ScriptedRng(0.0, 0.6, 0.05))
        assert prop == Proposal(1, agent.own_alphas[1])

    def test_exploration_with_oversized_allocation(self, sysp):
        agent = make_agent(sysp)
        prop = agent.act(2, ScriptedRng(0.0, 0.6, 0.95))
        assert prop == Proposal(1, sysp.alpha_high + sysp.theta_prime)
        assert prop.alpha == pytest.approx(0.501)

    def test_inertia_repeats_last_action(self, sysp):
        agent = make_agent(sysp)
        agent.last_action = 0
        agent.record.memory.append((0, 1))
        prop = agent.act(2, ScriptedRng(0.99, 0.0))  # no explore; inertia draw passes
        assert prop == Proposal(0, agent.own_alphas[0])

    def test_better_reply_moves_toward_higher_estimated_utility(self, sysp):
        agent = make_agent(sysp)
        agent.set_estimate(0, 1.2)
        agent.set_estimate(1, 5.0)
        agent.last_action = 0
        agent.record.memory.append((0, None))  # opponent elsewhere: both pairs winnable
        prop = agent.act(2, ScriptedRng(0.99, 0.99, 0.0))
        assert prop.target == 1

    def test_no_better_reply_repeats(self, sysp):
        agent = make_agent(sysp)
        agent.set_estimate(0, 5.0)
        agent.set_estimate(1, 1.2)
        agent.last_action = 0
        agent.record.memory.append((0, None))
        prop = agent.act(2, ScriptedRng(0.99, 0.99, 0.0))
        assert prop.target == 0

    def test_exploration_rate_statistics(self, sysp):
        # pin the non-exploring branch to pair 0 so proposals to pair 1 can
        # only come from the exploration branch
        agent = make_agent(sysp)
        agent.set_estimate(0, 5.0)
        agent.set_estimate(1, 1.2)
        agent.last_action = 0
        agent.record.memory.append((0, None))
        t = 100
        eps = epsilon_schedule(t, LEARN.epsilon0, agent.num_cus, LEARN.memory_length)
        rng = random.Random(5)
        trials = 40_000
        to_pair1 = 0
        oversized = 0
        for _ in range(trials):
            prop = agent.act(t, rng)
            if prop.target == 1:
                to_pair1 += 1
                if prop.alpha == sysp.alpha_explore:
                    oversized += 1
        expect = eps / 2
        se = math.sqrt(expect * (1 - expect) / trials)
        assert abs(to_pair1 / trials - expect) < 4 * se
        expect_e = eps / 2 * (1 - LEARN.zeta)
        se_e = math.sqrt(expect_e * (1 - expect_e) / trials)
        assert abs(oversized / trials - expect_e) < 4 * se_e

    def test_exploration_probability_comes_from_schedule(self, sysp, monkeypatch):
        agent = make_agent(sysp)
        agent.last_action = 0
        agent.record.memory.append((0, 1))
        calls = []

        def always(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(learners, "epsilon_schedule", always)
        # 0.99 < 1.0 explores: target draw 0.6 -> pair 1; 0.05 < zeta announces
        assert agent.act(7, ScriptedRng(0.99, 0.6, 0.05)) == Proposal(1, agent.own_alphas[1])
        assert calls == [(7, LEARN.epsilon0, agent.num_cus, LEARN.memory_length)]
        monkeypatch.setattr(learners, "epsilon_schedule", lambda *args: 0.0)
        # 0.0 is not below 0.0, so no exploration; the inertia draw repeats
        assert agent.act(7, ScriptedRng(0.0, 0.0)) == Proposal(0, agent.own_alphas[0])

    def test_oversized_allocation_beats_any_bargained_one(self, sysp):
        agent = make_agent(sysp)
        assert sysp.alpha_explore > sysp.alpha_high
        assert all(a <= sysp.alpha_high for a in agent.own_alphas)


class TestEstimatorUpdates:
    def test_first_sample_halves_toward_observation(self, sysp):
        agent = make_agent(sysp)
        init = agent.rate_estimates[0]
        agent.record_cooperation(0, 2.0)
        assert agent.rate_estimates[0] == pytest.approx((init + 2.0) / 2)

    def test_running_mean_identity(self, sysp):
        rng = np.random.default_rng(11)
        agent = make_agent(sysp, direct_rate=2.0)
        init = agent.rate_estimates[1]
        samples = rng.uniform(1.0, 6.0, 200)
        for r in samples:
            agent.record_cooperation(1, float(r))
        exact = (init + samples.sum()) / (1 + samples.size)
        assert abs(agent.rate_estimates[1] - exact) <= 1e-12

    def test_not_chosen_leaves_estimates_alone(self, sysp):
        agent = make_agent(sysp)
        before = list(agent.rate_estimates)
        proposals = (Proposal(0, agent.own_alphas[0]), Proposal(0, 0.4))
        agent.update(obs_for(agent, proposals, (1, None)), 2)
        assert agent.rate_estimates == before
        assert agent.coop_counts == [0, 0]

    def test_alpha_invariant_after_updates(self, sysp):
        rng = np.random.default_rng(13)
        agent = make_agent(sysp, direct_rate=2.0)
        for _ in range(50):
            n = int(rng.integers(2))
            agent.record_cooperation(n, float(rng.uniform(0.5, 8.0)))
            for k in range(2):
                expected = min(
                    max((agent.rate_estimates[k] - 2.0) / (2 * agent.rate_estimates[k]),
                        sysp.alpha_low),
                    sysp.alpha_high,
                )
                assert agent.own_alphas[k] == pytest.approx(expected)

    def test_malformed_observation_raises(self, sysp):
        agent = make_agent(sysp)
        proposals = (Proposal(0, 0.2), PASS)
        with pytest.raises(ValueError, match="missing"):
            agent.update(PeriodObservation(proposals, (0, None), (None, None)), 2)
        with pytest.raises(ValueError, match="not chosen"):
            agent.update(PeriodObservation(proposals, (1, None), (1.5, None)), 2)


class TestAnnouncedAllocations:
    def test_records_other_cus_proposals(self, sysp):
        agent = make_agent(sysp)
        proposals = (PASS, Proposal(1, 0.27))
        agent.update(obs_for(agent, proposals, (None, 1)), 2)
        assert agent.record.announced_alphas[1][1] == pytest.approx(0.27)
        assert agent.record.announced_alphas[1][0] == sysp.alpha_low  # untouched default

    def test_skips_oversized_exploration_announcements(self, sysp):
        agent = make_agent(sysp)
        proposals = (PASS, Proposal(1, sysp.alpha_explore))
        agent.update(obs_for(agent, proposals, (None, 1)), 2)
        assert agent.record.announced_alphas[1][1] == sysp.alpha_low


class TestMemory:
    def test_window_evicts_beyond_length(self, sysp):
        agent = make_agent(sysp)
        for k in range(LEARN.memory_length + 3):
            target = k % 2
            proposals = (PASS, Proposal(target, 0.2))
            choices = (1, None) if target == 0 else (None, 1)
            agent.update(obs_for(agent, proposals, choices), 2 + k)
        assert len(agent.record.memory) == LEARN.memory_length
        assert list(agent.record.memory)[-1] == (None, (LEARN.memory_length + 2) % 2)

    def test_scores_depend_only_on_window(self, sysp):
        a = make_agent(sysp)
        b = make_agent(sysp)
        window = [(0, 1), (1, None), (0, 0), (1, 1)]
        a.record.memory = deque([(0, None), (1, 0)] + window, maxlen=LEARN.memory_length)
        b.record.memory = deque(window, maxlen=LEARN.memory_length)
        assert list(a.record.memory) == window
        assert a._summed_utilities(a.record.memory) == b._summed_utilities(b.record.memory)


class TestPublicRecord:
    def test_agents_of_a_replication_share_one_record(self, sysp):
        topology = rm.generate_topology(rm.TopologyParams(num_cus=3, num_d2d=2),
                                        _topology_rng(2, None))
        env = rm.SimEnvironment(topology, sysp)
        agents = rm.make_agents("ebriq", env, LEARN)
        record = agents[0].record
        assert all(agent.record is record for agent in agents)
        rng = random.Random(3)
        rows = fading_rows(env.snr_scales, LEARN.memory_length + 3, np.random.default_rng(3))
        for t, fading in enumerate(rows, start=1):
            rm.run_period(env, agents, t, rng, fading)
            assert len(record.memory) == min(t, LEARN.memory_length)
            assert record.memory[-1] == tuple(agent.last_action for agent in agents)
        assert rm.make_agents("ebriq", env, LEARN)[0].record is not record

    def test_one_observation_advances_the_record_once(self, sysp):
        bias = (1e-6, 2e-6, 3e-6)
        record = PublicRecord(3, 2, sysp, LEARN.memory_length, bias)
        agents = [rm.EbriQAgent(m, 3, 2, 1.0, sysp, LEARN, bias, record)
                  for m in range(3)]
        proposals = (Proposal(0, 0.2), Proposal(0, 0.3), PASS)
        obs = PeriodObservation(proposals, (1, None), (None, 1.5, None))
        for agent in agents:
            agent.update(obs, 2)
        assert list(record.memory) == [(0, 0, None)]
        assert record.announced_alphas[0][0] == 0.2
        assert record.announced_alphas[1][0] == 0.3
        assert agents[1].coop_counts == [1, 0]
        assert agents[0].coop_counts == [0, 0]
        # a second period, even with the same content, is a new observation
        again = PeriodObservation(proposals, (1, None), (None, 1.5, None))
        for agent in agents:
            agent.update(again, 3)
        assert list(record.memory) == [(0, 0, None)] * 2

    def test_agent_without_record_gets_its_own(self, sysp):
        a, b = make_agent(sysp), make_agent(sysp)
        assert a.record is not b.record


class TestTables:
    @pytest.mark.parametrize("name", ["small_network.ini", "comparison.ini"])
    def test_tables_equal_their_recomputation_after_a_run(self, name):
        config = load_config(CONFIGS / name)
        topology = rm.generate_topology(config.topology, _topology_rng(config.seed, 0))
        env = rm.SimEnvironment(topology, config.system)
        agents = rm.make_agents("ebriq", env, config.learning)
        rng = _replication_rng(config.seed, 0)
        rows = fading_rows(env.snr_scales, 300, _fading_rng(config.seed, 0))
        for t, fading in enumerate(rows, start=1):
            rm.run_period(env, agents, t, rng, fading)
        record = agents[0].record
        bias = env.rule.bias
        assert record.bias == bias
        theta = config.system.theta
        for m, agent in enumerate(agents):
            assert record.bids[m] == [alpha + bias[m] for alpha in record.announced_alphas[m]]
            assert agent.bids == [alpha + bias[m] for alpha in agent.own_alphas]
            assert agent.win_value == [
                (1.0 - alpha) * estimate - agent.direct_rate - theta
                for alpha, estimate in zip(agent.own_alphas, agent.rate_estimates)
            ]
            assert agent.own_alphas == [agent._alpha_of(r) for r in agent.rate_estimates]
        # the run moved the tables off their start values
        assert any(a != config.system.alpha_low for row in record.announced_alphas for a in row)
        assert all(sum(agent.coop_counts) > 0 for agent in agents)

    def test_record_and_agents_must_share_biases(self, sysp):
        record = PublicRecord(2, 2, sysp, LEARN.memory_length, (2e-6, 1e-6))
        with pytest.raises(ValueError, match="other biases"):
            rm.EbriQAgent(0, 2, 2, 1.0, sysp, LEARN, (1e-6, 2e-6), record)
        with pytest.raises(ValueError, match="one bias per CU"):
            PublicRecord(3, 2, sysp, LEARN.memory_length, (2e-6, 1e-6))


class TestEstimatedUtility:
    def test_opting_out_is_zero(self, sysp):
        agent = make_agent(sysp)
        assert agent.estimated_utility(None, (None, 1)) == 0.0

    def test_uncontested_target_value(self, sysp):
        agent = make_agent(sysp, direct_rate=1.0)
        agent.set_estimate(1, 2.0)
        assert agent.own_alphas[1] == 0.25  # (2 - 1) / (2 * 2)
        assert agent.estimated_utility(1, (1, None)) == pytest.approx(0.499)

    def test_losing_to_higher_announcement_costs_theta(self, sysp):
        agent = make_agent(sysp)
        agent.set_estimate(0, 5 / 3)
        assert agent.own_alphas[0] == pytest.approx(0.2)
        agent.record.announce(1, 0, 0.3)
        assert agent.estimated_utility(0, (None, 0)) == pytest.approx(-sysp.theta)

    def test_memory_scores_sum_single_evaluations(self, sysp):
        rng = np.random.default_rng(17)
        agent = make_agent(sysp, num_cus=3, num_d2d=3)
        for n, estimate in enumerate([2.0, 3.0, 4.0]):
            agent.set_estimate(n, estimate)
        for m in range(3):
            for n in range(3):
                agent.record.announce(m, n, float(rng.uniform(0.1, 0.5)))
        entries = [
            tuple(None if rng.random() < 0.3 else int(rng.integers(3)) for _ in range(3))
            for _ in range(4)
        ]
        agent.record.memory = deque(entries, maxlen=4)
        scores = agent._summed_utilities(agent.record.memory)
        for n in range(3):
            assert scores[n] == pytest.approx(
                sum(agent.estimated_utility(n, e) for e in entries)
            )


class TestEpsilonGreedy:
    def make(self, sysp, epsilon, num_d2d=3):
        return rm.EpsilonGreedyAgent(0, 2, num_d2d, 1.0, sysp, epsilon=epsilon)

    def test_equal_estimates_choose_uniformly(self, sysp):
        agent = self.make(sysp, epsilon=0.0)
        rng = random.Random(3)
        counts = [0, 0, 0]
        for _ in range(30_000):
            counts[agent.act(2, rng).target] += 1
        for c in counts:
            assert abs(c / 30_000 - 1 / 3) < 0.012

    def test_pure_greedy_picks_dominating_arm(self, sysp):
        agent = self.make(sysp, epsilon=0.0)
        agent.q_values = [0.1, 0.9, 0.2]
        prop = agent.act(2, ScriptedRng(0.99))
        assert prop.target == 1
        assert prop.alpha == agent.own_alphas[1]

    def test_rejection_lowers_arm_value(self, sysp):
        agent = self.make(sysp, epsilon=0.0)
        q0 = agent.q_values[2]
        proposals = (Proposal(2, agent.own_alphas[2]), PASS)
        agent.update(obs_for(agent, proposals, (None, None, 1)), 2)
        assert agent.pull_counts[2] == 1
        assert agent.q_values[2] == pytest.approx(-sysp.theta)
        assert agent.q_values[2] < q0

    def test_acceptance_reward_uses_realized_rate(self, sysp):
        agent = self.make(sysp, epsilon=0.0)
        alpha = agent.own_alphas[1]
        proposals = (Proposal(1, alpha), PASS)
        obs = PeriodObservation(proposals, (None, 0, None), (1.5, None))
        agent.update(obs, 2)
        assert agent.q_values[1] == pytest.approx((1 - alpha) * 1.5 - 1.0 - sysp.theta)
        assert agent.coop_counts[1] == 1  # shared estimator updated too

    def test_rejects_bad_epsilon(self, sysp):
        with pytest.raises(ValueError):
            self.make(sysp, epsilon=1.5)


class TestSimpleBaselines:
    def test_random_agent_uniform_targets_fixed_alpha(self, sysp):
        agent = rm.RandomAgent(5, sysp)
        rng = random.Random(7)
        counts = [0] * 5
        for _ in range(100_000):
            prop = agent.act(1, rng)
            assert prop.target is not None
            assert prop.alpha == sysp.alpha_low
            counts[prop.target] += 1
        for c in counts:
            assert abs(c / 100_000 - 0.2) < 0.01

    def test_noncoop_always_passes(self, sysp):
        agent = rm.NonCoopAgent()
        for t in (1, 2, 100):
            assert agent.act(t, random.Random(1)) == PASS

    def test_fixed_proposal_agent(self):
        agent = rm.FixedProposalAgent(2, 0.3)
        assert agent.act(1, random.Random(0)) == Proposal(2, 0.3)
        assert agent.alpha_estimate(2) == 0.3
        assert rm.FixedProposalAgent(None, None).act(5, random.Random(0)) == PASS
