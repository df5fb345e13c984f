from itertools import product
from pathlib import Path

import numpy as np
import pytest

import relaymatch as rm
from relaymatch.errors import CapacityError, ConfigurationError
from relaymatch.config_io import load_config
from relaymatch.game import PASS, check_negotiation_cost, choice_winners, lost_pairs
from relaymatch.harness import _topology_rng
from relaymatch.matching import enumerate_stable_matchings, gale_shapley
from relaymatch.verification import random_preferences

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THETA = rm.SystemParams().theta


class TestChoice:
    def test_strict_max_wins(self):
        proposals = [rm.Proposal(0, 0.3), rm.Proposal(0, 0.4)]
        assert choice_winners(proposals, 1) == [1]

    def test_no_proposers(self):
        assert choice_winners([rm.Proposal(0, 0.3), PASS], 2)[1] is None

    def test_exact_tie_goes_to_the_lower_index(self):
        proposals = [rm.Proposal(0, 0.3), rm.Proposal(0, 0.3), rm.Proposal(0, 0.3)]
        assert choice_winners(proposals, 1) == [0]
        assert choice_winners([PASS, *proposals[1:]], 1) == [1]

    def test_argmax_invariant_to_common_shift(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            alphas = rng.uniform(0.1, 0.5, 3)
            targets = rng.integers(0, 2, 3)
            base = [rm.Proposal(int(t), float(a)) for t, a in zip(targets, alphas)]
            shifted = [rm.Proposal(int(t), float(a) + 0.05) for t, a in zip(targets, alphas)]
            assert choice_winners(base, 2) == choice_winners(shifted, 2)


class TestTieOrder:
    """Every exact allocation tie goes to the lower CU index."""

    prefs = rm.PreferenceProfile(cu_scores=np.full((3, 2), 0.5), d2d_scores=np.full((3, 2), 0.2))

    def test_choice_and_deviation_scan_and_deferred_acceptance_agree(self):
        alphas = self.prefs.d2d_scores.tolist()
        assert choice_winners([rm.Proposal(0, 0.2)] * 3, 2) == [0, None]
        targets = (0, 1, 0)
        for m, expected in ((0, []), (1, [0]), (2, [0, 1])):
            assert lost_pairs(m, targets, alphas, alphas[m]) == expected
        assert gale_shapley(self.prefs).cu_partner == (0, 1, None)

    def test_cu_score_tie_goes_to_the_lower_pair_in_the_game(self, sysp):
        pnes = rm.enumerate_pne(self.prefs, sysp)
        induced = {rm.induced_matching(b, self.prefs, sysp) for b in pnes}
        assert induced == set(enumerate_stable_matchings(self.prefs))
        assert [mu.cu_partner for mu in induced] == [(0, 1, None)]
        for start in product((None, 0, 1), repeat=3):
            assert rm.better_reply_path(start, self.prefs, sysp)[-1] in pnes

    def test_equilibria_induce_the_stable_set_when_allocations_tie(self, sysp):
        prefs = rm.PreferenceProfile(
            cu_scores=np.array([[0.5, 0.4], [0.3, 0.6], [0.7, 0.2]]),
            d2d_scores=np.full((3, 2), 0.2),
        )
        induced = {rm.induced_matching(b, prefs, sysp) for b in rm.enumerate_pne(prefs, sysp)}
        assert induced == set(enumerate_stable_matchings(prefs))


class TestGameUtility:
    def test_opting_out_pays_zero(self, instance_a, sysp):
        _, prefs = instance_a
        assert rm.game_utility(0, (None, 0), prefs, sysp) == 0.0

    def test_rejected_pays_negotiation_cost(self, instance_a, sysp):
        _, prefs = instance_a
        # both propose pair 0; CU1 concedes more time (0.3 > 0.25)
        assert rm.game_utility(0, (0, 0), prefs, sysp) == pytest.approx(-THETA)
        assert rm.game_utility(1, (0, 0), prefs, sysp) == pytest.approx(0.75 - THETA)

    def test_instance_a_equilibrium_payoffs(self, instance_a, sysp):
        _, prefs = instance_a
        profile = (1, 0)
        assert rm.game_utility(0, profile, prefs, sysp) == pytest.approx(1.0 - THETA)
        assert rm.game_utility(1, profile, prefs, sysp) == pytest.approx(0.75 - THETA)

    def test_exactly_one_case_applies_everywhere(self, instance_a, sysp):
        _, prefs = instance_a
        for profile in product((None, 0, 1), repeat=2):
            for m in range(2):
                n = profile[m]
                cases = [
                    n is None,
                    n is not None
                    and rm.induced_matching(profile, prefs, sysp).cu_partner[m] == n,
                    n is not None
                    and rm.induced_matching(profile, prefs, sysp).cu_partner[m] != n,
                ]
                assert sum(cases) == 1


class TestInducedMatching:
    def test_all_pass_yields_empty(self, instance_a, sysp):
        _, prefs = instance_a
        mu = rm.induced_matching((None, None), prefs, sysp)
        assert mu.cu_partner == (None, None)

    def test_disjoint_proposals_all_matched(self, instance_a, sysp):
        _, prefs = instance_a
        mu = rm.induced_matching((1, 0), prefs, sysp)
        assert mu.cu_partner == (1, 0)

    def test_contested_pair_goes_to_larger_allocation(self, instance_a, sysp):
        _, prefs = instance_a
        mu = rm.induced_matching((0, 0), prefs, sysp)
        assert mu.cu_partner == (None, 0)  # CU1's 0.3 beats CU0's 0.25


class TestEnumeratePne:
    def test_instance_a_equilibrium(self, instance_a, sysp):
        _, prefs = instance_a
        assert (1, 0) in rm.enumerate_pne(prefs, sysp)

    def test_equilibria_induce_exactly_the_stable_set(self, sysp):
        rng = np.random.default_rng(109)
        for _ in range(60):
            prefs = random_preferences(int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng, sysp)
            pnes = rm.enumerate_pne(prefs, sysp)
            induced = {rm.induced_matching(b, prefs, sysp) for b in pnes}
            stable = set(enumerate_stable_matchings(prefs))
            assert induced == stable
            for mu in induced:
                assert rm.is_stable(mu, prefs)

    def test_equilibria_induce_the_stable_set_on_the_comparison_topologies(self):
        config = load_config(CONFIGS / "comparison.ini")
        sysp = config.system
        for rep in range(config.num_replications):
            topology = rm.generate_topology(config.topology, _topology_rng(config.seed, rep))
            env = rm.SimEnvironment(topology, sysp)
            induced = {rm.induced_matching(b, env.prefs, sysp)
                       for b in rm.enumerate_pne(env.prefs, sysp)}
            assert induced == set(enumerate_stable_matchings(env.prefs)), f"topology {rep}"

    def test_stable_matching_profile_is_equilibrium(self, sysp):
        rng = np.random.default_rng(113)
        for _ in range(20):
            prefs = random_preferences(2, 3, rng, sysp)
            pnes = set(rm.enumerate_pne(prefs, sysp))
            for mu in enumerate_stable_matchings(prefs):
                profile = tuple(mu.cu_partner)
                assert profile in pnes

    def test_capacity_guard(self, sysp):
        prefs = rm.PreferenceProfile(
            cu_scores=np.full((8, 8), 0.5), d2d_scores=np.full((8, 8), 0.2)
        )
        with pytest.raises(CapacityError):
            rm.enumerate_pne(prefs, sysp)

    def test_negotiation_cost_validation(self, sysp):
        prefs = rm.PreferenceProfile(
            cu_scores=np.array([[5e-4, 0.5], [0.4, 0.3]]),
            d2d_scores=np.full((2, 2), 0.2),
        )
        with pytest.raises(ConfigurationError, match="theta"):
            check_negotiation_cost(prefs, sysp)
        with pytest.raises(ConfigurationError, match="theta"):
            rm.enumerate_pne(prefs, sysp)


class TestBetterReplyPath:
    def test_starting_at_equilibrium_stays_put(self, instance_a, sysp):
        _, prefs = instance_a
        assert rm.better_reply_path((1, 0), prefs, sysp) == [(1, 0)]

    def test_instance_a_path_reaches_the_equilibrium(self, instance_a, sysp):
        _, prefs = instance_a
        path = rm.better_reply_path((0, 1), prefs, sysp)
        assert path[0] == (0, 1)
        assert path[-1] == (1, 0)

    def test_every_step_is_a_strict_unilateral_improvement(self, instance_a, sysp):
        _, prefs = instance_a
        for start in product((None, 0, 1), repeat=2):
            path = rm.better_reply_path(start, prefs, sysp)
            for before, after in zip(path, path[1:]):
                changed = [m for m in range(2) if before[m] != after[m]]
                assert len(changed) == 1
                m = changed[0]
                assert rm.game_utility(m, after, prefs, sysp) > rm.game_utility(
                    m, before, prefs, sysp
                )

    def test_rejects_invalid_start_actions(self, instance_a, sysp):
        _, prefs = instance_a
        with pytest.raises(ValueError, match="pair id"):
            rm.better_reply_path((5, 0), prefs, sysp)

    def test_random_starts_terminate_at_equilibria(self, sysp):
        rng = np.random.default_rng(127)
        for i in range(20):
            num_cus = int(rng.integers(2, 4))
            num_d2d = int(rng.integers(2, 4))
            prefs = random_preferences(num_cus, num_d2d, rng, sysp)
            pnes = set(rm.enumerate_pne(prefs, sysp))
            actions = (None, *range(num_d2d))
            for s in range(100):
                start = tuple(actions[rng.integers(len(actions))] for _ in range(num_cus))
                path = rm.better_reply_path(start, prefs, sysp, seed=i * 100 + s)
                assert path[-1] in pnes
