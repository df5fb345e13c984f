import numpy as np
import pytest

import relaymatch as rm
from relaymatch.errors import CapacityError
from relaymatch.matching import count_matchings
from relaymatch.verification import random_rate_table


def blocking_pairs_naive(mu, prefs):
    """Independent double-loop reference for the blocking-pair scan.

    Uses (score, -index) tuple comparison instead of the implementation's
    explicit branch ordering.
    """
    out = []
    for m in range(prefs.num_cus):
        for n in range(prefs.num_d2d):
            if mu.cu_partner[m] == n:
                continue
            cur = mu.cu_partner[m]
            if cur is None:
                cu_side = bool(prefs.cu_scores[m, n] > 0)
            else:
                cu_side = (prefs.cu_scores[m, n], -n) > (prefs.cu_scores[m, cur], -cur)
            holder = mu.d2d_partner[n]
            if holder is None:
                d2d_side = True
            else:
                d2d_side = (prefs.d2d_scores[m, n], -m) > (prefs.d2d_scores[holder, n], -holder)
            if cu_side and d2d_side:
                out.append((m, n))
    return out


class TestMatchingStructure:
    def test_mutual_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            rm.Matching(cu_partner=(0, None), d2d_partner=(None, None))
        with pytest.raises(ValueError, match="claimed twice"):
            rm.Matching.from_cu_partners([0, 0], 2)
        with pytest.raises(ValueError, match="cu 1 claimed twice"):
            rm.Matching.from_d2d_partners([1, 1, None], 2)
        for cu_partner in ([1, None, 0], [None, None], [2, 0]):
            mu = rm.Matching.from_cu_partners(cu_partner, 3)
            assert rm.Matching.from_d2d_partners(mu.d2d_partner, len(cu_partner)) == mu

    def test_pairs(self):
        mu = rm.Matching.from_cu_partners([1, None, 0], 3)
        assert mu.pairs == [(0, 1), (2, 0)]
        assert mu.d2d_partner == (2, 0, None)

    def test_hashable_for_set_comparisons(self):
        a = rm.Matching.from_cu_partners([1, 0], 2)
        b = rm.Matching.from_cu_partners([1, 0], 2)
        assert len({a, b}) == 1


class TestBuildPreferences:
    def test_instance_a_scores(self, instance_a):
        _, prefs = instance_a
        assert prefs.cu_scores == pytest.approx(np.array([[0.5, 1.0], [0.75, 0.6]]))
        assert prefs.d2d_scores == pytest.approx(np.array([[0.25, 1 / 3], [0.3, 3 / 11]]))
        assert prefs.acceptability.all()

    def test_no_acceptable_pairs_when_relaying_adds_nothing(self, sysp):
        rates = rm.RateTable(
            direct_rates=np.array([1.0, 2.0]),
            relay_rates=np.array([[1.0, 1.0], [2.0, 2.0]]),
            d2d_rates=np.array([1.0, 1.0]),
        )
        prefs = rm.build_preferences(rates, sysp)
        assert not prefs.acceptability.any()

    def test_common_scale_leaves_allocations_unchanged(self, instance_a, sysp):
        rates, prefs = instance_a
        scaled = rm.RateTable(
            direct_rates=rates.direct_rates * 3.7,
            relay_rates=rates.relay_rates * 3.7,
            d2d_rates=rates.d2d_rates,
        )
        assert rm.build_preferences(scaled, sysp).d2d_scores == pytest.approx(prefs.d2d_scores)


class TestBlockingPairs:
    def test_stable_matching_has_none(self, instance_a):
        _, prefs = instance_a
        mu = rm.Matching.from_cu_partners([1, 0], 2)
        assert rm.find_blocking_pairs(mu, prefs) == []

    def test_swapped_matching_is_blocked_both_ways(self, instance_a):
        _, prefs = instance_a
        mu = rm.Matching.from_cu_partners([0, 1], 2)
        assert set(rm.find_blocking_pairs(mu, prefs)) == {(0, 1), (1, 0)}

    def test_empty_matching_blocked_by_every_acceptable_pair(self, instance_a):
        _, prefs = instance_a
        mu = rm.Matching.from_cu_partners([None, None], 2)
        assert set(rm.find_blocking_pairs(mu, prefs)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_agrees_with_naive_double_loop(self, sysp):
        rng = np.random.default_rng(71)
        from relaymatch.verification import random_matching

        for _ in range(200):
            num_cus = int(rng.integers(1, 6))
            num_d2d = int(rng.integers(1, 6))
            prefs = rm.build_preferences(random_rate_table(num_cus, num_d2d, rng), sysp)
            mu = random_matching(num_cus, num_d2d, rng)
            assert rm.find_blocking_pairs(mu, prefs) == blocking_pairs_naive(mu, prefs)


class TestIsStable:
    def test_reference_cases(self, instance_a):
        _, prefs = instance_a
        assert rm.is_stable(rm.Matching.from_cu_partners([1, 0], 2), prefs)
        assert not rm.is_stable(rm.Matching.from_cu_partners([0, 1], 2), prefs)

    def test_unacceptable_pair_breaks_individual_rationality(self, sysp):
        rates = rm.RateTable(
            direct_rates=np.array([1.0, 1.0]),
            relay_rates=np.array([[2.0, 3.0], [2.5, 1.0]]),  # (1, 1) unacceptable
            d2d_rates=np.array([1.0, 1.0]),
        )
        prefs = rm.build_preferences(rates, sysp)
        mu = rm.Matching.from_cu_partners([0, 1], 2)
        assert not rm.is_stable(mu, prefs)
        # and without the offending pair stability is possible again
        assert rm.is_stable(rm.Matching.from_cu_partners([1, 0], 2), prefs)


class TestGaleShapley:
    def test_instance_a(self, instance_a):
        _, prefs = instance_a
        assert rm.gale_shapley(prefs).cu_partner == (1, 0)

    def test_no_acceptable_pairs_yields_empty(self, sysp):
        rates = rm.RateTable(
            direct_rates=np.array([1.0]),
            relay_rates=np.array([[1.0, 0.9]]),
            d2d_rates=np.array([1.0, 1.0]),
        )
        prefs = rm.build_preferences(rates, sysp)
        assert rm.gale_shapley(prefs).cu_partner == (None,)

    def test_single_acceptable_pair_matches(self, sysp):
        rates = rm.RateTable(
            direct_rates=np.array([1.0]),
            relay_rates=np.array([[2.0]]),
            d2d_rates=np.array([1.0]),
        )
        prefs = rm.build_preferences(rates, sysp)
        assert rm.gale_shapley(prefs).cu_partner == (0,)

    def test_stable_on_random_instances_including_more_cus(self, sysp):
        rng = np.random.default_rng(73)
        for _ in range(100):
            num_cus = int(rng.integers(1, 7))
            num_d2d = int(rng.integers(1, 7))
            prefs = rm.build_preferences(random_rate_table(num_cus, num_d2d, rng), sysp)
            mu = rm.gale_shapley(prefs)
            assert rm.is_stable(mu, prefs)
            assert rm.find_blocking_pairs(mu, prefs) == []


class TestEnumerateStableMatchings:
    def test_instance_a_unique(self, instance_a):
        _, prefs = instance_a
        stable = rm.enumerate_stable_matchings(prefs)
        assert [mu.cu_partner for mu in stable] == [(1, 0)]

    def test_no_acceptable_pairs_leaves_only_empty(self, sysp):
        rates = rm.RateTable(
            direct_rates=np.array([1.0, 1.0]),
            relay_rates=np.full((2, 2), 1.0),
            d2d_rates=np.array([1.0, 1.0]),
        )
        prefs = rm.build_preferences(rates, sysp)
        stable = rm.enumerate_stable_matchings(prefs)
        assert [mu.cu_partner for mu in stable] == [(None, None)]

    def test_contains_gale_shapley_and_never_empty(self, sysp):
        rng = np.random.default_rng(79)
        for _ in range(60):
            num_cus = int(rng.integers(1, 5))
            num_d2d = int(rng.integers(1, 5))
            prefs = rm.build_preferences(random_rate_table(num_cus, num_d2d, rng), sysp)
            stable = rm.enumerate_stable_matchings(prefs)
            assert stable
            assert rm.gale_shapley(prefs) in stable

    def test_capacity_guard(self, sysp):
        prefs = rm.build_preferences(random_rate_table(7, 6, np.random.default_rng(0)), sysp)
        with pytest.raises(CapacityError):
            rm.enumerate_stable_matchings(prefs)

    def test_matching_count_is_exhaustive(self):
        from relaymatch.matching import _all_matchings

        assert count_matchings(2, 2) == 7
        for num_cus in range(5):
            for num_d2d in range(5):
                listed = list(_all_matchings(num_cus, num_d2d))
                assert len(set(listed)) == len(listed) == count_matchings(num_cus, num_d2d)
                for cu_partner in listed:  # each is a valid matching
                    rm.Matching.from_cu_partners(cu_partner, num_d2d)
