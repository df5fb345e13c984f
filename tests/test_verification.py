import numpy as np

import relaymatch as rm
from relaymatch.verification import (
    SUITES,
    random_preferences,
    random_rate_table,
    verify_nbs,
    verify_stability,
    verify_theorem1,
)


def test_suite_registry_matches_cli_choices():
    assert set(SUITES) == {"nbs", "stability", "theorem1", "theorem2"}


def test_nbs_suite_reports_pass():
    report = verify_nbs(num_pairs=200)
    assert report.passed
    assert len(report.lines) == 2
    assert all(line.startswith("ok") for line in report.lines)
    assert report.duration > 0


def test_stability_suite_small_run():
    assert verify_stability(num_instances=50).passed


def test_theorem1_suite_passes_on_instances_with_exact_ties():
    # Seed 12003 draws instances whose allocations tie exactly (both clamped
    # at alpha_low), where the game and the matching must break ties alike.
    assert verify_theorem1(num_instances=3000, seed=12003).passed


def test_random_rate_table_respects_structure():
    rng = np.random.default_rng(5)
    rates = random_rate_table(4, 3, rng)
    assert rates.relay_rates.shape == (4, 3)
    assert (rates.relay_rates >= rates.direct_rates[:, None] / 2).all()


def test_random_preferences_keep_theta_margin():
    rng = np.random.default_rng(7)
    sysp = rm.SystemParams()
    for _ in range(30):
        prefs = random_preferences(2, 2, rng, sysp)
        positive = prefs.cu_scores[prefs.cu_scores > 0]
        assert positive.size == 0 or positive.min() > 2 * sysp.theta
