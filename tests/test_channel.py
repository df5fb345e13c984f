import math

import mpmath
import numpy as np
import pytest

import relaymatch as rm
from relaymatch.channel import sample_log_rates, snr_scales
from relaymatch.errors import ConfigurationError


def closed_form_log_rate(c):
    """Independent oracle: E[ln(1+c*eta)] = e^(1/c) * E1(1/c) for Exp(1) eta."""
    z = mpmath.mpf(1.0) / c
    return float(mpmath.exp(z) * mpmath.e1(z))


class TestExpectedLogRate:
    def test_unit_scale_frozen_value(self):
        # e * E1(1); cross-checked below against a 1e7-draw Monte Carlo run.
        assert rm.expected_log_rate(1.0) == pytest.approx(0.596347362323194, rel=1e-6)

    def test_matches_closed_form_across_range(self):
        for c in np.logspace(-3, 9, 25):
            assert rm.expected_log_rate(c) == pytest.approx(closed_form_log_rate(c), rel=1e-6)

    def test_vanishes_at_zero_snr(self):
        assert rm.expected_log_rate(1e-9) < 2e-9

    def test_strictly_increasing(self):
        grid = np.logspace(-2, 7, 40)
        values = [rm.expected_log_rate(c) for c in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            rm.expected_log_rate(0.0)
        with pytest.raises(ValueError):
            rm.expected_log_rate(-1.0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(991)
        draws = rng.exponential(size=10_000_000)
        for c in (1.0, 100.0):
            samples = np.log1p(c * draws)
            se = samples.std() / math.sqrt(samples.size)
            assert abs(rm.expected_log_rate(c) - samples.mean()) < 4 * se


class TestSampleLogRates:
    def test_fills_row_by_row(self):
        c = np.array([0.5, 3.0, 40.0])
        whole = sample_log_rates(c, 7, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        parts = np.vstack([sample_log_rates(c, 3, rng), sample_log_rates(c, 4, rng)])
        assert whole.shape == (7, 3)
        assert np.array_equal(whole, parts)

    def test_is_log1p_of_scaled_exponential_draws(self):
        c = np.array([1e-3, 1.0, 2e4])
        table = sample_log_rates(c, 50, np.random.default_rng(8))
        eta = np.random.default_rng(8).standard_exponential((50, 3))
        scalar = [[math.log1p(ci * e) for ci, e in zip(c, row)] for row in eta]
        # numpy's vectorized log1p may differ from the C library's in the last bit
        assert np.allclose(table, scalar, rtol=4e-16, atol=0)


class TestGenerateTopology:
    params = rm.TopologyParams(num_cus=3, num_d2d=4)

    def test_deterministic_given_seed(self):
        a = rm.generate_topology(self.params, np.random.default_rng(5))
        b = rm.generate_topology(self.params, np.random.default_rng(5))
        assert np.array_equal(a.cu_positions, b.cu_positions)
        assert np.array_equal(a.dr_positions, b.dr_positions)
        assert np.array_equal(a.gain_dt_bs, b.gain_dt_bs)

    def test_geometry_invariants_hold_in_bulk(self):
        rng = np.random.default_rng(17)
        p = self.params
        for _ in range(1000):
            topo = rm.generate_topology(p, rng)
            cu_dist = np.linalg.norm(topo.cu_positions, axis=1)
            assert ((cu_dist >= p.cu_min_bs_distance) & (cu_dist <= p.cell_radius)).all()
            dt_dist = np.linalg.norm(topo.dt_positions, axis=1)
            low, high = p.dt_bs_distance_range
            assert ((dt_dist >= low) & (dt_dist <= high)).all()
            link = np.linalg.norm(topo.dr_positions - topo.dt_positions, axis=1)
            llow, lhigh = p.d2d_link_range
            assert ((link >= llow - 1e-9) & (link <= lhigh + 1e-9)).all()
            k = p.path_loss_exponent
            assert topo.gain_cu_bs == pytest.approx(cu_dist**-k)
            assert topo.gain_dt_bs == pytest.approx(dt_dist**-k)
            assert topo.gain_dt_dr == pytest.approx(link**-k)

    def test_dt_gains_bounded_by_distance_range(self):
        rng = np.random.default_rng(3)
        topo = rm.generate_topology(self.params, rng)
        assert (topo.gain_dt_bs >= 250.0**-4).all()
        assert (topo.gain_dt_bs <= 150.0**-4).all()

    def test_invalid_params_name_the_bound(self):
        with pytest.raises(ConfigurationError, match="cu_min_bs_distance"):
            rm.TopologyParams(cu_min_bs_distance=500.0, cell_radius=400.0)
        with pytest.raises(ConfigurationError, match="num_cus"):
            rm.TopologyParams(num_cus=0)
        with pytest.raises(ConfigurationError, match="d2d_link_range"):
            rm.TopologyParams(d2d_link_range=(60.0, 10.0))


def _unit_scale_topology(sys):
    """Hand-built topology whose every mean SNR factor is exactly 1."""
    g_c = sys.n_0 / sys.p_c
    g_d = sys.n_0 / sys.p_d
    return rm.Topology(
        bs_position=np.zeros(2),
        cu_positions=np.zeros((1, 2)),
        dt_positions=np.zeros((1, 2)),
        dr_positions=np.zeros((1, 2)),
        gain_cu_bs=np.array([g_c]),
        gain_dt_bs=np.array([g_d]),
        gain_dt_dr=np.array([g_d]),
    )


class TestTrueRates:
    def test_unit_scale_propagation(self, sysp):
        base = 0.596347362323194
        rates = rm.true_rates(_unit_scale_topology(sysp), sysp)
        assert rates.direct_rates[0] == pytest.approx(base, rel=1e-6)
        assert rates.relay_rates[0, 0] == pytest.approx(base, rel=1e-6)  # mean of equal legs
        assert rates.d2d_rates[0] == pytest.approx(base, rel=1e-6)

    def test_relay_at_least_half_direct(self, sysp):
        rng = np.random.default_rng(23)
        for _ in range(20):
            topo = rm.generate_topology(rm.TopologyParams(num_cus=3, num_d2d=3), rng)
            rates = rm.true_rates(topo, sysp)
            assert (rates.relay_rates >= rates.direct_rates[:, None] / 2).all()

    def test_identical_dt_positions_give_identical_columns(self, sysp):
        rng = np.random.default_rng(29)
        topo = rm.generate_topology(rm.TopologyParams(num_cus=2, num_d2d=2), rng)
        gains = topo.gain_dt_bs.copy()
        gains[1] = gains[0]
        clone = rm.Topology(
            bs_position=topo.bs_position,
            cu_positions=topo.cu_positions,
            dt_positions=topo.dt_positions,
            dr_positions=topo.dr_positions,
            gain_cu_bs=topo.gain_cu_bs,
            gain_dt_bs=gains,
            gain_dt_dr=topo.gain_dt_dr,
        )
        rates = rm.true_rates(clone, sysp)
        assert np.array_equal(rates.relay_rates[:, 0], rates.relay_rates[:, 1])

    def test_underflowing_mean_snr_is_config_error_naming_the_link(self):
        topo = rm.generate_topology(rm.TopologyParams(), np.random.default_rng(37))
        with pytest.raises(ConfigurationError, match="CU->BS link must be > 0"):
            rm.true_rates(topo, rm.SystemParams(p_c=5e-324))
        with pytest.raises(ConfigurationError, match="DT->BS link must be > 0"):
            rm.true_rates(topo, rm.SystemParams(p_d=1e-300, n_0=1e20, p_c=1.0))

    def test_monte_carlo_agreement_on_random_topologies(self, sysp):
        rng = np.random.default_rng(31)
        draws = rng.exponential(size=1_000_000)
        sqrt_n = math.sqrt(draws.size)
        for _ in range(20):
            topo = rm.generate_topology(rm.TopologyParams(num_cus=2, num_d2d=2), rng)
            c_cu, c_dt, c_dd = snr_scales(topo, sysp)
            rates = rm.true_rates(topo, sysp)
            for c, expected in [
                *zip(c_cu, rates.direct_rates),
                *zip(c_dd, rates.d2d_rates),
            ]:
                samples = np.log1p(c * draws)
                assert abs(expected - samples.mean()) < 3 * samples.std() / sqrt_n
            # relay entries: mean of the two legs
            for m in range(2):
                for n in range(2):
                    samples = 0.5 * (np.log1p(c_cu[m] * draws) + np.log1p(c_dt[n] * draws[::-1]))
                    assert abs(rates.relay_rates[m, n] - samples.mean()) < (
                        3 * samples.std() / sqrt_n
                    )
