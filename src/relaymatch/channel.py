"""Random cell topologies, mean channel gains, and expected link rates.

Channel model: gain = eta * D^(-K) with unit-mean exponential fast fading eta
and distance D. Rates are Shannon-style ln(1 + SNR) in nats per channel use.
A relayed frame spends two half-phases on the CU's traffic (uplink broadcast,
then decode-and-forward by the D2D transmitter) and the final alpha fraction
on the D2D pair's own link, so the relay rate is the two-leg average and the
full-frame CU rate carries a (1 - alpha) prefactor.

A link's mean SNR c (``snr_scales``) fixes its expected rate E[ln(1 + c eta)],
given here in closed form. ``sample_log_rates`` is the one sampler of realized
rates ln(1 + c eta): a table of i.i.d. fading draws, one row per period and
one column per link, filled row by row from a numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError
from .params import SystemParams, TopologyParams

__all__ = [
    "Topology",
    "RateTable",
    "expected_log_rate",
    "generate_topology",
    "sample_log_rates",
    "true_rates",
]


@dataclass(frozen=True)
class Topology:
    """Node positions (meters, BS at the origin) and per-link mean gains."""

    bs_position: np.ndarray
    cu_positions: np.ndarray  # (M, 2)
    dt_positions: np.ndarray  # (N, 2)
    dr_positions: np.ndarray  # (N, 2)
    gain_cu_bs: np.ndarray  # (M,) CU -> BS
    gain_dt_bs: np.ndarray  # (N,) DT -> BS
    gain_dt_dr: np.ndarray  # (N,) DT -> DR

    @property
    def num_cus(self) -> int:
        return len(self.cu_positions)

    @property
    def num_d2d(self) -> int:
        return len(self.dt_positions)


# Smallest normal float. A rate below it (an extreme noise power, say) would
# carry denormal numbers through every throughput, so RateTable rejects it.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RateTable:
    """Expected rates (nats/use): direct uplink, relayed uplink, and D2D link."""

    direct_rates: np.ndarray  # (M,)
    relay_rates: np.ndarray  # (M, N)
    d2d_rates: np.ndarray  # (N,)

    def __post_init__(self):
        for name in ("direct_rates", "relay_rates", "d2d_rates"):
            arr = getattr(self, name)
            if not (np.isfinite(arr).all() and (arr >= _TINY).all()):
                raise ConfigurationError(f"{name} must be finite and at least {_TINY:.3g}")
        # Structural bound: the relay rate averages the direct leg with a
        # nonnegative forward leg, so it is at least half the direct rate.
        if (self.relay_rates < self.direct_rates[:, None] / 2 - 1e-12).any():
            raise ConfigurationError("relay_rates must be >= direct_rates / 2")


def expected_log_rate(snr_scale):
    """E[ln(1 + c*eta)] for unit-mean exponential eta, elementwise over c.

    ``snr_scale`` c (a scalar or an array) is the mean SNR of the link
    (power * mean gain / noise). Closed form: e^(1/c) E1(1/c) = U(1, 1, 1/c),
    Tricomi's confluent hypergeometric function (DLMF chapters 6 and 13);
    within 3e-10 relative error of mpmath over c from 1e-8 up to 1e11.
    """
    c = np.asarray(snr_scale, dtype=float)
    if not (c > 0).all():
        raise ValueError(f"snr_scale must be > 0, got {snr_scale}")
    with np.errstate(over="ignore"):  # 1/c overflows only where the rate underflows
        return special.hyperu(1.0, 1.0, 1.0 / c)


def sample_log_rates(snr_scale: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Realized rates ln(1 + c*eta), shape (rows, len(c)), eta i.i.d. unit exponential.

    The draws fill the table row by row, so two calls of a and b rows give
    the same numbers as one call of a + b rows. ``np.log1p`` may differ from
    the C library's ``log1p`` in the last bit on CPUs where numpy uses its
    own vectorized version (AVX-512, for one).
    """
    table = rng.standard_exponential((rows, len(snr_scale)))
    table *= snr_scale
    return np.log1p(table, out=table)


def _annulus_points(r_low, r_high, size, rng, area_uniform):
    """Points around the origin; uniform over the annulus area or over radius."""
    u = rng.random(size)
    if area_uniform:
        radius = np.sqrt(r_low**2 + u * (r_high**2 - r_low**2))
    else:
        radius = r_low + u * (r_high - r_low)
    angle = 2 * np.pi * rng.random(size)
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))


def generate_topology(params: TopologyParams, rng: np.random.Generator) -> Topology:
    """Draw one random topology.

    CUs are uniform over the outer annulus of the cell; D2D transmitters have
    a uniformly distributed BS distance, and each D2D receiver sits at a
    uniformly distributed link length in a uniformly random direction from
    its transmitter. Deterministic given ``rng``'s state.
    """
    k = params.path_loss_exponent
    cu_positions = _annulus_points(
        params.cu_min_bs_distance, params.cell_radius, params.num_cus, rng, area_uniform=True
    )
    dt_positions = _annulus_points(
        *params.dt_bs_distance_range, params.num_d2d, rng, area_uniform=False
    )
    link_len = rng.uniform(*params.d2d_link_range, params.num_d2d)
    link_angle = 2 * np.pi * rng.random(params.num_d2d)
    dr_positions = dt_positions + np.column_stack(
        (link_len * np.cos(link_angle), link_len * np.sin(link_angle))
    )
    return Topology(
        bs_position=np.zeros(2),
        cu_positions=cu_positions,
        dt_positions=dt_positions,
        dr_positions=dr_positions,
        gain_cu_bs=np.linalg.norm(cu_positions, axis=1) ** (-k),
        gain_dt_bs=np.linalg.norm(dt_positions, axis=1) ** (-k),
        gain_dt_dr=link_len ** (-k),
    )


def snr_scales(topology: Topology, sys: SystemParams):
    """Mean-SNR factors (c values) per link class: CU->BS, DT->BS, DT->DR."""
    return (
        sys.p_c * topology.gain_cu_bs / sys.n_0,
        sys.p_d * topology.gain_dt_bs / sys.n_0,
        sys.p_d * topology.gain_dt_dr / sys.n_0,
    )


def true_rates(topology: Topology, sys: SystemParams) -> RateTable:
    """Expected rates of every link from the mean gains.

    The relayed rate for CU m via pair n is the average of the direct-leg and
    forward-leg expected log rates; the D2D rate depends only on n because
    fading is i.i.d. across the cellular channels. A mean SNR that underflows
    to 0 (a tiny power, say, or a huge path-loss exponent) is a
    ``ConfigurationError`` naming the link class.
    """
    rates = []
    for link, c in zip(("CU->BS", "DT->BS", "DT->DR"), snr_scales(topology, sys)):
        try:
            rates.append(expected_log_rate(c))
        except ValueError:
            raise ConfigurationError(f"mean SNR of every {link} link must be > 0, "
                                     f"got {c.min():.3g} (power * gain / n_0)") from None
    direct, forward, d2d = rates
    relay = 0.5 * (direct[:, None] + forward[None, :])
    return RateTable(direct_rates=direct, relay_rates=relay, d2d_rates=d2d)
