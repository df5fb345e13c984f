"""Random cell topologies, mean channel gains, and expected/realized link rates.

Channel model: gain = eta * D^(-K) with unit-mean exponential fast fading eta
and distance D. Rates are Shannon-style ln(1 + SNR) in nats per channel use.
A relayed frame spends two half-phases on the CU's traffic (uplink broadcast,
then decode-and-forward by the D2D transmitter) and the final alpha fraction
on the D2D pair's own link, so the relay rate is the two-leg average and the
full-frame CU rate carries a (1 - alpha) prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError
from .params import SystemParams, TopologyParams

__all__ = [
    "Topology",
    "RateTable",
    "mean_gain",
    "expected_log_rate",
    "generate_topology",
    "true_rates",
    "sample_relay_rate",
    "sample_direct_rate",
    "relay_rate_from_fading",
    "direct_rate_from_fading",
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


def mean_gain(distance: float, path_loss_exponent: float) -> float:
    """Mean channel gain D^(-K) of a link of length ``distance``."""
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return distance ** (-path_loss_exponent)


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
    fading is i.i.d. across the cellular channels.
    """
    direct, forward, d2d = (expected_log_rate(c) for c in snr_scales(topology, sys))
    relay = 0.5 * (direct[:, None] + forward[None, :])
    return RateTable(direct_rates=direct, relay_rates=relay, d2d_rates=d2d)


def relay_rate_from_fading(c_direct: float, c_forward: float, eta1: float, eta2: float) -> float:
    """Realized two-phase relay rate for one frame given the fading draws."""
    return 0.5 * (math.log1p(c_direct * eta1) + math.log1p(c_forward * eta2))


def direct_rate_from_fading(c_direct: float, eta: float) -> float:
    """Realized direct-link rate for one frame given the fading draw."""
    return math.log1p(c_direct * eta)


def sample_relay_rate(m: int, n: int, topology: Topology, sys: SystemParams,
                      rng: np.random.Generator, size: int | None = None):
    """Per-frame relay-rate sample(s) r for CU ``m`` via D2D pair ``n``.

    Each phase sees an independent unit-mean exponential fading draw; the
    sample mean converges to ``true_rates(...).relay_rates[m, n]``.
    """
    c1 = sys.p_c * topology.gain_cu_bs[m] / sys.n_0
    c2 = sys.p_d * topology.gain_dt_bs[n] / sys.n_0
    if size is None:
        return relay_rate_from_fading(c1, c2, rng.exponential(), rng.exponential())
    eta = rng.exponential(size=(2, size))
    return 0.5 * (np.log1p(c1 * eta[0]) + np.log1p(c2 * eta[1]))


def sample_direct_rate(m: int, topology: Topology, sys: SystemParams,
                       rng: np.random.Generator, size: int | None = None):
    """Per-frame direct-link rate sample(s) for CU ``m``."""
    c = sys.p_c * topology.gain_cu_bs[m] / sys.n_0
    if size is None:
        return direct_rate_from_fading(c, rng.exponential())
    return np.log1p(c * rng.exponential(size=size))
