"""Cooperation surplus split between a CU and a D2D pair.

The CU gives the pair an ``alpha`` fraction of its frame in exchange for
relaying; its utility is the full-frame relayed rate minus the direct rate it
gives up, the pair's utility is the channel time it gains. The agreed split
maximizes the product of both gains over the allowed allocation interval
(both disagreement points are zero), which has the closed form

    alpha* = clamp((relay_rate - direct_rate) / (2 * relay_rate), low, high).

A cooperation is worthwhile for the CU only when its utility at alpha* is
strictly positive; the D2D side always gains because alpha is bounded away
from zero. When no allocation gives the CU a gain, alpha* is still reported
(the clamped formula value) with ``feasible=False``.

The split is coded here once, in ``bargained_alpha``: the matching scores the
true rates with it, and the learners their relay-rate estimates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import SystemParams

__all__ = [
    "BargainOutcome",
    "bargained_alpha",
    "cu_utility",
    "d2d_utility",
    "nbs_alpha",
    "nbs_alpha_oracle",
    "is_acceptable",
]


class BargainOutcome(NamedTuple):
    alpha_star: float
    cu_utility: float
    d2d_utility: float
    feasible: bool


def cu_utility(alpha: float, relay_rate: float, direct_rate: float) -> float:
    """CU gain from cooperating: (1 - alpha) * relay_rate - direct_rate."""
    return (1.0 - alpha) * relay_rate - direct_rate


def d2d_utility(alpha: float, d2d_rate: float) -> float:
    """D2D pair gain from cooperating: the rate earned in its alpha share."""
    return alpha * d2d_rate


def _check_rates(relay_rate: float, direct_rate: float) -> None:
    if relay_rate <= 0 or direct_rate <= 0:
        raise ValueError(
            f"rates must be > 0, got relay_rate={relay_rate}, direct_rate={direct_rate}"
        )


def bargained_alpha(relay_rate: float, direct_rate: float, sys: SystemParams) -> float:
    """The bargained allocation (r - d) / (2r), clamped to the allowed interval."""
    alpha = (relay_rate - direct_rate) / (2.0 * relay_rate)
    if alpha < sys.alpha_low:
        return sys.alpha_low
    if alpha > sys.alpha_high:
        return sys.alpha_high
    return alpha


def nbs_alpha(relay_rate: float, direct_rate: float, sys: SystemParams) -> BargainOutcome:
    """Closed-form bargained time allocation for one CU / D2D pair.

    The D2D utility is reported per unit D2D rate, so it equals alpha*.
    """
    _check_rates(relay_rate, direct_rate)
    alpha = bargained_alpha(relay_rate, direct_rate, sys)
    u_cu = cu_utility(alpha, relay_rate, direct_rate)
    return BargainOutcome(alpha, u_cu, alpha, feasible=u_cu > 0 and alpha > 0)


def nbs_alpha_oracle(relay_rate: float, direct_rate: float, sys: SystemParams,
                     grid_step: float = 1e-4) -> BargainOutcome:
    """Grid-search reference for ``nbs_alpha``.

    Maximizes the product of the two utility gains over an alpha grid that
    includes both interval endpoints, subject to both gains being strictly
    positive (the D2D gain per unit D2D rate, as in ``nbs_alpha``). If no
    grid point is feasible the (negative-product) argmax is still reported
    with ``feasible=False``.
    """
    _check_rates(relay_rate, direct_rate)
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    n_cells = max(1, int(np.ceil((sys.alpha_high - sys.alpha_low) / grid_step)))
    grid = np.linspace(sys.alpha_low, sys.alpha_high, n_cells + 1)
    u_cu = (1.0 - grid) * relay_rate - direct_rate
    product = u_cu * grid
    feasible_mask = (u_cu > 0) & (grid > 0)
    feasible = bool(feasible_mask.any())
    best = int(np.argmax(np.where(feasible_mask, product, -np.inf) if feasible else product))
    return BargainOutcome(float(grid[best]), float(u_cu[best]), float(grid[best]), feasible)


def is_acceptable(relay_rate: float, direct_rate: float, sys: SystemParams) -> bool:
    """Whether cooperating at the bargained allocation strictly benefits the CU."""
    return nbs_alpha(relay_rate, direct_rate, sys).cu_utility > 0
