"""One-to-one matchings between CUs and D2D pairs, and their stability.

Preferences on both sides come from the bargained split at the true expected
rates (``bargaining.nbs_alpha``; the split is coded only there): a CU ranks
pairs by its utility at the bargained allocation and only accepts pairs that
give it a strictly positive gain; a D2D pair ranks CUs by the allocation they
would concede. A matching is stable when every matched CU is on an acceptable
pair and no CU/pair combination strictly prefers each other to their current
situation.

Exact score ties are broken toward the lower index so that every ordering is
strict and deterministic; with continuous rates ties have measure zero.

Deferred acceptance, the proposal game and the simulator all end with the CU
each pair holds, which ``Matching.from_d2d_partners`` turns into a matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .bargaining import nbs_alpha
from .channel import RateTable
from .errors import CapacityError
from .params import SystemParams

UNMATCHED = None

__all__ = [
    "Matching",
    "PreferenceProfile",
    "build_preferences",
    "find_blocking_pairs",
    "is_stable",
    "gale_shapley",
    "enumerate_stable_matchings",
    "count_matchings",
]


def _inverse(partners, size: int, side: str) -> tuple:
    """The other side's partner list: entry j is the index i with partners[i] == j."""
    inverse = [None] * size
    for i, j in enumerate(partners):
        if j is not None:
            if inverse[j] is not None:
                raise ValueError(f"inconsistent matching: {side} {j} claimed twice")
            inverse[j] = i
    return tuple(inverse)


@dataclass(frozen=True)
class Matching:
    """Partial one-to-one pairing; ``None`` entries are unmatched."""

    cu_partner: tuple  # length M, entries in {0..N-1} | None
    d2d_partner: tuple  # length N, entries in {0..M-1} | None

    def __post_init__(self):
        for m, n in enumerate(self.cu_partner):
            if n is not None and (n >= len(self.d2d_partner) or self.d2d_partner[n] != m):
                raise ValueError(f"inconsistent matching: cu {m} -> {n} not mirrored")
        for n, m in enumerate(self.d2d_partner):
            if m is not None and (m >= len(self.cu_partner) or self.cu_partner[m] != n):
                raise ValueError(f"inconsistent matching: d2d {n} -> {m} not mirrored")

    @classmethod
    def from_cu_partners(cls, cu_partner, num_d2d: int) -> "Matching":
        return cls(tuple(cu_partner), _inverse(cu_partner, num_d2d, "d2d"))

    @classmethod
    def from_d2d_partners(cls, d2d_partner, num_cus: int) -> "Matching":
        """The matching in which pair n holds CU ``d2d_partner[n]`` (or none)."""
        return cls(_inverse(d2d_partner, num_cus, "cu"), tuple(d2d_partner))

    @property
    def pairs(self):
        return [(m, n) for m, n in enumerate(self.cu_partner) if n is not None]


@dataclass(frozen=True)
class PreferenceProfile:
    """Both sides' scores for every CU/pair combination.

    ``cu_scores[m, n]`` is the CU's utility at the bargained allocation,
    ``d2d_scores[m, n]`` is that allocation itself (what the pair earns is
    proportional to it), and ``acceptability[m, n]``, derived from the CU
    scores, marks the strictly positive ones.
    """

    cu_scores: np.ndarray  # (M, N)
    d2d_scores: np.ndarray  # (M, N)
    acceptability: np.ndarray = field(init=False)  # (M, N) bool

    def __post_init__(self):
        object.__setattr__(self, "acceptability", self.cu_scores > 0)

    @property
    def num_cus(self) -> int:
        return self.cu_scores.shape[0]

    @property
    def num_d2d(self) -> int:
        return self.cu_scores.shape[1]

    def cu_prefers(self, m: int, n: int, other) -> bool:
        """True if CU ``m`` strictly prefers pair ``n`` to ``other`` (a pair or None)."""
        if other is UNMATCHED:
            return bool(self.acceptability[m, n])
        a, b = self.cu_scores[m, n], self.cu_scores[m, other]
        return a > b or (a == b and n < other)

    def d2d_prefers(self, n: int, m: int, other) -> bool:
        """True if pair ``n`` strictly prefers CU ``m`` to ``other`` (a CU or None)."""
        if other is UNMATCHED:
            return True
        a, b = self.d2d_scores[m, n], self.d2d_scores[other, n]
        return a > b or (a == b and m < other)


def build_preferences(rates: RateTable, sys: SystemParams) -> PreferenceProfile:
    """Score every CU/pair combination via the bargained split of true rates."""
    num_cus, num_d2d = rates.relay_rates.shape
    cu_scores = np.empty((num_cus, num_d2d))
    d2d_scores = np.empty((num_cus, num_d2d))
    for m in range(num_cus):
        for n in range(num_d2d):
            outcome = nbs_alpha(rates.relay_rates[m, n], rates.direct_rates[m], sys)
            cu_scores[m, n] = outcome.cu_utility
            d2d_scores[m, n] = outcome.alpha_star
    return PreferenceProfile(cu_scores=cu_scores, d2d_scores=d2d_scores)


def find_blocking_pairs(mu: Matching, prefs: PreferenceProfile):
    """All CU/pair combinations that would both rather be with each other.

    A pair (m, n) blocks when they are not matched together, m strictly
    prefers n to its current situation (an unmatched CU prefers any
    acceptable pair), and n strictly prefers m to its current CU (an
    unmatched pair prefers any CU).
    """
    blocking = []
    for m in range(prefs.num_cus):
        current = mu.cu_partner[m]
        for n in range(prefs.num_d2d):
            if current == n:
                continue
            if prefs.cu_prefers(m, n, current) and prefs.d2d_prefers(n, m, mu.d2d_partner[n]):
                blocking.append((m, n))
    return blocking


def is_stable(mu: Matching, prefs: PreferenceProfile) -> bool:
    """Individually rational (every matched CU gains) and free of blocking pairs."""
    for m, n in mu.pairs:
        if not prefs.acceptability[m, n]:
            return False
    return not find_blocking_pairs(mu, prefs)


def gale_shapley(prefs: PreferenceProfile) -> Matching:
    """CU-proposing deferred acceptance over the acceptable pairs.

    Each rejected CU proposes next to its best not-yet-tried acceptable pair;
    a pair holds the proposer conceding the largest allocation. Works for any
    M, N including more CUs than pairs.
    """
    order = []
    for m in range(prefs.num_cus):
        ranked = sorted(
            (n for n in range(prefs.num_d2d) if prefs.acceptability[m, n]),
            key=lambda n: (-prefs.cu_scores[m, n], n),
        )
        order.append(ranked)
    next_try = [0] * prefs.num_cus
    held = [None] * prefs.num_d2d
    free = list(range(prefs.num_cus))
    while free:
        m = free.pop()
        while next_try[m] < len(order[m]):
            n = order[m][next_try[m]]
            next_try[m] += 1
            if held[n] is None:
                held[n] = m
                break
            if prefs.d2d_prefers(n, m, held[n]):
                free.append(held[n])
                held[n] = m
                break
        # exhausted list: m stays unmatched
    return Matching.from_d2d_partners(held, prefs.num_cus)


def count_matchings(num_cus: int, num_d2d: int) -> int:
    """Number of partial one-to-one matchings between the two sides."""
    return sum(
        math.comb(num_cus, k) * math.comb(num_d2d, k) * math.factorial(k)
        for k in range(min(num_cus, num_d2d) + 1)
    )


def _all_matchings(num_cus: int, num_d2d: int):
    """Yield every partial matching as a cu_partner tuple, in lexicographic order."""
    for cu_partner in product((None, *range(num_d2d)), repeat=num_cus):
        pairs = set(cu_partner)
        pairs.discard(None)
        if len(pairs) + cu_partner.count(None) == num_cus:  # no pair taken twice
            yield cu_partner


def enumerate_stable_matchings(prefs: PreferenceProfile):
    """Exhaustively list every stable matching of a small instance."""
    if prefs.num_cus + prefs.num_d2d > 12:
        raise CapacityError(
            f"instance too large to enumerate: M+N = {prefs.num_cus + prefs.num_d2d} > 12"
        )
    stable = []
    for cu_partner in _all_matchings(prefs.num_cus, prefs.num_d2d):
        mu = Matching.from_cu_partners(cu_partner, prefs.num_d2d)
        if is_stable(mu, prefs):
            stable.append(mu)
    return stable
