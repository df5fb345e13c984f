"""The proposal game between CUs over D2D pairs.

Each CU either opts out or targets one D2D pair, implicitly offering the
bargained time allocation; each pair picks the proposer offering the most
time, the lower CU index winning an exact tie, which is how a pair ranks CUs
in the matching (``PreferenceProfile.d2d_prefers``). A CU pays a small
negotiation cost for any proposal, so at equilibrium only worthwhile
cooperations survive. On the CU side an exact payoff tie between two pairs
goes to the lower pair index, as in the matching (``cu_prefers``). Pure Nash
equilibria of this game induce exactly the stable matchings, and from any
profile some sequence of single-CU improvements reaches one;
``better_reply_path`` constructs such a sequence.

The pair's choice rule is coded here once: ``choice_winners`` picks every
pair's CU from the proposals, and ``lost_pairs`` finds the pairs a CU would
lose if it moved there. ``lost_pairs`` compares allocations from a table its
caller keeps: the solvers pass the instance's bargained allocations, and the
learners the announced ones their ``PublicRecord`` keeps up to date.
"""

from __future__ import annotations

import random as _random
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .errors import CapacityError, ConfigurationError
from .matching import Matching, PreferenceProfile, count_matchings
from .params import SystemParams

__all__ = [
    "Proposal",
    "choice_winners",
    "lost_pairs",
    "game_utility",
    "induced_matching",
    "enumerate_pne",
    "better_reply_path",
    "check_negotiation_cost",
]

class Proposal(NamedTuple):
    """One CU's announcement: a target pair and the offered allocation.

    ``alpha`` is None exactly when ``target`` is None (the CU opted out).
    """

    target: Optional[int]
    alpha: Optional[float]


PASS = Proposal(None, None)


class TieBreakRule:
    """A stub outside the model: ``perfbench/spans.py`` wraps ``for_instance`` by name."""

    @classmethod
    def for_instance(cls, prefs):
        raise NotImplementedError("pairs compare offered allocations directly")


def choice_winners(proposals: Sequence[Proposal], num_d2d: int) -> list:
    """Every pair's choice; index n holds the chosen CU or None.

    A pair picks the proposer offering the largest allocation, the lower CU
    index winning an exact tie.
    """
    winners = [None] * num_d2d
    best = [None] * num_d2d
    for m, (n, alpha) in enumerate(proposals):
        if n is not None and (winners[n] is None or alpha > best[n]):
            winners[n], best[n] = m, alpha
    return winners


def lost_pairs(m: int, targets, alphas, own_alphas) -> list:
    """The pairs that would pick another CU over CU ``m`` if ``m`` moved there.

    ``targets[m2]`` is CU m2's target (None to opt out) and ``alphas[m2][n]``
    the allocation it offers pair n; CU ``m``'s own entries are ignored, and
    ``own_alphas[n]`` is the allocation it would offer pair n. The choice rule
    is ``choice_winners``'.
    """
    lost = []
    for m2, n2 in enumerate(targets):
        if n2 is not None and m2 != m:
            # A lower-indexed rival wins an exact tie as well.
            if (alphas[m2][n2] >= own_alphas[n2]) if m2 < m else (alphas[m2][n2] > own_alphas[n2]):
                lost.append(n2)
    return lost


def _profile_winners(profile, alphas, num_d2d: int) -> list:
    """Every pair's choice when each CU offers its target the allocation ``alphas[m][n]``."""
    proposals = [PASS if n is None else (n, alphas[m][n]) for m, n in enumerate(profile)]
    return choice_winners(proposals, num_d2d)


def _utilities(profile, winners, cu_scores, theta: float) -> list:
    """Every CU's payoff under ``profile``, given every pair's choice ``winners``."""
    utils = []
    for m, n in enumerate(profile):
        if n is None:
            utils.append(0.0)
        elif winners[n] == m:
            utils.append(cu_scores[m][n] - theta)
        else:
            utils.append(-theta)
    return utils


def game_utility(m: int, profile, prefs: PreferenceProfile, sys: SystemParams) -> float:
    """Payoff of CU ``m`` under the joint action ``profile``.

    Opting out pays 0; a proposal pays the CU's bargained-cooperation score
    minus the negotiation cost if the target picks it, and minus the cost
    alone if the target picks someone else.
    """
    winners = _profile_winners(profile, prefs.d2d_scores, prefs.num_d2d)
    return float(_utilities(profile, winners, prefs.cu_scores, sys.theta)[m])


def induced_matching(profile, prefs: PreferenceProfile, sys: SystemParams) -> Matching:
    """The matching realized when every pair picks among the profile's proposals."""
    winners = _profile_winners(profile, prefs.d2d_scores, prefs.num_d2d)
    return Matching.from_d2d_partners(winners, prefs.num_cus)


def _improving_moves(profile, winners, utils, alphas, cu_scores, theta: float):
    """Yield every (cu, action) unilateral move that improves that CU's lot.

    A move improves when it strictly raises the CU's payoff, or when it takes
    an accepted CU to an equally paying pair of lower index that would accept
    it: the matching's order on the CU side (``PreferenceProfile.cu_prefers``)
    gives a CU-score tie to the lower pair. Moves come in CU order; for each
    CU, opting out first, then the pairs in index order. The profile is a
    pure Nash equilibrium when none is yielded.
    """
    for m, current in enumerate(profile):
        if current is not None and 0.0 > utils[m]:
            yield m, None
        accepted = current is not None and winners[current] == m
        lost = lost_pairs(m, profile, alphas, alphas[m])
        for n, score in enumerate(cu_scores[m]):
            if n != current:
                payoff = -theta if n in lost else score - theta
                if payoff > utils[m] or (
                        accepted and n < current and n not in lost and payoff == utils[m]):
                    yield m, n


def check_negotiation_cost(prefs: PreferenceProfile, sys: SystemParams) -> None:
    """Ensure the negotiation cost cannot flip any positive cooperation score.

    The equilibrium/stability equivalence needs theta strictly below every
    positive CU score of the instance.
    """
    positive = prefs.cu_scores[prefs.cu_scores > 0]
    if positive.size and positive.min() <= sys.theta:
        raise ConfigurationError(
            f"theta (={sys.theta}) must be < the smallest positive CU score "
            f"(={positive.min():.3g}) for equilibria to coincide with stable matchings"
        )


def enumerate_pne(prefs: PreferenceProfile, sys: SystemParams):
    """Brute-force all pure Nash equilibria of a small instance."""
    num_profiles = (prefs.num_d2d + 1) ** prefs.num_cus
    if num_profiles > 10**6:
        raise CapacityError(
            f"instance too large to enumerate: (N+1)^M = {num_profiles} > 1e6"
        )
    check_negotiation_cost(prefs, sys)
    alphas, cu_scores, theta = prefs.d2d_scores.tolist(), prefs.cu_scores.tolist(), sys.theta
    actions = (None, *range(prefs.num_d2d))
    equilibria = []
    for profile in product(actions, repeat=prefs.num_cus):
        winners = _profile_winners(profile, alphas, prefs.num_d2d)
        utils = _utilities(profile, winners, cu_scores, theta)
        moves = _improving_moves(profile, winners, utils, alphas, cu_scores, theta)
        if next(moves, None) is None:
            equilibria.append(profile)
    return equilibria


def better_reply_path(start, prefs: PreferenceProfile, sys: SystemParams, seed: int = 0):
    """An improvement path from ``start`` to an equilibrium profile.

    Every step changes one CU's action and strictly raises that CU's payoff,
    or moves an accepted CU to an equally paying pair of lower index.
    Construction: CUs with a negative payoff (rejected, or proposing an
    unacceptable pair) opt out first; then one mutually improving proposal is
    granted at a time, with the newly displaced CU opting out before the
    next. Improving moves are taken in index order until a profile repeats,
    after which they are drawn uniformly (a random satisfaction order reaches
    an equilibrium with probability one). A step budget of
    M*(N+1)*count_matchings guards against nontermination.
    """
    check_negotiation_cost(prefs, sys)
    rng = _random.Random(seed)
    profile = tuple(start)
    for action in profile:
        if action is not None and not 0 <= action < prefs.num_d2d:
            raise ValueError(f"action {action!r} is not a pair id or None")
    alphas, cu_scores, theta = prefs.d2d_scores.tolist(), prefs.cu_scores.tolist(), sys.theta
    path = [profile]
    cap = prefs.num_cus * (prefs.num_d2d + 1) * count_matchings(prefs.num_cus, prefs.num_d2d)
    seen = {profile}
    randomized = False
    for _ in range(cap):
        winners = _profile_winners(profile, alphas, prefs.num_d2d)
        utils = _utilities(profile, winners, cu_scores, theta)
        opt_outs = [(m, None) for m in range(prefs.num_cus)
                    if profile[m] is not None and utils[m] < 0.0]
        if opt_outs:
            move = opt_outs[0]
        else:
            moves = list(_improving_moves(profile, winners, utils, alphas, cu_scores, theta))
            if not moves:
                return path  # no better reply anywhere: a pure Nash equilibrium
            move = rng.choice(moves) if randomized else moves[0]
        m, action = move
        new_profile = profile[:m] + (action,) + profile[m + 1:]
        new_util = game_utility(m, new_profile, prefs, sys)
        tie_step = new_util == utils[m] and None not in (action, profile[m]) and action < profile[m]
        assert new_util > utils[m] or tie_step, "better-reply step failed to improve"
        profile = new_profile
        path.append(profile)
        if profile in seen:
            randomized = True
        seen.add(profile)
    raise RuntimeError(
        f"better-reply path exceeded its step budget ({cap}); instance may "
        "violate the negotiation-cost precondition"
    )
