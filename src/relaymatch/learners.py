"""Per-CU decision policies driven by period-level observations.

Each agent owns one CU's state. A period is a synchronous round: every agent
emits a proposal, every D2D pair picks a proposer, and the harness then
hands every agent the same ``PeriodObservation``: the joint proposals, the
choices, and the realized relay rate of each cooperating CU. An agent reads
only its own entry of the rate samples; the proposals and choices are common
knowledge. Agents never see true expected rates other than their own direct
rate.

``EbriQAgent`` is the main policy: it keeps a running-mean estimate of each
pair's relay rate (so the implied bargained allocation converges to the true
one), and outside of a decaying exploration phase plays better replies with
inertia against the last few joint target selections, scoring candidate
targets with its estimated utilities. Exploring proposals occasionally carry
an oversized allocation that any pair accepts, which guarantees every pair
keeps being sampled. What every CU observes alike, the announced allocations
and the memory of joint selections, lives in one ``PublicRecord`` shared by
all agents of a replication and updated once per period.

The scoring reads tables kept up to date where their inputs change, not
recomputed per call: the record keeps every announced allocation's bid (the
allocation plus its CU's tie-break bias), and an ``EbriQAgent`` keeps its own
bid row and the value of winning each pair. The inputs of a table change
only through its owner's methods: ``PublicRecord.observe`` and ``announce``
for the record, ``set_estimate`` (which ``record_cooperation`` calls) for an
agent. Each entry is the same float expression the choice rule would
compute, so caching changes no result.
"""

from __future__ import annotations

from collections import deque
from operator import add
from typing import NamedTuple, Optional, Sequence

from .game import PASS, Proposal, lost_pairs
from .params import LearningParams, SystemParams

__all__ = [
    "PeriodObservation",
    "PublicRecord",
    "epsilon_schedule",
    "EbriQAgent",
    "EpsilonGreedyAgent",
    "RandomAgent",
    "NonCoopAgent",
    "FixedProposalAgent",
]


class PeriodObservation(NamedTuple):
    """What the CUs see at the end of a period; one object serves every agent.

    ``rate_samples[m]`` is CU ``m``'s realized relay rate, present exactly
    when its target picked it. A CU reads only its own entry.
    """

    proposals: tuple
    d2d_choices: tuple
    rate_samples: tuple


def epsilon_schedule(t: int, epsilon0: float, num_cus: int, memory_length: int) -> float:
    """Decaying exploration probability epsilon0 * t^(-1/(M*L))."""
    return epsilon0 * t ** (-1.0 / (num_cus * memory_length))


class PublicRecord:
    """The common knowledge of one replication's CUs.

    ``announced_alphas[m][n]`` is the last bargained allocation CU ``m``
    announced to pair ``n`` (exploration announcements are skipped; the
    start value is ``alpha_low``), and ``bids[m][n]`` is that allocation plus
    the CU's tie-break bias ``bias[m]``, the bid the pair would compare.
    ``memory`` holds the last ``memory_length`` joint target selections.
    ``observe`` applies one period's observation; given the same observation
    object again it does nothing, so every agent of the replication can pass
    it on. Write an announcement only through ``observe`` or ``announce``,
    which keep the two tables in step.
    """

    __slots__ = ("announced_alphas", "bids", "bias", "memory", "_alpha_explore", "_last")

    def __init__(self, num_cus: int, num_d2d: int, sys: SystemParams, memory_length: int,
                 bias: Sequence[float]):
        self.bias = tuple(bias)
        if len(self.bias) != num_cus:
            raise ValueError(f"need one bias per CU ({num_cus}), got {len(self.bias)}")
        self.announced_alphas = [[sys.alpha_low] * num_d2d for _ in range(num_cus)]
        self.bids = [[sys.alpha_low + b] * num_d2d for b in self.bias]
        self.memory = deque(maxlen=memory_length)
        self._alpha_explore = sys.alpha_explore
        self._last = None

    def announce(self, m: int, n: int, alpha: float) -> None:
        """Record ``alpha`` as CU ``m``'s announced allocation to pair ``n``."""
        self.announced_alphas[m][n] = alpha
        self.bids[m][n] = alpha + self.bias[m]

    def observe(self, obs: PeriodObservation) -> None:
        if obs is self._last:
            return
        self._last = obs
        announced = self.announced_alphas
        bids = self.bids
        bias = self.bias
        alpha_explore = self._alpha_explore
        for m, (n, alpha) in enumerate(obs.proposals):
            if n is not None and alpha != alpha_explore:
                announced[m][n] = alpha
                bids[m][n] = alpha + bias[m]
        self.memory.append(tuple([p.target for p in obs.proposals]))


class _RateEstimator:
    """Shared estimator state: relay-rate running means and implied allocations.

    The estimate after k cooperation samples equals
    (initial + sum of samples) / (1 + k) exactly: each update uses the step
    size 1/(1 + count) with the count including the new sample.
    """

    __slots__ = (
        "index", "num_cus", "num_d2d", "direct_rate", "sys",
        "rate_estimates", "coop_counts", "own_alphas",
    )

    def __init__(self, index: int, num_cus: int, num_d2d: int,
                 direct_rate: float, sys: SystemParams):
        self.index = index
        self.num_cus = num_cus
        self.num_d2d = num_d2d
        self.direct_rate = direct_rate
        self.sys = sys
        # Optimistic start: high enough that every pair initially looks
        # acceptable, so the better-reply branch cannot starve exploration.
        init = direct_rate / (1.0 - sys.alpha_high) + 1e-6
        self.rate_estimates = [init] * num_d2d
        self.coop_counts = [0] * num_d2d
        self.own_alphas = [self._alpha_of(init)] * num_d2d

    def _alpha_of(self, rate_estimate: float) -> float:
        """The bargained allocation implied by a relay-rate estimate, clamped."""
        alpha = (rate_estimate - self.direct_rate) / (2.0 * rate_estimate)
        sys = self.sys
        if alpha < sys.alpha_low:
            return sys.alpha_low
        if alpha > sys.alpha_high:
            return sys.alpha_high
        return alpha

    def set_estimate(self, n: int, estimate: float) -> None:
        """Set pair ``n``'s relay-rate estimate and the allocation it implies."""
        self.rate_estimates[n] = estimate
        self.own_alphas[n] = self._alpha_of(estimate)

    def record_cooperation(self, n: int, rate_sample: float) -> None:
        self.coop_counts[n] += 1
        step = 1.0 / (1.0 + self.coop_counts[n])
        self.set_estimate(n, self.rate_estimates[n] + step * (rate_sample - self.rate_estimates[n]))

    def _learn_from(self, obs: PeriodObservation) -> Proposal:
        """Validate this CU's part of ``obs``, learn from its sample, return its proposal."""
        me = self.index
        own = obs.proposals[me]
        sample = obs.rate_samples[me]
        n = own.target
        if n is not None and obs.d2d_choices[n] == me:
            if sample is None:
                raise ValueError("chosen by target but its rate sample is missing")
            self.record_cooperation(n, sample)
        elif sample is not None:
            raise ValueError("rate sample present although not chosen")
        return own

    def alpha_estimate(self, n: int) -> float:
        return self.own_alphas[n]


class EbriQAgent(_RateEstimator):
    """Better-reply-with-inertia over estimated utilities, plus rate learning.

    Per period (after the initial round, which proposes uniformly at random):

    * with probability ``epsilon(t)`` pick a uniform target; announce the
      current bargained-allocation estimate with probability ``zeta``,
      otherwise the oversized exploration allocation that always wins;
    * otherwise repeat the previous action with probability ``xi``, else move
      to a uniformly drawn action whose estimated utility, averaged over the
      remembered joint selections, strictly beats the previous action's
      (staying put when none does).

    Updates: the chosen pair's rate estimate and implied allocation, and the
    shared ``record`` (other CUs' announced allocations and the selection
    memory). Agents of one replication share one record, built with the
    same biases; an agent built without one gets its own.

    ``bids[n]`` is this CU's bid at pair ``n`` (its allocation estimate plus
    its bias) and ``win_value[n]`` its estimated payoff when pair ``n`` picks
    it, ``(1 - alpha) * estimate - direct_rate - theta``; ``set_estimate``
    keeps both in step with the estimates.
    """

    __slots__ = ("params", "bias", "record", "last_action", "bids", "win_value")

    def __init__(self, index: int, num_cus: int, num_d2d: int, direct_rate: float,
                 sys: SystemParams, params: LearningParams, bias: Sequence[float],
                 record: Optional[PublicRecord] = None):
        super().__init__(index, num_cus, num_d2d, direct_rate, sys)
        self.params = params
        self.bias = tuple(bias)
        if record is None:
            record = PublicRecord(num_cus, num_d2d, sys, params.memory_length, self.bias)
        elif record.bias != self.bias:
            raise ValueError("the shared record was built with other biases")
        self.record = record
        self.last_action = None
        self.bids = [0.0] * num_d2d
        self.win_value = [0.0] * num_d2d
        for n, estimate in enumerate(self.rate_estimates):
            self.set_estimate(n, estimate)

    def set_estimate(self, n: int, estimate: float) -> None:
        # The base class's two writes, inlined: this runs on every cooperation.
        alpha = self._alpha_of(estimate)
        self.rate_estimates[n] = estimate
        self.own_alphas[n] = alpha
        self.bids[n] = alpha + self.bias[self.index]
        self.win_value[n] = (1.0 - alpha) * estimate - self.direct_rate - self.sys.theta

    def act(self, t: int, rng) -> Proposal:
        random = rng.random
        own_alphas = self.own_alphas
        if t <= 1:
            target = int(random() * self.num_d2d)
            return Proposal(target, own_alphas[target])
        params = self.params
        if random() < epsilon_schedule(t, params.epsilon0, self.num_cus, params.memory_length):
            target = int(random() * self.num_d2d)
            if random() < params.zeta:
                return Proposal(target, own_alphas[target])
            return Proposal(target, self.sys.alpha_explore)
        target = self.last_action
        memory = self.record.memory
        if random() >= params.xi and memory:
            # Better replies: actions whose memory-summed estimated utility
            # beats the last action's (opting out scores 0).
            scores = self._summed_utilities(memory)
            base = 0.0 if target is None else scores[target]
            better = [n for n, score in enumerate(scores) if score > base]
            if target is not None and 0.0 > base:
                better.append(None)
            if better:
                target = better[int(random() * len(better))]
        return PASS if target is None else Proposal(target, own_alphas[target])

    def _summed_utilities(self, joint_selections) -> list:
        """Estimated utility of targeting each pair, summed over ``joint_selections``.

        Against one joint selection (a length-M target tuple; this CU's own
        entry is ignored), targeting pair ``n`` earns the estimated
        cooperation gain minus the negotiation cost when ``n`` would pick
        this CU, and minus the cost alone when it would pick another, by
        ``game.lost_pairs`` over the record's bids.
        """
        me = self.index
        theta = self.sys.theta
        bid_table = self.record.bids
        bids = self.bids
        win_value = self.win_value
        scores = None
        previous = None
        for entry in joint_selections:
            if entry != previous:  # once play settles, consecutive entries repeat
                previous = entry
                lost = lost_pairs(me, entry, bid_table, bids)
                gains = win_value.copy() if lost else win_value
                for n in lost:
                    gains[n] = -theta
            # The first entry's gains are the sums from 0.0 exactly: no gain is -0.0.
            scores = gains.copy() if scores is None else list(map(add, scores, gains))
        return [0.0] * self.num_d2d if scores is None else scores

    def estimated_utility(self, candidate, joint_selection) -> float:
        """Estimated payoff of taking ``candidate`` against one joint selection.

        ``joint_selection`` is a full length-M target tuple (as stored in the
        memory); this agent's own entry in it is ignored.
        """
        if candidate is None:
            return 0.0
        return self._summed_utilities((joint_selection,))[candidate]

    def update(self, obs: PeriodObservation, t: int) -> None:
        self.last_action = self._learn_from(obs).target
        self.record.observe(obs)


class EpsilonGreedyAgent(_RateEstimator):
    """Classical epsilon-greedy over per-pair average realized payoff.

    Each pair is an arm; its value is the running mean of the realized
    per-period payoff earned when targeting it (cooperation gain minus the
    negotiation cost, or just the cost when rejected). With probability
    ``epsilon`` a uniform pair is targeted instead of the best arm. Proposals
    always announce the current bargained-allocation estimate, and the rate
    estimator is updated exactly like the main policy's.
    """

    __slots__ = ("epsilon", "q_values", "pull_counts")

    def __init__(self, index: int, num_cus: int, num_d2d: int, direct_rate: float,
                 sys: SystemParams, epsilon: float = 0.1):
        super().__init__(index, num_cus, num_d2d, direct_rate, sys)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        # Common optimistic start so every arm gets tried.
        q0 = (1.0 - self.own_alphas[0]) * self.rate_estimates[0] - direct_rate - sys.theta
        self.q_values = [q0] * num_d2d
        self.pull_counts = [0] * num_d2d

    def act(self, t: int, rng) -> Proposal:
        if rng.random() < self.epsilon:
            target = int(rng.random() * self.num_d2d)
        else:
            q = self.q_values
            best = max(q)
            ties = [n for n in range(self.num_d2d) if q[n] == best]
            target = ties[int(rng.random() * len(ties))] if len(ties) > 1 else ties[0]
        return Proposal(target, self.own_alphas[target])

    def update(self, obs: PeriodObservation, t: int) -> None:
        own = self._learn_from(obs)
        sample = obs.rate_samples[self.index]
        if sample is None:
            reward = -self.sys.theta
        else:
            reward = (1.0 - own.alpha) * sample - self.direct_rate - self.sys.theta
        n = own.target
        self.pull_counts[n] += 1
        self.q_values[n] += (reward - self.q_values[n]) / self.pull_counts[n]


class RandomAgent:
    """Uniform target every period, always conceding the minimum allocation."""

    __slots__ = ("num_d2d", "alpha_low")

    def __init__(self, num_d2d: int, sys: SystemParams):
        self.num_d2d = num_d2d
        self.alpha_low = sys.alpha_low

    def act(self, t: int, rng) -> Proposal:
        return Proposal(int(rng.random() * self.num_d2d), self.alpha_low)

    def update(self, obs: PeriodObservation, t: int) -> None:
        pass

    def alpha_estimate(self, n: int) -> float:
        return self.alpha_low


class NonCoopAgent:
    """Never proposes; the CU always transmits on its own."""

    __slots__ = ()

    def act(self, t: int, rng) -> Proposal:
        return PASS

    def update(self, obs: PeriodObservation, t: int) -> None:
        pass

    def alpha_estimate(self, n: int) -> float:
        raise RuntimeError("non-cooperating CU has no allocation estimate")


class FixedProposalAgent:
    """Replays one fixed proposal forever (complete-information reference)."""

    __slots__ = ("proposal",)

    def __init__(self, target: Optional[int], alpha: Optional[float]):
        self.proposal = PASS if target is None else Proposal(target, alpha)

    def act(self, t: int, rng) -> Proposal:
        return self.proposal

    def update(self, obs: PeriodObservation, t: int) -> None:
        pass

    def alpha_estimate(self, n: int) -> float:
        return self.proposal.alpha
