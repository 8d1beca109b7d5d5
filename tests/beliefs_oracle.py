"""Reference oracle for the belief model and the rationality engine.

``CooperationScanner`` is the library's one expected-utility engine: it
aggregates the other players over cooperator counts with the product
(independent) model of post-deviation beliefs, on integer rows.  This module
keeps the forms it is checked against.  The count forms: the oracle's own
belief model ``OthersBehaviorModel``, whose ``count_distribution`` convolves
Fractions where the library reads ``games._multiset_law``, the on-path and
post-deviation belief models, ``payoff_vs_counts`` (one representative
profile per cooperator count) and expected utilities summed over counts
(symmetric dilemmas only).  The pattern-by-pattern forms: the full
distribution over cooperation patterns, the detection-set mixture expanded
subset by subset, expected utilities summed pattern by pattern, and the
rationality loop over every deviation on top of them.  The pattern forms are
exponential in the player count and meant to be obviously right, not fast.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from translucent.beliefs import RationalityReport, TranslucentType
from translucent.exact import to_exact

SUBSET_ENUM_BUDGET = 4096  # largest 2^(n-1) we expand when cross-checking


@dataclass(frozen=True)
class OthersBehaviorModel:
    """Independent cooperate/defect distribution for each other player.

    ``cooperate_probs[j]`` is the cooperation probability of the j-th other
    player (players other than the focal one, in index order).
    """

    cooperate_probs: tuple

    def __post_init__(self):
        probs = tuple(to_exact(p) for p in self.cooperate_probs)
        object.__setattr__(self, "cooperate_probs", probs)
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"cooperation probability {p} outside [0, 1]")

    @property
    def num_others(self) -> int:
        return len(self.cooperate_probs)

    def count_distribution(self) -> tuple:
        """P(exactly k others cooperate) for k = 0..n-1, exact.

        Computed by convolving the per-player Bernoulli distributions, so
        heterogeneous probabilities are handled too.
        """
        dist = [Fraction(1)]
        for q in self.cooperate_probs:
            nxt = [Fraction(0)] * (len(dist) + 1)
            for k, p in enumerate(dist):
                nxt[k] += p * (1 - q)
                nxt[k + 1] += p * q
            dist = nxt
        return tuple(dist)


def on_path_beliefs(t: TranslucentType, n: int) -> OthersBehaviorModel:
    """Beliefs of an undisturbed cooperator: others cooperate w.p. beta."""
    if n < 2:
        raise ValueError("need at least 2 players")
    return OthersBehaviorModel((t.beta,) * (n - 1))


def profile_distribution(model: OthersBehaviorModel):
    """Pairs (cooperation pattern, probability) over {C, D}^(n-1).

    Patterns are tuples of booleans (True = cooperates), aligned with
    ``model.cooperate_probs``.
    """
    for pattern in itertools.product((True, False), repeat=model.num_others):
        p = Fraction(1)
        for coop, q in zip(pattern, model.cooperate_probs):
            p *= q if coop else 1 - q
        yield pattern, p


def deviation_mixture_distribution(t: TranslucentType, n: int) -> dict:
    """The detection-set mixture over cooperation patterns, expanded.

    Sums, over subsets J of the other players (the detectors, who defect for
    sure), alpha^|J| (1-alpha)^(n-1-|J|) times the conditional distribution in
    which players outside J cooperate independently with probability beta.
    Exponential in n; used to cross-check the product short cut.
    """
    others = n - 1
    dist: dict = {}
    for detectors in itertools.product((False, True), repeat=others):
        weight = Fraction(1)
        for d in detectors:
            weight *= t.alpha if d else 1 - t.alpha
        if weight == 0:
            continue
        free = [j for j in range(others) if not detectors[j]]
        for coop_free in itertools.product((True, False), repeat=len(free)):
            p = weight
            pattern = [False] * others
            for j, coop in zip(free, coop_free):
                p *= t.beta if coop else 1 - t.beta
                pattern[j] = coop
            if p:
                key = tuple(pattern)
                dist[key] = dist.get(key, Fraction(0)) + p
    return dist


def deviation_belief_mixture(t: TranslucentType, n: int,
                             budget: int = SUBSET_ENUM_BUDGET) -> OthersBehaviorModel:
    """Post-deviation beliefs: others cooperate w.p. (1 - alpha) * beta.

    This is the detection-set mixture in closed form: each other player
    detects independently w.p. alpha and then defects, and otherwise
    cooperates w.p. beta.  When 2^(n-1) fits the budget, the mixture is
    expanded explicitly and checked to coincide with the product model;
    beyond the budget (``budget=1`` for every n >= 2) the product form is
    returned directly.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    gamma = (1 - t.alpha) * t.beta
    model = OthersBehaviorModel((gamma,) * (n - 1))
    if 2 ** (n - 1) <= budget:
        mixture = deviation_mixture_distribution(t, n)
        for pattern, p in profile_distribution(model):
            if mixture.get(pattern, Fraction(0)) != p:
                raise AssertionError(
                    "detection-set mixture disagrees with the product model; "
                    f"pattern {pattern}: {mixture.get(pattern)} vs {p}"
                )
    return model


def expected_utility(d, i: int, strategy, model: OthersBehaviorModel) -> Fraction:
    """E[u_i(strategy, s_-i)], expanding all cooperation patterns."""
    if model.num_others != d.num_players - 1:
        raise ValueError("model size does not match the game")
    others = [j for j in range(d.num_players) if j != i]
    total = Fraction(0)
    for pattern, p in profile_distribution(model):
        if not p:
            continue
        profile = [None] * d.num_players
        profile[i] = strategy
        for j, coop in zip(others, pattern):
            profile[j] = d.cooperate_strategy(j) if coop else d.defect_strategy(j)
        total += p * d.payoff(tuple(profile), i)
    return total


def _require_symmetric(d) -> None:
    if not d.game.symmetric:
        raise ValueError("count aggregation needs a symmetric dilemma")


def payoff_vs_counts(d, i: int, strategy, k_cooperating: int) -> Fraction:
    """Payoff of ``i`` playing ``strategy`` when exactly ``k_cooperating``
    of the other players cooperate and the rest defect: the first
    ``k_cooperating`` others in player order cooperate.  Symmetric dilemmas
    only, where every such profile pays the same."""
    n = d.num_players
    if not 0 <= k_cooperating <= n - 1:
        raise ValueError(f"cooperator count {k_cooperating} out of range")
    _require_symmetric(d)
    profile = [None] * n
    profile[i] = strategy
    for placed, j in enumerate(j for j in range(n) if j != i):
        profile[j] = d.cooperate_strategy(j) if placed < k_cooperating else d.defect_strategy(j)
    return d.payoff(tuple(profile), i)


def expected_utility_by_counts(d, i: int, strategy,
                               model: OthersBehaviorModel) -> Fraction:
    """E[u_i(strategy, s_-i)] with the others drawn from ``model``,
    aggregated over cooperator counts (symmetric dilemmas only)."""
    _require_symmetric(d)
    if model.num_others != d.num_players - 1:
        raise ValueError("model size does not match the game")
    total = Fraction(0)
    for k, p in enumerate(model.count_distribution()):
        if p:
            total += p * payoff_vs_counts(d, i, strategy, k)
    return total


def expected_utility_cooperate(d, i: int, t: TranslucentType) -> Fraction:
    """Expected payoff of cooperating under on-path beliefs, by counts."""
    model = on_path_beliefs(t, d.num_players)
    return expected_utility_by_counts(d, i, d.cooperate_strategy(i), model)


def expected_utility_deviation(d, i: int, t: TranslucentType, s_dev) -> Fraction:
    """Expected payoff of playing ``s_dev`` under post-deviation beliefs,
    by counts."""
    model = deviation_belief_mixture(t, d.num_players, budget=1)
    return expected_utility_by_counts(d, i, s_dev, model)


def is_cooperation_rational(d, i: int, t) -> RationalityReport:
    """Decide rationality of cooperation by checking every deviation,
    pattern by pattern; the best deviation is the first maximizer in
    strategy order."""
    if not isinstance(t, TranslucentType):
        t = TranslucentType(*t)
    coop = d.cooperate_strategy(i)
    eu_coop = expected_utility(d, i, coop, on_path_beliefs(t, d.num_players))
    dev_model = deviation_belief_mixture(t, d.num_players, budget=1)
    best_dev = None
    best_eu = None
    for s in d.game.strategy_sets[i]:
        if s == coop:
            continue
        eu = expected_utility(d, i, s, dev_model)
        if best_eu is None or eu > best_eu:
            best_eu = eu
            best_dev = s
    rational = best_eu is None or eu_coop >= best_eu
    return RationalityReport(rational, best_dev, eu_coop, best_eu)
