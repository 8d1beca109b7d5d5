"""Reference oracle for the belief model and the rationality engine.

The library aggregates the other players over cooperator counts with the
product (independent) model of post-deviation beliefs.  This module keeps
the pattern-by-pattern forms the library used to carry: the full
distribution over cooperation patterns, the detection-set mixture expanded
subset by subset, expected utilities summed pattern by pattern, and the
rationality loop over every deviation on top of them.  They are exponential
in the player count and meant to be obviously right, not fast.
"""

import itertools
from fractions import Fraction

from translucent.beliefs import (
    OthersBehaviorModel,
    RationalityReport,
    TranslucentType,
    on_path_beliefs,
)

SUBSET_ENUM_BUDGET = 4096  # largest 2^(n-1) we expand when cross-checking


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

    When 2^(n-1) fits the budget, the detection-set mixture is expanded
    explicitly and checked to coincide with the product model; beyond the
    budget the product form is returned directly.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    gamma = (1 - t.alpha) * t.beta
    model = OthersBehaviorModel((gamma,) * (n - 1), "post_deviation")
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
