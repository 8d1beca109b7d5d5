"""Reference oracle for the exhaustive social-dilemma checks.

The library reads pure Nash profiles and welfare maximizers from the game's
integer payoff table: one rule call per (player, profile), integer
comparisons along each player's own strategies, and welfare compared over
the lcm of the players' scales.  This module keeps the former route, the
payoff rule called for every unilateral deviation of every profile and the
welfare summed in ``Fraction``s profile by profile, so the tests can compare
the table path against it.  Nothing here is fast; it is meant to be
obviously right.
"""

from translucent.games import (DilemmaReport, NormalFormGame, Profile,
                               _check_budget, as_game)


def enumerate_pure_nash(game: NormalFormGame, budget: int = 10_000_000) -> list:
    """All pure Nash equilibria, by exhaustive unilateral-deviation checks."""
    _check_budget(game, budget)
    return [profile for profile in game.profiles() if is_pure_nash(game, profile)]


def is_pure_nash(game: NormalFormGame, profile: Profile) -> bool:
    rule = game.payoff_rule
    for i in range(game.num_players):
        base = rule(profile, i)
        mutable = list(profile)
        for s in game.strategy_sets[i]:
            if s == profile[i]:
                continue
            mutable[i] = s
            if rule(tuple(mutable), i) > base:
                return False
    return True


def verify_social_dilemma(game, budget: int = 10_000_000) -> DilemmaReport:
    """Nash profiles and welfare maximizers by calling the rule per profile."""
    game = as_game(game)
    nash = tuple(enumerate_pure_nash(game, budget))
    rule = game.payoff_rule
    best_welfare = None
    maximizers = []
    for profile in game.profiles():
        w = sum(rule(profile, i) for i in range(game.num_players))
        if best_welfare is None or w > best_welfare:
            best_welfare = w
            maximizers = [profile]
        elif w == best_welfare:
            maximizers.append(profile)
    maximizers = tuple(maximizers)
    unique_nash = nash[0] if len(nash) == 1 else None
    unique_welfare = maximizers[0] if len(maximizers) == 1 else None
    dominance_ok = False
    if unique_nash is not None and unique_welfare is not None:
        dominance_ok = all(game.payoff(unique_welfare, i) > game.payoff(unique_nash, i)
                           for i in range(game.num_players))
    return DilemmaReport(nash, maximizers, unique_nash, unique_welfare, dominance_ok)


# ---------------------------------------------------------------------------
# payoff memo fills
#
# The library stores a batch of rule values over one common scale, raised
# once per batch, and keeps a rule's int as it is.  The former route stored
# each value as it came, through ``Fraction``, raising the scale and every
# stored entry at each new denominator; and the bertrand and td rules
# returned ``Fraction``s.


def fill_per_entry(entries, memo=None, scale: int = 1) -> tuple:
    """``(memo, scale)`` after storing each (key, value) of ``entries`` in
    turn, a key already stored skipped, as the former per-entry fill did."""
    from math import gcd

    from translucent.exact import to_exact

    memo = {} if memo is None else memo
    for key, value in entries:
        if key in memo:
            continue
        v = to_exact(value)
        if scale % v.denominator:
            factor = v.denominator // gcd(scale, v.denominator)
            for stored in memo:
                memo[stored] *= factor
            scale *= factor
        memo[key] = v.numerator * (scale // v.denominator)
    return memo, scale


def fraction_rule(kind: str, params: dict):
    """The former bertrand and td payoff rules, ``Fraction`` throughout."""
    from fractions import Fraction

    if kind == "bertrand":
        def rule(profile, i):
            low = min(profile)
            if profile[i] != low:
                return Fraction(0)
            return Fraction(low, profile.count(low))
        return rule
    bonus = Fraction(params["bonus"])

    def rule(profile, i):  # td
        mine, other = profile[i], profile[1 - i]
        if mine == other:
            return Fraction(mine)
        if mine < other:
            return mine + bonus
        return other - bonus
    return rule
