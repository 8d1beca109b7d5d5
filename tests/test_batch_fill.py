"""The payoff memo and tables filled in batches against the per-entry fill.

``NormalFormGame._multiset_payoffs`` and ``_fill`` compute their misses by
the rule and store them in one batch over one common scale (``_store``),
an int as it is.  ``games_oracle.fill_per_entry`` keeps the former route,
which stored each value through ``Fraction`` and raised the scale, with
every stored entry, at each new denominator.  The stored integers, the
scales and every payoff must be the same, on bertrand (tie denominators
1..n), the public goods game and td with an integral and a non-integral
bonus; ``minimize_payoff`` and ``verify_social_dilemma`` must give what the
former ``Fraction`` rules give.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

import games_oracle as oracle
from translucent.beliefs import CooperationScanner
from translucent.games import (MixedProfile, NormalFormGame, make_dilemma,
                               minimize_payoff, verify_social_dilemma)

GAMES = [
    ("bertrand", {"n": 5, "l": 2, "h": 6}),
    ("bertrand", {"n": 3, "l": 3, "h": 9}),
    ("pgg", {"n": 3, "rho": F(1, 2), "grid": 3}),
    ("td", {"l": 2, "h": 9, "bonus": F(5, 2)}),
    ("td", {"l": 2, "h": 9, "bonus": 3}),
]
IDS = [f"{kind}-{'-'.join(map(str, params.values()))}" for kind, params in GAMES]


def multiset_keys(d) -> list:
    strats, n = d.game.strategy_sets[0], d.num_players
    return [(own, rest) for own in range(len(strats))
            for rest in itertools.combinations_with_replacement(range(len(strats)), n - 1)]


def rule_value(d, key):
    strats = d.game.strategy_sets[0]
    own, rest = key
    return d.game.payoff_rule((strats[own], *[strats[p] for p in rest]), 0)


@pytest.mark.parametrize("kind,params", GAMES, ids=IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiset_memo_is_the_per_entry_fill(kind, params, seed):
    d = make_dilemma(kind, params)
    keys = multiset_keys(d)
    random.Random(seed).shuffle(keys)
    # three batches, the later ones raising the scale of the stored entries
    batches = [keys[:len(keys) // 3], keys[len(keys) // 3:2 * len(keys) // 3], keys]
    memo, scale = {}, 1
    for batch in batches:
        values, got_scale = d.game._multiset_payoffs(batch)
        memo, scale = oracle.fill_per_entry([(k, rule_value(d, k)) for k in batch],
                                            memo, scale)
        assert (d.game._multisets, d.game._scales[-1]) == (memo, scale)
        assert (values, got_scale) == ([memo[k] for k in batch], scale)
    for key in keys:
        assert F(memo[key], scale) == d.game.payoff(
            tuple(d.game.strategy_sets[0][p] for p in (key[0], *key[1])), 0)
    if kind == "bertrand":  # every tie count's denominator is in the scale
        assert all(scale % k == 0 for k in range(1, params["n"] + 1))


@pytest.mark.parametrize("kind,params", GAMES, ids=IDS)
def test_tables_are_the_per_entry_fill(kind, params):
    d = make_dilemma(kind, params)
    game = d.game
    rows = game._rows()
    for i in range(game.num_players):
        table, scale = oracle.fill_per_entry(
            (k, game.payoff_rule(game._profile_at(k), i))
            for k in range(game.profile_count()))
        assert (game._table[i], game._scales[i]) == (table, scale)
        assert rows[i] == [table[k] for k in range(game.profile_count())]


@pytest.mark.parametrize("kind,params", GAMES, ids=IDS)
def test_scanner_and_mixtures_read_the_batch(kind, params):
    # the scanner's rows and a mixture's expectations equal those of a game
    # whose rule is the former one, Fraction throughout
    d = make_dilemma(kind, params)
    rule = (oracle.fraction_rule(kind, params) if kind in ("bertrand", "td")
            else d.game.payoff_rule)
    twin = make_dilemma(kind, params)
    object.__setattr__(twin.game, "payoff_rule", rule)

    def exact_rows(scanner):
        return [[F(u, scanner.scale) for u in row] for row in scanner.rows]

    assert exact_rows(CooperationScanner(d)) == exact_rows(CooperationScanner(twin))
    sigma = MixedProfile.two_point(d, [F(1, 3)] * d.num_players)
    twin_sigma = MixedProfile.two_point(twin, [F(1, 3)] * d.num_players)
    for s in d.game.strategy_sets[0]:
        assert sigma.expected_payoff(0, s) == twin_sigma.expected_payoff(0, s)


@pytest.mark.parametrize("kind,params", GAMES, ids=IDS)
def test_floors_and_dilemma_checks_are_unchanged(kind, params):
    d = make_dilemma(kind, params)
    game = d.game
    rule = (oracle.fraction_rule(kind, params) if kind in ("bertrand", "td")
            else game.payoff_rule)
    former = NormalFormGame(game.num_players, game.strategy_sets, rule,
                            symmetric=True, name=game.name)
    for i in range(game.num_players):
        for s in game.strategy_sets[i]:
            got, want = minimize_payoff(game, i, s), minimize_payoff(former, i, s)
            assert got == want and type(got[0]) is F
    assert verify_social_dilemma(game) == verify_social_dilemma(former)
    assert verify_social_dilemma(game) == oracle.verify_social_dilemma(former)
    for profile in itertools.islice(game.profiles(), 50):
        for i in range(game.num_players):
            value = game.payoff(profile, i)
            assert type(value) is F and value == rule(profile, i)
