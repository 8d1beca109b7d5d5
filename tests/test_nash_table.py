"""Pure Nash profiles and welfare maximizers read from the game's integer
payoff table, against the rule-based oracle in ``games_oracle``.

``enumerate_pure_nash`` and ``verify_social_dilemma`` fill the table by the
rule where it is still empty (one call per player and profile) and compare
integers.  The comparisons run on the four factories, on small
non-symmetric games whose ``Fraction`` payoffs have mixed denominators (so
a row is rescaled while it is filled) and on games whose table the
coherence check has already filled in part.
"""

import itertools
from fractions import Fraction as F
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import games_oracle as oracle
from test_games import bertrand_game_with_floor
from translucent.equilibrium import make_coherence_checker
from translucent.games import (
    MixedProfile,
    NormalFormGame,
    enumerate_pure_nash,
    make_dilemma,
    verify_social_dilemma,
)

FACTORIES = [
    ("pd", {"b": 4, "c": 1}),
    ("pd", {"b": F(3, 2), "c": F(1, 2)}),
    ("pgg", {"n": 2, "rho": F(3, 5), "grid": 4}),
    ("pgg", {"n": 3, "rho": F(1, 2), "grid": 2}),
    ("pgg", {"n": 4, "rho": F(2, 5), "grid": 1}),
    ("bertrand", {"n": 2, "l": 2, "h": 6}),
    ("bertrand", {"n": 3, "l": 2, "h": 5}),
    ("td", {"l": 2, "h": 7, "bonus": 3}),
    ("td", {"l": 2, "h": 5, "bonus": 1}),  # several Nash profiles
    ("td", {"l": 1, "h": 6, "bonus": F(5, 2)}),
]
# small numerators tie often; the denominators differ within a row
payoffs = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def small_games(draw):
    """A non-symmetric game of 2-3 players with 1-4 strategies each and a
    drawn payoff table, called through its rule."""
    n = draw(st.integers(2, 3))
    sets = [tuple(f"{i}{j}" for j in range(draw(st.integers(1, 4)))) for i in range(n)]
    count = prod(map(len, sets))
    columns = [draw(st.lists(payoffs, min_size=count, max_size=count)) for _ in range(n)]
    table = dict(zip(itertools.product(*sets), zip(*columns)))
    return NormalFormGame(n, sets, lambda profile, i: table[profile][i])


@st.composite
def games(draw):
    """A factory game, the bertrand game with a floor of 1 (two Nash
    profiles), or a small non-symmetric one; each freshly built, so its
    table starts empty."""
    source = draw(st.sampled_from(["factory", "floor one", "small"]))
    if source == "factory":
        return make_dilemma(*draw(st.sampled_from(FACTORIES))).game
    if source == "floor one":
        return bertrand_game_with_floor(2, 1, 5)
    return draw(small_games())


@st.composite
def mixtures(draw, game):
    """A mixed profile on ``game``: per player a drawn support and weights."""
    dists = []
    for strats in game.strategy_sets:
        support = draw(st.lists(st.sampled_from(strats), min_size=1,
                                max_size=min(3, len(strats)), unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(support),
                                max_size=len(support)))
        dists.append({s: F(w, sum(weights)) for s, w in zip(support, weights)})
    return MixedProfile(game, dists)


def assert_matches_oracle(game):
    want = oracle.verify_social_dilemma(game)
    got = verify_social_dilemma(game)
    assert got.nash_equilibria == want.nash_equilibria
    assert got.welfare_maximizers == want.welfare_maximizers
    assert (got.unique_nash, got.unique_welfare, got.dominance_ok) == (
        want.unique_nash, want.unique_welfare, want.dominance_ok)
    assert enumerate_pure_nash(game) == oracle.enumerate_pure_nash(game)
    # the table stays on the game, one integer per player and profile
    profiles = list(game.profiles())
    for i, (row, scale) in enumerate(zip(game._table, game._scales)):
        assert sorted(row) == list(range(len(profiles)))
        assert all(F(num, scale) == game.payoff(profiles[k], i) for k, num in row.items())


@settings(max_examples=150, deadline=None)
@given(games(), st.booleans(), st.data())
def test_table_path_matches_the_rule_oracle(game, filled, data):
    if filled:  # coherence fills the table at the profile's support first
        sigma = data.draw(mixtures(game))
        make_coherence_checker(game)(sigma)
        assert 0 < len(game._table[0]) <= game.profile_count()
    assert_matches_oracle(game)
    assert_matches_oracle(game)  # again, on the full table
