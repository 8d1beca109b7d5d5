"""The others' mixture kernel and the game's payoff table against their
``Fraction`` oracles.

``MixedProfile`` forms the others' joint support once per player, as
profile-index offsets and integer weights over one common denominator, and
``expected_payoff`` and the structure expectations read payoffs from one
table per game, keyed by profile index.  ``structure_oracle`` keeps the
former ``others_support_profiles``, ``expected_payoff`` and ``joint_prob``,
and ``kernels``, which rebuilds the joint support from the distributions.
The comparisons run on general mixtures (supports of one to four strategies,
in any order, with zero masses) over symmetric games and a non-symmetric
custom game whose players have 2, 3 and 2 strategies; the error paths are
compared with the oracle's exception type and text.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from test_structure_builders import CUSTOM, custom_game
from test_structure_oracle import outcome
from translucent import counterfactual as cf
from translucent.beliefs import CooperationScanner
from translucent.counterfactual import MISSING, build_coherent_structure, is_rational_at
from translucent.equilibrium import make_coherence_checker, te_in_structure
from translucent.exact import to_exact
from translucent.games import (
    MixedProfile,
    NormalFormGame,
    SocialDilemma,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

GAMES = [
    make_prisoners_dilemma(4, 1).game,
    make_travelers_dilemma(2, 7, 3).game,
    make_public_goods(3, F(3, 5), grid=2).game,
    make_public_goods(4, F(2, 5), grid=1).game,
    make_bertrand(3, 2, 5).game,
    CUSTOM,
]
# one game for every example of the table-sharing test, so its table fills
# up across profiles and examples
SHARED = custom_game()


@st.composite
def mixtures(draw, game):
    """A mixed profile on ``game``: per player a support of one to four
    strategies in drawn order, integer weights, and zero-mass entries."""
    dists = []
    for strats in game.strategy_sets:
        k = draw(st.integers(1, min(4, len(strats))))
        support = draw(st.lists(st.sampled_from(strats), min_size=k, max_size=k,
                                unique=True))
        weights = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
        dist = {s: F(0) for s in draw(st.lists(st.sampled_from(strats), max_size=2))}
        dist.update({s: F(w, sum(weights)) for s, w in zip(support, weights)})
        dists.append(dist)
    return MixedProfile(game, dists)


def assert_matches_oracle(sigma):
    game = sigma.game
    assert sigma._kernels == [k[1:] for k in oracle.kernels(sigma)]
    for i, strats in enumerate(game.strategy_sets):
        for s in strats:
            assert sigma.expected_payoff(i, s) == oracle.expected_payoff(sigma, i, s)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_kernel_and_expected_payoff_match_oracle(game, data):
    assert_matches_oracle(data.draw(mixtures(game)))


def test_distributions_follow_the_strategy_sets():
    dists = [{"b": F(2, 3), "a": F(1, 3)}, {F(1, 2): 1},
             {"y": F(3, 4), "x": F(1, 4)}]
    sigma = MixedProfile(CUSTOM, dists)
    assert [list(d.items()) for d in sigma.distributions] == [
        [(s, d[s]) for s in strats if s in d]
        for d, strats in zip(dists, CUSTOM.strategy_sets)]
    assert sigma.distributions == tuple(dists)  # equal values
    assert [sigma.support(i) for i in range(3)] == [("a", "b"), (F(1, 2),), ("x", "y")]
    assert repr(sigma) == ("MixedProfile([{'a': 1/3, 'b': 2/3}, {Fraction(1, 2): 1}, "
                           "{'x': 1/4, 'y': 3/4}])")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_table_is_shared_across_profiles(data):
    for _ in range(8):
        assert_matches_oracle(data.draw(mixtures(SHARED)))
    profiles = list(SHARED.profiles())
    for i, (row, scale) in enumerate(zip(SHARED._table, SHARED._scales)):
        assert len(row) <= SHARED.profile_count()
        for k, num in row.items():
            assert F(num, scale) == SHARED.payoff(profiles[k], i)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_coherence_structures_and_te_match_oracle(game, data):
    sigma = data.draw(mixtures(game))
    assert (make_coherence_checker(game)(sigma)
            == oracle.coherence(game, sigma))
    assert (outcome(build_coherent_structure, game, sigma)
            == outcome(oracle.build_coherent_structure, game, sigma))
    m = build_coherent_structure(game, sigma, strict=False)
    want = oracle.build_coherent_structure(game, sigma, strict=False)
    assert m.closest_columns == want.closest_columns
    assert m.beliefs == want.beliefs
    assert te_in_structure(m, sigma) == oracle.te_in_structure(m, sigma)


def scaled(game):
    """The same strategy sets with another payoff rule."""
    def rule(profile, i):
        return 2 - 3 * to_exact(game.payoff_rule(profile, i)) + i
    return NormalFormGame(game.num_players, game.strategy_sets, rule)


def assert_rationality_matches_oracle(m):
    for i in range(m.num_players):
        for k in range(m.num_states):
            assert outcome(is_rational_at, m, i, k) == outcome(oracle.is_rational_at, m, i, k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GAMES), st.data())
def test_rationality_after_replace_reads_the_new_fields(game, data):
    m = build_coherent_structure(game, data.draw(mixtures(game)), strict=False)
    assert_rationality_matches_oracle(m)  # fills m's cached index
    assert_rationality_matches_oracle(m._replace(game=scaled(game)))
    assert_rationality_matches_oracle(m._replace(states=tuple(reversed(m.states))))
    assert_rationality_matches_oracle(m)


# ---------------------------------------------------------------------------
# error paths, with the oracle's exception type and text


def pd_structure():
    d = make_prisoners_dilemma(4, 1)
    sigma = MixedProfile(d.game, [{"C": F(1, 3), "D": F(2, 3)}] * 2)
    return build_coherent_structure(d, sigma, strict=False), sigma


def every_utility(m, lib=cf):
    """Every utility entry point of ``lib`` (the library or the oracle) at
    every (player, state, strategy), as outcomes."""
    out = []
    for i in range(m.num_players):
        for k in range(m.num_states):
            out.append(outcome(lib.is_rational_at, m, i, k))
            out.append(outcome(lib.eu_at_state, m, i, k))
            for s in m.strategy_sets[i]:
                out.append(outcome(lib.eu_at_state_switch, m, i, k, s))
    return out


def test_structure_without_game():
    m, sigma = pd_structure()
    m = m._replace(game=None)
    got = every_utility(m)
    assert got == every_utility(m, oracle)
    assert set(got) == {("raised", ValueError,
                         "structure has no attached game; utilities need one")}
    assert (outcome(te_in_structure, m, sigma)
            == outcome(oracle.te_in_structure, m, sigma)
            == got[0])


@pytest.mark.parametrize("bad", [("C", "X"), ("X", "D"), ("X", "Y"), ("C",),
                                 ("C", "D", "C")])
def test_state_off_the_game(bad):
    m, _ = pd_structure()
    states = list(m.states)
    states[1] = bad  # believed in by player 0 at states 0 and 1
    m = m._replace(states=tuple(states))
    got = every_utility(m)
    assert got == every_utility(m, oracle)
    assert any(r[0] == "raised" for r in got)
    assert any(r[0] == "ok" for r in got)


def test_missing_closest_entry():
    intact, _ = pd_structure()
    columns = dict(intact.closest_columns)
    column = list(columns[(0, 1)])
    column[0] = MISSING
    columns[(0, 1)] = tuple(column)
    m = intact._replace(closest_columns=columns)
    for _ in range(2):  # with the game's payoff table filling up, then full
        got = every_utility(m)
        assert got == every_utility(m, oracle)
        assert ("raised", ValueError, "closest-state entry missing for state 0, "
                "player 0, strategy 'D'") in got
        every_utility(intact)


# player 0's cell at state 0 believes in states 0 and 1; its switches are
# 'C' (column (0, 0)) then 'D' (column (0, 1)); state 3 is moved off the
# game, and each case edits the two columns at the cell's sources
MISSING_AND_OFF_GAME = {
    "missing, then off the game": (
        {(0, 0): {0: MISSING}, (0, 1): {0: 3, 1: 3}},
        "closest-state entry missing for state 0, player 0, strategy 'C'"),
    "off the game, then missing": (
        {(0, 0): {0: 3}, (0, 1): {1: MISSING}},
        "'X' is not a strategy of player 1"),
    "one switch, off the game at the first source": (
        {(0, 1): {0: 3, 1: MISSING}},
        "closest-state entry missing for state 1, player 0, strategy 'D'"),
}


@pytest.mark.parametrize("name", MISSING_AND_OFF_GAME)
def test_first_error_of_a_cell(name):
    """A missing closest-state entry and a target off the game in one cell:
    the switches raise in plan order, and inside one switch the missing
    entry comes first, as in the oracle."""
    edits, first = MISSING_AND_OFF_GAME[name]
    intact, sigma = pd_structure()
    columns = dict(intact.closest_columns)
    for key, entries in edits.items():
        column = list(columns[key])
        for source, target in entries.items():
            column[source] = target
        columns[key] = tuple(column)
    states = list(intact.states)
    states[3] = ("D", "X")
    m = intact._replace(states=tuple(states), closest_columns=columns)
    for _ in range(2):  # with the game's payoff table empty, then full
        got = [outcome(is_rational_at, m, 0, 0), outcome(te_in_structure, m, sigma)]
        assert got == [outcome(oracle.is_rational_at, m, 0, 0),
                       outcome(oracle.te_in_structure, m, sigma)]
        assert got == [("raised", ValueError, first)] * 2
        for s in m.strategy_sets[0]:
            assert (outcome(cf.eu_at_state_switch, m, 0, 0, s)
                    == outcome(oracle.eu_at_state_switch, m, 0, 0, s))
        assert every_utility(m) == every_utility(m, oracle)
        every_utility(intact)


@pytest.mark.parametrize("strategy", ["Z", "x", F(1, 2), None, []])
def test_expected_payoff_of_a_non_strategy(strategy):
    sigma = MixedProfile(CUSTOM, [{"a": F(1, 2), "b": F(1, 2)}, {F(1, 2): 1},
                                  {"x": F(1, 3), "y": F(2, 3)}])
    got = outcome(sigma.expected_payoff, 0, strategy)
    assert got == outcome(oracle.expected_payoff, sigma, 0, strategy)
    assert got == ("raised", ValueError,
                   f"{strategy!r} is not a strategy of player 0")


# ---------------------------------------------------------------------------
# two_point and the kernels against the former __init__ route

# hand-built dilemmas on the custom game: a profile off the game, player 0
# cooperating and defecting alike, an unhashable strategy
OFF_GAME = [
    SocialDilemma(CUSTOM, "custom", {}, ("b", F(0), "y"), ("a", F(7), "x")),
    SocialDilemma(CUSTOM, "custom", {}, ("b", F(0), "z"), ("a", F(1), "x")),
    SocialDilemma(CUSTOM, "custom", {}, ("a", F(0), "y"), ("a", F(1), "x")),
    SocialDilemma(CUSTOM, "custom", {}, ("b", F(0), "y"), (["a"], F(1), "x")),
]
DILEMMAS = [
    make_prisoners_dilemma(4, 1),
    make_travelers_dilemma(2, 7, 3),
    make_public_goods(3, F(3, 5), grid=2),
    make_public_goods(4, F(2, 5), grid=1),
    make_bertrand(3, 2, 5),
    # cooperating at a lower position than defecting
    SocialDilemma(CUSTOM, "custom", {}, ("b", F(1), "y"), ("a", F(0), "x")),
] + OFF_GAME
BETAS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.sampled_from([0, 1, F(0), F(1), 0.5, 0.1, 1.0, 0.0, "1/3"]),
    st.floats(0, 1),
    st.sampled_from([F(-1, 3), F(4, 3), 1.5, None, "x", True]),
)


def items(sigma):
    """Every distribution's items in dict order, with the types."""
    return [[(s, type(s), p, type(p)) for s, p in d.items()]
            for d in sigma.distributions]


def positions_error(d):
    """``_positions``' error on a hand-built dilemma, or None."""
    got = outcome(lambda: d._positions)
    return None if got[0] == "ok" else got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DILEMMAS), st.data())
def test_two_point_matches_the_init_route(d, data):
    n = d.num_players
    size = n if data.draw(st.integers(0, 9)) else n + data.draw(st.sampled_from([-1, 1]))
    betas = data.draw(st.lists(BETAS, min_size=size, max_size=size))
    got = outcome(MixedProfile.two_point, d, betas)
    want = outcome(oracle.two_point, d, betas)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        # a strategy off the game is reported whatever the betas are
        assert positions_error(d) in (None, got)
        return
    sigma, former = got[1], want[1]
    assert items(sigma) == items(former)
    assert sigma._kernels == [k[1:] for k in oracle.kernels(former)]
    assert former._kernels == [k[1:] for k in oracle.kernels(former)]
    for i, strats in enumerate(d.game.strategy_sets):
        assert sigma.support(i) == former.support(i) == tuple(
            s for s in strats if s in former.distributions[i])
        for s in strats:
            assert sigma.expected_payoff(i, s) == oracle.expected_payoff(former, i, s)


# the hand-built dilemmas with a strategy off the game, and the error each
# raises
OFF_GAME_ERRORS = {
    "welfare": (OFF_GAME[0], ("raised", ValueError,
                              "Fraction(7, 1) is not a strategy of player 1")),
    "nash": (OFF_GAME[1], ("raised", ValueError, "'z' is not a strategy of player 2")),
    "unhashable": (OFF_GAME[3], ("raised", ValueError,
                                 "['a'] is not a strategy of player 0")),
}
ANY_BETAS = ([F(1, 2)] * 3, [0] * 3, [1] * 3, [F(4, 3)] * 3, ["x"] * 3,
             [None, 0, 0], [F(1, 2)] * 2, [])


@pytest.mark.parametrize("nash, welfare, error", [
    (("b", F(0), "y"), ("a", F(1)),
     "welfare profile ('a', Fraction(1, 1)) has length 2 for 3 players"),
    (("b",), ("a", F(1), "x"), "Nash profile ('b',) has length 1 for 3 players"),
    (("b", F(0), "y", "y"), ("a",),
     "Nash profile ('b', Fraction(0, 1), 'y', 'y') has length 4 for 3 players"),
])
def test_profile_of_another_length_is_refused(nash, welfare, error):
    """A Nash or welfare profile must name one strategy per player, or the
    dilemma is not built (the first reader would fail on a bare index)."""
    with pytest.raises(ValueError) as raised:
        SocialDilemma(CUSTOM, "custom", {}, nash, welfare)
    assert str(raised.value) == error


@pytest.mark.parametrize("name", OFF_GAME_ERRORS)
def test_two_point_off_the_game_still_raises(name):
    d, error = OFF_GAME_ERRORS[name]
    assert positions_error(d) == error
    for betas in ANY_BETAS:
        assert outcome(MixedProfile.two_point, d, betas) == error
        assert outcome(oracle.two_point, d, betas) == error


@pytest.mark.parametrize("name", OFF_GAME_ERRORS)
def test_off_the_game_raises_one_error_everywhere(name):
    """``two_point`` with any betas, the scanner for every player and every
    count multiset raise ``_positions``' error, before anything else."""
    d, error = OFF_GAME_ERRORS[name]
    n = d.num_players
    for betas in ANY_BETAS:
        assert outcome(MixedProfile.two_point, d, betas) == error
    for i in range(n):
        assert outcome(CooperationScanner, d, i) == error
        for k in range(n):
            assert outcome(d._count_multiset, i, k) == error
