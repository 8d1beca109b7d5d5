"""The structure builders, the punishment search and the JSON writer
against their profile-lookup oracles.

The Nash and coherence builders read one layout per game (profiles,
strategy positions, punished states) and hand the positions to the
structure, ``minimize_payoff`` memoises one search per (player, strategy)
on the game, ``is_rational_at`` reads payoffs from the game's table and
``structure_to_json`` formats each measure object once; ``structure_oracle``
keeps the forms that hash every profile, rerun every search and format
every entry.  The comparisons cover the criterion-3 pool, the typed games
and a non-symmetric custom game whose players have strategy sets of
different sizes; builds on one game must check the budget on every call,
and every structure's closest-state map and measures refuse edits.  A
read-only measure's integer form equals ``common_denominator`` of its
values up to a factor, gives the verdicts of a plain-dict copy, and is made
again in a copy or a pickle.
"""

import copy
import itertools
import json
import pickle
from fractions import Fraction as F
from operator import delitem, setitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from test_counterfactual import matching_pennies
from test_structure_oracle import POOL, TYPED, exact, levels, outcome, with_measure
from translucent import counterfactual
from translucent.counterfactual import (
    build_coherent_structure,
    build_nash_structure,
    build_typed_dilemma_structure,
    is_rational_at,
    structure_from_json,
    structure_to_json,
)
from translucent.equilibrium import te_in_structure
from translucent.exact import common_denominator
from translucent.games import (
    BudgetExceededError,
    MixedProfile,
    NormalFormGame,
    SocialDilemma,
    enumerate_pure_nash,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
    minimize_payoff,
)

SETS = (("a", "b"), (F(0), F(1, 2), F(1)), ("x", "y"))


def custom_rule(profile, i):
    """Non-symmetric payoffs with many ties, so the first minimiser matters."""
    k = [SETS[j].index(s) for j, s in enumerate(profile)]
    return F((k[0] * 3 + k[1] * 2 + k[2] * (i + 2) + i) % 5, i + 1)


def custom_game():
    return NormalFormGame(3, SETS, custom_rule)


CUSTOM = custom_game()
# build_typed_dilemma_structure reads only the game and the two profiles; in
# the second, player 0 cooperates and defects alike, so belief entries land
# on the same state twice and add up
CUSTOM_TYPED = [
    SocialDilemma(CUSTOM, "custom", {}, ("b", F(0), "y"), ("a", F(1), "x")),
    SocialDilemma(CUSTOM, "custom", {}, ("a", F(0), "y"), ("a", F(1), "x")),
]
TYPED_GAMES = TYPED + CUSTOM_TYPED + [make_public_goods(4, F(2, 5), grid=1),
                                      make_bertrand(3, 2, 6)]


def partition(per_state):
    """Which states share one measure object, as first-seen object numbers."""
    seen: dict = {}
    return [seen.setdefault(id(dist), len(seen)) for dist in per_state]


def assert_same_structure(got, want):
    assert got.strategy_sets == want.strategy_sets
    assert got.states == want.states
    assert got.aux == want.aux
    assert list(got.closest_columns) == list(want.closest_columns)
    assert got.closest_columns == want.closest_columns
    assert got.game is want.game
    # the builder hands over its strategy positions; the oracle's structure
    # computes them by hashing every state's strategies
    assert got._profile_index == want._profile_index
    assert len(got.beliefs) == len(want.beliefs)
    for mine, theirs in zip(got.beliefs, want.beliefs):
        # key insertion order included: PR1/PR2 report in that order
        assert ([[(t, p, type(p)) for t, p in dist.items()] for dist in mine]
                == [[(t, p, type(p)) for t, p in dist.items()] for dist in theirs])
        assert partition(mine) == partition(theirs)


def assert_same_json(got, want):
    text = json.dumps(structure_to_json(got))
    assert text == json.dumps(oracle.structure_to_json(want))
    for game in (got.game, None):
        parsed = structure_from_json(text, game=game)
        assert (json.dumps(structure_to_json(parsed))
                == json.dumps(oracle.structure_to_json(parsed)) == text)


@st.composite
def mixed_profiles(draw, game):
    """A profile with a random support and random weights per player."""
    distributions = []
    for strats in game.strategy_sets:
        support = draw(st.lists(st.sampled_from(strats), min_size=1,
                                max_size=len(strats), unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                max_size=len(support)))
        distributions.append({s: F(w, sum(weights))
                              for s, w in zip(support, weights)})
    return MixedProfile(game, distributions)


@st.composite
def coherent_cases(draw):
    if draw(st.integers(0, 3)) == 0:
        return CUSTOM, draw(mixed_profiles(CUSTOM))
    d = draw(st.sampled_from(POOL))
    betas = draw(st.lists(levels, min_size=d.num_players,
                          max_size=d.num_players))
    return d, MixedProfile.two_point(d, betas)


@settings(max_examples=120, deadline=None)
@given(coherent_cases(), st.booleans())
def test_coherent_builder_matches_oracle(case, strict):
    game, sigma = case
    got = outcome(lambda: build_coherent_structure(game, sigma, strict=strict))
    want = outcome(lambda: oracle.build_coherent_structure(game, sigma,
                                                           strict=strict))
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    assert_same_structure(got[1], want[1])
    assert_same_json(got[1], want[1])


def nash_profiles():
    """Pure equilibria of the pool and the custom game, and mixed ones of
    matching pennies; plus profiles that are not equilibria."""
    pennies = NormalFormGame(
        2, (("H", "T"), ("H", "T")),
        lambda p, i: (1 if p[0] == p[1] else -1) * (1 if i == 0 else -1))
    cases = [(pennies, MixedProfile(pennies, [{"H": F(1, 2), "T": F(1, 2)}] * 2)),
             (pennies, MixedProfile.pure(pennies, ("H", "T")))]
    for game in [d.game for d in POOL] + [CUSTOM]:
        for profile in enumerate_pure_nash(game):
            cases.append((game, MixedProfile.pure(game, profile)))
        cases.append((game, MixedProfile.pure(
            game, tuple(strats[-1] for strats in game.strategy_sets))))
    cases.append((CUSTOM, MixedProfile(CUSTOM, [
        {"a": F(1, 3), "b": F(2, 3)}, {F(1, 2): F(1)}, {"x": F(1, 2), "y": F(1, 2)}])))
    return cases


@pytest.mark.parametrize("game,sigma", nash_profiles())
def test_nash_builder_matches_oracle(game, sigma):
    got = outcome(build_nash_structure, game, sigma)
    want = outcome(oracle.build_nash_structure, game, sigma)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    assert_same_structure(got[1], want[1])
    assert_same_json(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TYPED_GAMES), st.data())
def test_typed_builder_matches_oracle(d, data):
    n = d.num_players
    alphas = data.draw(st.lists(levels, min_size=n, max_size=n))
    betas = data.draw(st.lists(levels, min_size=n, max_size=n))
    got = build_typed_dilemma_structure(d, alphas, betas)
    want = oracle.build_typed_dilemma_structure(d, alphas, betas)
    assert_same_structure(got, want)
    assert_same_json(got, want)


def test_typed_builder_adds_up_repeated_targets():
    d = CUSTOM_TYPED[1]
    m = build_typed_dilemma_structure(d, [F(1, 2)] * 3, [F(1, 4)] * 3)
    # player 1 sees player 0 at "a" whichever way player 0 is drawn
    assert all(sum(dist.values()) == 1 for dist in m.beliefs[1])
    assert_same_structure(m, oracle.build_typed_dilemma_structure(
        d, [F(1, 2)] * 3, [F(1, 4)] * 3))


def test_json_entries_do_not_alias():
    d = POOL[2]
    m = build_coherent_structure(d, MixedProfile.two_point(d, [F(1, 2)] * 3))
    doc = structure_to_json(m)
    dists = [entry["dist"] for entry in doc["beliefs"]]
    assert len({id(dist) for dist in dists}) == len(dists)
    shared = [k for k, dist in enumerate(m.beliefs[0]) if dist is m.beliefs[0][0]]
    assert len(shared) > 1  # one measure object behind several entries
    dists[shared[0]]["0"] = "edited"
    assert all(dists[k] != dists[shared[0]] for k in shared[1:])


# ---------------------------------------------------------------------------
# the punishment memo


def fresh_games():
    """Games whose memo is empty: symmetric dilemmas and the custom game."""
    return [make_prisoners_dilemma(4, 1).game,
            make_public_goods(3, F(3, 5), grid=2).game,
            make_bertrand(3, 2, 5).game,
            make_travelers_dilemma(2, 7, 3).game,
            custom_game()]


@pytest.mark.parametrize("game", fresh_games(), ids=lambda g: g.name)
def test_minimize_payoff_matches_oracle(game):
    for _ in range(2):  # a miss, then a hit
        for i, strats in enumerate(game.strategy_sets):
            for s in strats:
                got = minimize_payoff(game, i, s)
                want = oracle.minimize_payoff(game, i, s)
                assert got == want
                assert [type(x) for x in got[1]] == [type(x) for x in want[1]]


@pytest.mark.parametrize("game", fresh_games(), ids=lambda g: g.name)
def test_budget_is_checked_on_a_memo_hit(game):
    s = game.strategy_sets[1][0]
    minimize_payoff(game, 1, s)
    got = outcome(minimize_payoff, game, 1, s, 1)
    assert got[:2] == ("raised", BudgetExceededError)
    assert got == outcome(oracle.minimize_payoff, game, 1, s, 1)


@pytest.mark.parametrize("strategy", ["z", F(1, 3), [0]])
def test_non_strategy_raises_as_before(strategy):
    game = custom_game()
    for _ in range(2):  # with an empty memo, then with a full one
        got = outcome(minimize_payoff, game, 1, strategy)
        assert got[:2] == ("raised", ValueError)
        assert got == outcome(oracle.minimize_payoff, game, 1, strategy)
        for s in game.strategy_sets[1]:
            minimize_payoff(game, 1, s)


def test_player_out_of_range_is_an_index_error():
    # as payoff() and strategy_index() raise for a player out of range
    with pytest.raises(IndexError):
        minimize_payoff(custom_game(), 3, "a")


@pytest.mark.parametrize("game", fresh_games(), ids=lambda g: g.name)
def test_budget_is_checked_on_a_layout_hit(game):
    first = tuple(strats[0] for strats in game.strategy_sets)
    sigma = MixedProfile.pure(game, first)
    build_coherent_structure(game, sigma, strict=False)
    assert "_layout" in vars(game)
    budget = game.profile_count() - 1
    for strict in (True, False):
        got = outcome(lambda: build_coherent_structure(
            game, sigma, strict=strict, budget=budget))
        assert got[:2] == ("raised", BudgetExceededError)
        assert got == outcome(lambda: oracle.build_coherent_structure(
            game, sigma, strict=strict, budget=budget))
    for profile in enumerate_pure_nash(game):
        nash = MixedProfile.pure(game, profile)
        got = outcome(lambda: build_nash_structure(game, nash, budget=budget))
        assert got[:2] == ("raised", BudgetExceededError)
        assert got == outcome(lambda: oracle.build_nash_structure(
            game, nash, budget=budget))


def assert_read_only(m):
    """Assignment, deletion, ``clear`` and ``update`` on the closest-state
    map and on every measure raise TypeError and change nothing."""
    maps = [m.closest_columns, *(dist for per_state in m.beliefs for dist in per_state)]
    kept = [dict(x) for x in maps]
    for x in maps:
        key = next(iter(x), 0)
        for edit, args in ((setitem, (x, key, ())), (delitem, (x, key)),
                           (type(x).clear, (x,)), (type(x).update, (x, {key: ()}))):
            with pytest.raises(TypeError, match="read-only"):
                edit(*args)
    assert [dict(x) for x in maps] == kept


@pytest.mark.parametrize("game", fresh_games(), ids=lambda g: g.name)
def test_builds_refuse_in_place_edits(game):
    """Builds on one game, their JSON round trips and copies with a plain
    closest-state dict all refuse edits, and the builds equal the oracle's."""
    nash = MixedProfile.pure(game, enumerate_pure_nash(game)[0])
    mixed = MixedProfile(game, [{strats[0]: F(1, 2), strats[-1]: F(1, 2)}
                                for strats in game.strategy_sets])
    for build, sigma in ((build_nash_structure, nash),
                         (build_coherent_structure, mixed)):
        kwargs = {} if build is build_nash_structure else {"strict": False}
        m = build(game, sigma, **kwargs)
        assert_read_only(m)
        assert_read_only(structure_from_json(structure_to_json(m), game=game))
        assert_read_only(m._replace(closest_columns=dict(m.closest_columns)))
        oracle_build = getattr(oracle, build.__name__)
        assert_same_structure(m, oracle_build(game, sigma, **kwargs))
        assert_same_structure(build(game, sigma, **kwargs), m)


@pytest.mark.parametrize("d", TYPED_GAMES[:5], ids=lambda d: d.kind)
def test_typed_builds_refuse_in_place_edits(d):
    m = build_typed_dilemma_structure(d, [F(1, 2)] * d.num_players,
                                      [F(1, 4)] * d.num_players)
    assert_read_only(m)
    assert_read_only(structure_from_json(structure_to_json(m)))


@pytest.mark.parametrize("build", ["coherent", "typed", "parsed"])
def test_copies_keep_the_type_the_sharing_and_the_verdicts(build):
    """``deepcopy`` and a ``pickle`` round trip (without the game, whose
    payoff rule is a closure) rebuild the structure through its constructor:
    read-only maps and measures, each measure shared by the same states, an
    empty memo, and every verdict of the original."""
    d = POOL[4]  # bertrand (2, 2, 6)
    sigma = MixedProfile.two_point(d, [F(1, 2), F(3, 4)])
    if build == "typed":
        m = build_typed_dilemma_structure(d, [F(1, 2)] * 2, [F(1, 2), F(3, 4)])
    else:
        m = build_coherent_structure(d, sigma, strict=False)
        if build == "parsed":
            m = structure_from_json(structure_to_json(m), game=d.game)
    states = range(m.num_states)
    verdicts = [[is_rational_at(m, i, k) for k in states] for i in range(2)]
    pickled = pickle.loads(pickle.dumps(m._replace(game=None)))._replace(game=d.game)
    for twin in (copy.deepcopy(m), pickled):
        assert twin == m and "_reports" not in vars(twin)
        assert_read_only(twin)
        assert [list(map(partition, x.beliefs)) for x in (twin, m)] == [
            list(map(partition, m.beliefs))] * 2
        assert [[is_rational_at(twin, i, k) for k in states] for i in range(2)] == verdicts
        assert te_in_structure(twin, sigma) == te_in_structure(m, sigma)
        assert structure_to_json(twin) == structure_to_json(m)


def plain_measures(m):
    """``m`` with each measure object copied once into a plain dict, so the
    states keep sharing it."""
    copies: dict = {}
    for dist in {id(dist): dist for per_state in m.beliefs for dist in per_state}.values():
        copies[id(dist)] = dict(dist)
    return m._replace(beliefs=tuple(tuple(copies[id(dist)] for dist in per_state)
                                    for per_state in m.beliefs))


def integer_form_cases():
    """(name, structure, its game, a profile for TE1-TE4) from each builder
    and the parser."""
    game = matching_pennies()
    half = MixedProfile(game, [{"H": F(1, 2), "T": F(1, 2)}] * 2)
    pgg = POOL[2]  # public goods (3, 3/5, grid 2)
    betas = [F(1, 3), F(3, 4), 1]
    sigma = MixedProfile.two_point(pgg, betas)
    coherent = build_coherent_structure(pgg, sigma, strict=False)
    d = TYPED[3]  # bertrand (2, 2, 5)
    typed_sigma = MixedProfile.two_point(d, [F(1, 2), F(2, 3)])
    return [
        ("nash", build_nash_structure(game, half), game, half),
        ("coherent", coherent, pgg.game, sigma),
        ("typed", build_typed_dilemma_structure(d, [F(1, 4), F(3, 5)], [F(1, 2), F(2, 3)]),
         d.game, typed_sigma),
        ("parsed", structure_from_json(json.dumps(structure_to_json(coherent)), game=pgg.game),
         pgg.game, sigma),
    ]


@pytest.mark.parametrize("name,m,game,sigma", integer_form_cases(),
                         ids=lambda case: case if isinstance(case, str) else "")
def test_integer_form_is_the_common_denominator(name, m, game, sigma):
    """Every measure's integer form is ``common_denominator`` of its values
    up to one positive factor; a read-only measure keeps one form, and a
    structure whose measures are plain-dict copies gives the same reports."""
    measures = {id(dist): dist for per_state in m.beliefs for dist in per_state}
    for dist in measures.values():
        form = counterfactual._integer_form(dist)
        sources, weights, den = form
        least, least_den = common_denominator(dist.values())
        assert sources == list(dist) and den % least_den == 0
        assert list(weights) == [w * (den // least_den) for w in least]
        assert counterfactual._integer_form(dist) is form
    twin = plain_measures(m)
    assert counterfactual.validate_structure(twin) == counterfactual.validate_structure(m)
    for i in range(m.num_players):
        for k in range(m.num_states):
            assert is_rational_at(twin, i, k) == is_rational_at(m, i, k)
            assert counterfactual.eu_at_state(twin, i, k) == counterfactual.eu_at_state(m, i, k)
            for s in m.strategy_sets[i]:
                assert (counterfactual.eu_at_state_switch(twin, i, k, s)
                        == counterfactual.eu_at_state_switch(m, i, k, s))
    assert te_in_structure(twin, sigma) == te_in_structure(m, sigma)


@pytest.mark.parametrize("name,m,game,sigma", integer_form_cases(),
                         ids=lambda case: case if isinstance(case, str) else "")
def test_copies_rebuild_the_integer_form(name, m, game, sigma):
    """A measure copied or pickled, alone or with its structure, comes back
    without the form; it is made again on first read, from its values."""
    reports = [[is_rational_at(m, i, k) for k in range(m.num_states)]
               for i in range(m.num_players)]
    for dist in {id(dist): dist for per_state in m.beliefs for dist in per_state}.values():
        counterfactual._integer_form(dist)
        for twin in (copy.copy(dist), copy.deepcopy(dist), pickle.loads(pickle.dumps(dist))):
            assert type(twin) is type(dist) and twin == dist
            assert not hasattr(twin, "_form")
            assert counterfactual._integer_form(twin) == (
                list(dist), *common_denominator(dist.values()))
    pickled = pickle.loads(pickle.dumps(m._replace(game=None)))._replace(game=game)
    for twin in (copy.deepcopy(m), pickled):
        assert not any(hasattr(dist, "_form") for per_state in twin.beliefs
                       for dist in per_state)
        assert [[is_rational_at(twin, i, k) for k in range(m.num_states)]
                for i in range(m.num_players)] == reports
        assert te_in_structure(twin, sigma) == te_in_structure(m, sigma)


def test_column_cache_across_alternating_supports():
    """Coherent builds on one game share each (player, support)'s columns,
    filled on first use, and the point masses off the support; every build
    equals the oracle's and keeps a ``closest_columns`` map and the
    support's measures of its own."""
    game = custom_game()
    sigmas = [
        MixedProfile(game, [{"a": F(1, 2), "b": F(1, 2)}, {F(0): F(1)},
                            {"x": F(1, 3), "y": F(2, 3)}]),
        MixedProfile(game, [{"b": F(1)}, {F(1, 2): F(1, 4), F(1): F(3, 4)},
                            {"y": F(1)}]),
        MixedProfile(game, [{"a": F(1, 5), "b": F(4, 5)}, {F(0): F(1, 3), F(1): F(2, 3)},
                            {"x": F(1)}]),
    ]
    assert game._support_columns == {}
    first = {}  # support index -> (structure, its columns before the edit)
    for k in (0, 1, 0, 2, 1, 2, 0):
        sigma = sigmas[k]
        m = build_coherent_structure(game, sigma, strict=False)
        assert_same_structure(m, oracle.build_coherent_structure(
            game, sigma, strict=False))
        columns = dict(m.closest_columns)
        if k in first:
            earlier, earlier_columns = first[k]
            assert m.closest_columns is not earlier.closest_columns
            assert all(columns[key] is earlier_columns[key] for key in columns)
            assert all(x is not y or x is game._point_masses[k]
                       for mine, theirs in zip(m.beliefs, earlier.beliefs)
                       for k, (x, y) in enumerate(zip(mine, theirs)))
        else:
            first[k] = m, columns
    # distinct supports: two of player 0's ({a, b} twice), three of 1's and 2's
    assert len(game._support_columns) == 8


def test_column_cache_keeps_a_bounded_number_of_supports():
    """Every nonempty support of every player, round robin, twice: 13
    (player, support) keys against room for four supports per player, so
    the oldest columns are dropped and built again, equal to the oracle's."""
    game = custom_game()
    subsets = [[sub for k in range(1, len(strats) + 1)
                for sub in itertools.combinations(strats, k)]
               for strats in game.strategy_sets]
    bound = counterfactual._SUPPORTS_KEPT * game.num_players
    assert sum(map(len, subsets)) > bound
    for r in range(2 * max(map(len, subsets))):
        sigma = MixedProfile(game, [{s: F(1, len(sub)) for s in sub}
                                    for sub in (subs[r % len(subs)] for subs in subsets)])
        assert_same_structure(
            build_coherent_structure(game, sigma, strict=False),
            oracle.build_coherent_structure(game, sigma, strict=False))
        assert len(game._support_columns) <= bound


def test_coherent_builds_share_one_search():
    game = custom_game()
    sigma = MixedProfile(game, [{"a": F(1)}, {F(0): F(1)}, {"x": F(1)}])
    build_coherent_structure(game, sigma, strict=False)
    calls = []
    rule = game.payoff_rule
    object.__setattr__(game, "payoff_rule",
                       lambda p, i: calls.append(p) or rule(p, i))
    m = build_coherent_structure(game, sigma, strict=False)
    assert calls == []
    assert_same_structure(m, oracle.build_coherent_structure(
        game, sigma, strict=False))


# ---------------------------------------------------------------------------
# the per-structure payoff memo


def rational_everywhere(m):
    m_exact = exact(m)
    for k, i in itertools.product(range(m.num_states), range(m.num_players)):
        assert (outcome(is_rational_at, m, i, k)
                == outcome(oracle.is_rational_at, m_exact, i, k))


def test_payoff_memo_follows_replace_and_edited_measures():
    d = POOL[2]
    m = build_coherent_structure(d, MixedProfile.two_point(d, [F(3, 4)] * 3),
                                 strict=False)
    rational_everywhere(m)
    # same strategies, other payoffs: a new structure with a memo of its own
    other = make_public_goods(3, F(1, 2), grid=2).game
    rational_everywhere(m._replace(game=other))
    # states reversed: each state now plays another profile, and the copy
    # computes its own positions instead of keeping the builder's
    reversed_states = m._replace(states=m.states[::-1])
    assert reversed_states._profile_index[0] == tuple(
        column[::-1] for column in m._profile_index[0])
    rational_everywhere(reversed_states)
    # shift mass inside one shared measure, in a copy with one edited plain
    # dict wherever it is used, so its whole cell changes
    dist = m.beliefs[0][0]
    first, last = list(dist)[0], list(dist)[-1]
    edited = with_measure(m, 0, dist, {**dist, first: dist[first] + dist[last] / 2,
                                       last: dist[last] / 2})
    rational_everywhere(edited)
    rational_everywhere(edited._replace(game=other))


def test_plain_dict_measures_are_judged_on_every_call():
    """A caller's structure with a plain dict per state, edited in place
    after a judgement, is judged again and matches the oracle: only
    read-only measures are memoised."""
    d = POOL[0]  # pd (4, 1)
    m = exact(build_coherent_structure(d, MixedProfile.two_point(d, [F(1, 2)] * 2),
                                       strict=False))
    k = next(k for k, p in enumerate(m.states) if p == ("C", "C"))
    dist = m.beliefs[0][k]
    before = is_rational_at(m, 0, k)
    assert before == oracle.is_rational_at(m, 0, k) and before.rational
    for t in list(dist):  # all the mass on the state where the other defects
        dist[t] = F(m.states[t][1] == "D")
    after = is_rational_at(m, 0, k)
    assert after == oracle.is_rational_at(m, 0, k) and after != before
    assert not m._reports


def test_payoff_memo_on_typed_structure_after_replace():
    d = make_public_goods(3, F(3, 5), grid=1)
    m = build_typed_dilemma_structure(d, [F(1, 4), F(1, 2), F(3, 4)],
                                      [F(3, 4), F(1, 2), F(1, 4)])
    rational_everywhere(m)
    rational_everywhere(m._replace(game=make_public_goods(3, F(9, 10), grid=1).game))
