"""The structure checks against their per-state oracle.

``counterfactual`` validates per belief cell and sums expected utilities on
integers, and ``te_in_structure`` judges each (player, measure, own
strategy) once; ``structure_oracle`` keeps the plain per-state forms.
Property tests compare the two on built and JSON-round-tripped typed and
coherent structures, on single-axiom mutations of them, and on the
criterion-3 pool profiles; TE1-TE4 also on structures whose states leave
the game or whose strategy lists are not in the game's order.
``is_rational_at`` keeps one report per belief cell, so every state is
judged twice, and again after an in-place edit of a judged measure, after a
replaced closest-state column and after a caller changed a returned
``eu_switch``.  The parser,
which shares one measure object among entries with equal ``dist`` objects,
is compared with the per-entry parser on built, mutated and hand-edited
documents, malformed ones included (indices out of range, not JSON
integers or missing, unreadable probabilities and dist keys).  The library takes float probabilities at
their exact values, so the oracle is run on the same structure with its
measures converted by ``to_exact``.
"""

import ast
import inspect
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from translucent.counterfactual import (
    MISSING,
    build_coherent_structure,
    build_typed_dilemma_structure,
    derived_beliefs,
    eu_at_state,
    eu_at_state_switch,
    is_rational_at,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from translucent.equilibrium import (TeStructureReport, make_coherence_checker,
                                    te_in_structure)
from translucent.exact import InputError, to_exact
from translucent.games import (
    MixedProfile,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

TYPED = [
    make_prisoners_dilemma(4, 1),
    make_travelers_dilemma(2, 5, 2),
    make_public_goods(3, F(3, 5), grid=1),
    make_bertrand(2, 2, 5),
]
# criterion 3's pool
POOL = [
    make_prisoners_dilemma(4, 1),
    make_prisoners_dilemma(F(3, 2), 1),
    make_public_goods(3, F(3, 5), grid=2),
    make_public_goods(4, F(2, 5), grid=1),
    make_bertrand(2, 2, 6),
    make_bertrand(3, 2, 5),
    make_travelers_dilemma(2, 7, 3),
    make_travelers_dilemma(2, 5, 1),
]
LEVELS = [F(0), F(1)] + [F(k, 8) for k in range(1, 8)]
MUTATIONS = ("CS1", "CS2", "PR1", "PR2", "NORM", "zero_mass", "reorder",
             "int", "float", "in_place")

levels = st.sampled_from(LEVELS)


def outcome(fn, *args):
    """A call's value, or its exception's type and text."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, not swallowed
        return ("raised", type(exc), str(exc))


@st.composite
def structures(draw):
    """A typed or coherent structure with its two-point profile, as built
    (cells share one measure object) or after a JSON round trip (every
    state has a dict of its own)."""
    if draw(st.booleans()):
        d = draw(st.sampled_from(TYPED))
        n = d.num_players
        alphas = draw(st.lists(levels, min_size=n, max_size=n))
        betas = draw(st.lists(levels, min_size=n, max_size=n))
        m = build_typed_dilemma_structure(d, alphas, betas)
    else:
        d = draw(st.sampled_from(POOL))
        n = d.num_players
        betas = draw(st.lists(levels, min_size=n, max_size=n))
        m = build_coherent_structure(d, MixedProfile.two_point(d, betas),
                                     strict=False)
    if draw(st.booleans()):
        m = structure_from_json(json.dumps(structure_to_json(m)), game=d.game)
    return m, MixedProfile.two_point(d, betas)


def with_measure(m, i, dist, new):
    """``m`` with ``new`` wherever player i's measure is the object ``dist``."""
    beliefs = list(m.beliefs)
    beliefs[i] = tuple(new if x is dist else x for x in beliefs[i])
    return m._replace(beliefs=tuple(beliefs))


def with_belief(m, i, k, dist):
    """``m`` with player i's measure at state k replaced by ``dist``."""
    beliefs = list(m.beliefs)
    per_state = list(beliefs[i])
    per_state[k] = dist
    beliefs[i] = tuple(per_state)
    return m._replace(beliefs=tuple(beliefs))


def exact(m):
    """``m`` with every probability converted by ``to_exact``."""
    beliefs = tuple(tuple({t: to_exact(p) for t, p in dist.items()}
                          for dist in per_state) for per_state in m.beliefs)
    return m._replace(beliefs=beliefs)


def mutate(draw, m, kind):
    n_states = m.num_states
    i = draw(st.integers(0, m.num_players - 1))
    k = draw(st.integers(0, n_states - 1))
    dist = m.beliefs[i][k]
    own = m.strategy_index(i, m.states[k][i])
    if kind in ("CS1", "CS2"):
        if kind == "CS1":
            j = draw(st.integers(0, len(m.strategy_sets[i]) - 1))
        else:
            j = own
        column = list(m.closest_columns[(i, j)])
        column[k] = draw(st.integers(-2, n_states + 1))
        columns = dict(m.closest_columns)
        columns[(i, j)] = tuple(column)
        return m._replace(closest_columns=columns)
    if kind == "PR1":
        t = draw(st.integers(0, n_states - 1))  # may or may not play own
        return with_belief(m, i, k, {t: F(1)})
    if kind == "PR2":
        # new beliefs at a state that some measure of this player supports
        t = draw(st.sampled_from(sorted(dist)))
        return with_belief(m, i, t, {t: F(1)})
    if kind == "NORM":
        t = draw(st.sampled_from(sorted(dist)))
        delta = draw(st.sampled_from(
            [F(1, 10 ** 13), F(1, 10 ** 12), F(1, 10 ** 11), F(-1, 2)]))
        return with_belief(m, i, k, {**dist, t: dist[t] + delta})
    if kind == "zero_mass":
        t = draw(st.integers(0, n_states - 1))
        return with_belief(m, i, k, {**dist, t: F(0)})
    if kind == "reorder":
        return with_belief(m, i, k, dict(reversed(list(dist.items()))))
    if kind == "int":
        return with_belief(m, i, k, {
            t: int(p) if isinstance(p, F) and p.denominator == 1 else p
            for t, p in dist.items()})
    if kind == "float":
        t = draw(st.sampled_from(sorted(dist)))
        return with_belief(m, i, k, {**dist, t: float(dist[t])})
    # in_place: one edited plain-dict copy wherever the measure object is
    # used, so with shared measures the whole cell changes
    t = draw(st.sampled_from(sorted(dist)))
    return with_measure(m, i, dist, {**dist, t: dist[t] + F(1, 3)})


@st.composite
def mutated_cases(draw):
    """A structure from ``structures()`` after one to three mutations, with
    its two-point profile."""
    m, sigma = draw(structures())
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        m = mutate(draw, m, kind)
    return m, sigma


@st.composite
def mutated_structures(draw):
    return draw(mutated_cases())[0]


@settings(max_examples=150, deadline=None)
@given(mutated_structures())
def test_validator_matches_oracle_on_mutations(m):
    # ``exact(m)`` holds one dict per state, so there equal measures are
    # distinct objects, and PR2 compares them as dicts
    want = oracle.validate_structure(exact(m))
    for structure in (m, exact(m)):
        got = validate_structure(structure)
        assert got == want
        assert [str(v) for v in got] == [str(v) for v in want]


@settings(max_examples=40, deadline=None)
@given(structures())
def test_validator_matches_oracle_on_clean_structures(case):
    m, _ = case
    assert validate_structure(m) == oracle.validate_structure(m) == []


def judged_as_the_oracle(m, m_exact, i, states):
    """Judge player i at every state twice, the second time (while nothing
    changed) from the per-cell memo, against the oracle on ``m_exact``; a
    caller's edit of a returned ``eu_switch`` must not reach the next call."""
    for k in states:
        want = outcome(oracle.is_rational_at, m_exact, i, k)
        for _ in range(2):
            got = outcome(is_rational_at, m, i, k)
            assert got == want
            if got[0] == "ok":
                assert type(got[1].eu) is F
                got[1].eu_switch.clear()
                got[1].eu_switch["not a strategy"] = F(-1)


def rationality_agrees(m, states):
    m_exact = exact(m)
    for k in states:
        for i in range(m.num_players):
            judged_as_the_oracle(m, m_exact, i, [k])
            assert (outcome(eu_at_state, m, i, k)
                    == outcome(oracle.eu_at_state, m_exact, i, k))
            for s in m.strategy_sets[i]:
                assert (outcome(eu_at_state_switch, m, i, k, s)
                        == outcome(oracle.eu_at_state_switch, m_exact, i, k, s))
                assert (outcome(derived_beliefs, m, i, k, s)
                        == outcome(oracle.derived_beliefs, m, i, k, s))
    # after the cells are memoised: a copy whose judged measure is edited,
    # and one whose first closest-state column is replaced, by the mirror
    # state (every player's strategy and bit position reversed); the
    # original keeps its verdicts
    dist = m.beliefs[0][states[0]]
    if dist:
        t = next(iter(dist))
        edited = with_measure(m, 0, dist, {**dist, t: dist[t] + F(1, 3)})
        judged_as_the_oracle(edited, exact(edited), 0,
                             [k for k in states if m.beliefs[0][k] is dist])
    mirrored = m._replace(closest_columns={
        **m.closest_columns, (0, 0): tuple(range(m.num_states - 1, -1, -1))})
    judged_as_the_oracle(mirrored, exact(mirrored), 0, states)
    judged_as_the_oracle(m, exact(m), 0, states)


@settings(max_examples=30, deadline=None)
@given(structures())
def test_rationality_matches_oracle_at_every_state(case):
    m, _ = case
    rationality_agrees(m, range(m.num_states))


@settings(max_examples=60, deadline=None)
@given(mutated_structures(), st.data())
def test_rationality_matches_oracle_on_mutations(m, data):
    states = data.draw(st.lists(st.integers(0, m.num_states - 1),
                                min_size=1, max_size=4, unique=True))
    rationality_agrees(m, states)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(POOL), st.data())
def test_te_in_structure_matches_oracle_on_pool_profiles(d, data):
    n = d.num_players
    betas = data.draw(st.lists(levels, min_size=n, max_size=n))
    sigma = MixedProfile.two_point(d, betas)
    m = build_coherent_structure(d, sigma, strict=False)
    if data.draw(st.booleans()):
        m = structure_from_json(structure_to_json(m), game=d.game)
    assert te_in_structure(m, sigma) == oracle.te_in_structure(m, sigma)
    subset = data.draw(st.lists(st.integers(0, m.num_states - 1),
                                max_size=6, unique=True))
    assert (te_in_structure(m, sigma, subset)
            == oracle.te_in_structure(m, sigma, subset))


@settings(max_examples=25, deadline=None)
@given(structures())
def test_te_in_structure_matches_oracle_on_typed_and_coherent(case):
    m, sigma = case
    assert te_in_structure(m, sigma) == oracle.te_in_structure(m, sigma)


@settings(max_examples=150, deadline=None)
@given(mutated_cases(), st.data())
def test_te_in_structure_matches_oracle_on_mutations(case, data):
    # a hole or an out-of-range target raises in the oracle, and the library
    # evaluates every switch of a cell, so it raises there too, even after a
    # switch that pays
    m, sigma = case
    subset = data.draw(st.lists(st.integers(0, m.num_states - 1),
                                max_size=6, unique=True))
    m_exact = exact(m)
    for args in ((), (subset,)):
        assert (outcome(te_in_structure, m, sigma, *args)
                == outcome(oracle.te_in_structure, m_exact, sigma, *args))


def te_and_rationality_agree(m, sigma, subsets):
    for subset in subsets:
        assert (outcome(te_in_structure, m, sigma, subset)
                == outcome(oracle.te_in_structure, m, sigma, subset))
    rationality_agrees(m, range(m.num_states))


def test_te_in_structure_on_states_off_the_game():
    d = make_prisoners_dilemma(4, 1)
    sigma = MixedProfile.two_point(d, [F(1, 2), F(1, 4)])
    m = build_coherent_structure(d, sigma, strict=False)
    k = m.states.index(("C", "C"))
    off = m._replace(
        states=m.states[:k] + (("X", "C"),) + m.states[k + 1:])
    # player 1's beliefs at an own C reach ("X", "C") and raise; at an own D
    # they do not, and player 0's expectation there takes the payoff path
    # for states off the game, with their own strategy put back in place
    own_d = [t for t, p in enumerate(m.states) if p[1] == "D"]
    te_and_rationality_agree(off, sigma, [None, own_d, [k], own_d + [k]])
    assert te_in_structure(off, sigma, own_d).te1 == ()
    assert outcome(te_in_structure, off, sigma)[:2] == ("raised", ValueError)


def test_te_in_structure_on_strategy_lists_out_of_game_order():
    # player 1 cooperates rarely, so at player 0's cooperating states the
    # first switch in the flipped list, to D, pays more
    d = make_prisoners_dilemma(4, 1)
    sigma = MixedProfile.two_point(d, [F(1, 2), F(1, 8)])
    m = build_coherent_structure(d, sigma, strict=False)
    flipped = m._replace(
        strategy_sets=(("D", "C"), ("D", "C")),
        closest_columns={(i, 1 - j): column
                         for (i, j), column in m.closest_columns.items()})
    report = te_in_structure(flipped, sigma)
    assert report == te_in_structure(m, sigma) and report.te4
    te_and_rationality_agree(flipped, sigma, [None, [0, 1, 2]])
    # a later switch that raises in the oracle: to a strategy the game does
    # not have, or through a hole in the own strategy's column
    cooperating = [k for k, p in enumerate(m.states) if p[0] == "C"]
    holed = list(flipped.closest_columns[(0, 1)])
    holed[cooperating[0]] = MISSING
    for bad in (
            flipped._replace(
                strategy_sets=(("D", "C", "Z"), ("D", "C")),
                closest_columns={**flipped.closest_columns,
                                 (0, 2): flipped.closest_columns[(0, 0)]}),
            flipped._replace(
                closest_columns={**flipped.closest_columns,
                                 (0, 1): tuple(holed)})):
        te_and_rationality_agree(bad, sigma, [None, cooperating])
        assert outcome(te_in_structure, bad, sigma)[:2] == ("raised", ValueError)


def test_switch_routed_onto_a_supported_state():
    # CS1 broken on purpose: the switch to C at (D, D) stays at (D, D), a
    # state the measure supports, so the switch evaluates the payoff of C
    # against a profile whose payoff of D the current strategy already used
    d = make_prisoners_dilemma(4, 1)
    sigma = MixedProfile.two_point(d, [F(1, 2), F(1, 2)])
    m = build_coherent_structure(d, sigma)
    k = m.states.index(("D", "D"))
    column = list(m.closest_columns[(0, 0)])
    column[k] = k
    m = m._replace(closest_columns={**m.closest_columns,
                                    (0, 0): tuple(column)})
    assert is_rational_at(m, 0, k) == oracle.is_rational_at(m, 0, k)
    assert eu_at_state_switch(m, 0, k, "C") == oracle.eu_at_state_switch(m, 0, k, "C")


@pytest.mark.parametrize("make", [lambda: make_public_goods(3, F(3, 5), grid=2),
                                  lambda: make_bertrand(3, 2, 5)], ids=["pgg", "bertrand"])
def test_te1_on_subsets_mixing_support_off_support_and_off_game_states(make):
    # TE1 reads player 0's position and the others' offset in the mixture,
    # so a state off the support or off the game through any one player
    # must still be a violation
    d = make()
    sigma = MixedProfile.two_point(d, [F(1, 2), F(1), F(3, 8)])
    m = build_coherent_structure(d, sigma, strict=False)
    flags = [[sigma.prob(j, s) > 0 for j, s in enumerate(p)] for p in m.states]
    support = [k for k, f in enumerate(flags) if all(f)]
    # neither a measure nor a switch from the support reaches these states,
    # so putting them off the game leaves every support cell as it was
    reached = {column[k] for column in m.closest_columns.values() for k in support}
    off = [next(k for k, f in enumerate(flags)
                if f.count(False) == 1 and not f[j] and k not in reached)
           for j in range(3)]
    mixed = support[:2] + [off[2]] + support[2:] + [off[0], off[1]]
    subsets = (None, support + [off[2]], mixed, [off[1]] + support, [off[0]])
    # a state one player short (whose players all play support strategies)
    # and one a player too long are off the game as well
    states = list(m.states)
    states[off[0]] = states[support[0]][:2]
    states[off[1]] = states[support[0]] + states[support[0]][:1]
    short_long = m._replace(states=tuple(states))
    assert not any(d.game._table)
    for _ in range(2):  # with the game's payoff table empty, then full
        for subset in subsets:
            got = outcome(te_in_structure, short_long, sigma, subset)
            assert got == outcome(oracle.te_in_structure, short_long, sigma, subset)
            assert got[0] == "ok"
        assert te_in_structure(short_long, sigma, [off[0], off[1]]) == (
            TeStructureReport(False, ((off[0],), (off[1],)), (), (), ()))
    assert any(d.game._table)
    states = list(m.states)
    for j in (0, 1):
        states[off[j]] = tuple("X" if i == j else s for i, s in enumerate(states[off[j]]))
    off_game = m._replace(states=tuple(states))
    report = te_in_structure(m, sigma, mixed)
    assert report.te1 == ((off[2],), (off[0],), (off[1],))
    assert report == oracle.te_in_structure(m, sigma, mixed)
    # a listed state off the game violates TE1 and is judged for nothing
    # else; every other state keeps its verdicts
    for subset in subsets:
        got = outcome(te_in_structure, off_game, sigma, subset)
        assert got == outcome(oracle.te_in_structure, off_game, sigma, subset)
        assert got[0] == "ok"
    gone = {off[0], off[1]}
    assert te_in_structure(off_game, sigma, mixed) == report._replace(
        **{name: tuple(v for v in getattr(report, name) if v[0] not in gone)
           for name in ("te2", "te3", "te4")})
    assert te_in_structure(off_game, sigma, [off[0]]) == (
        TeStructureReport(False, ((off[0],),), (), (), ()))


def test_coherence_checker_matches_oracle_on_pool_profiles():
    rng = random.Random(31)
    seen = []
    for d in POOL:
        check = make_coherence_checker(d)
        for _ in range(40):
            betas = [rng.choice(LEVELS) for _ in range(d.num_players)]
            report = check(MixedProfile.two_point(d, betas))
            assert report == oracle.coherence(d.game, oracle.two_point(d, betas)), (
                d.kind, betas)
            seen.append(report.coherent)
    assert seen.count(False) >= 40 and seen.count(True) >= 40


# ---------------------------------------------------------------------------
# parsing: shared measures against the per-entry parser


EDITS = ("respell", "reorder", "copy", "number", "zero_mass", "drop",
         "overwrite", "null_aux")
MALFORMED = ("target", "nondict", "unhashable", "bad_text", "closest",
             "profile", "player", "non_integer", "missing_key", "dist_key",
             "zero_denominator", "bool_mass")
# what a non-integer index may be read as: int() took 0.5 for 0, 2.7 for 2
# and True for 1
NON_INTEGERS = [0.5, 2.7, 1.0, True, False, "x", "1", None, float("nan"), [0]]


def edit_document(draw, doc, kind):
    """Apply one hand edit to ``doc`` in place."""
    beliefs = doc["beliefs"]
    n_states = len(doc["states"])
    e = draw(st.integers(0, len(beliefs) - 1))
    dist = beliefs[e]["dist"]
    items = list(dist.items())
    t, p = draw(st.sampled_from(items))
    if kind == "respell":  # an equal value in another spelling
        q = F(p)
        dist[t] = draw(st.sampled_from(
            [f"{2 * q.numerator}/{2 * q.denominator}", f" {p} "]))
    elif kind == "reorder":
        beliefs[e]["dist"] = dict(reversed(items))
    elif kind == "copy":  # another entry's measure, as the same or a new object
        other = beliefs[draw(st.integers(0, len(beliefs) - 1))]["dist"]
        beliefs[e]["dist"] = draw(st.sampled_from([other, dict(other)]))
    elif kind == "number":
        q = F(p)
        dist[t] = int(q) if q.denominator == 1 else float(q)
    elif kind == "zero_mass":
        dist[str(draw(st.integers(0, n_states - 1)))] = "0"
    elif kind == "drop":  # that state keeps an empty measure
        del beliefs[e]
    elif kind == "overwrite":  # a later entry for the same (player, state)
        other = beliefs[draw(st.integers(0, len(beliefs) - 1))]["dist"]
        beliefs.append({**beliefs[e], "dist": dict(other)})
    elif kind == "null_aux":  # beside the aux lists of a typed structure
        doc["states"][draw(st.integers(0, n_states - 1))]["aux"] = None
    elif kind == "target":
        dist[str(draw(st.sampled_from([-1, n_states, n_states + 7])))] = "0"
    elif kind == "nondict":
        beliefs[e]["dist"] = items
    elif kind == "unhashable":
        dist[t] = [p]
    elif kind == "bad_text":
        dist[t] = "x"
    elif kind == "closest":
        entry = draw(st.sampled_from(doc["closest"]))
        entry[draw(st.sampled_from(["state", "player", "strategy"]))] = n_states + 1
    elif kind == "profile":
        entry = doc["states"][draw(st.integers(0, n_states - 1))]
        entry["profile"] = [-1] + entry["profile"][1:]
    elif kind == "player":
        beliefs[e]["player"] = len(doc["strategies"])
    elif kind in ("non_integer", "missing_key"):
        closest = draw(st.sampled_from(doc["closest"]))
        state = doc["states"][draw(st.integers(0, n_states - 1))]
        places = ([(closest, key) for key in ("state", "player", "strategy", "target")]
                  + [(beliefs[e], "player"), (beliefs[e], "state")])
        if kind == "non_integer":
            entry, key = draw(st.sampled_from(
                places + [(state["profile"], i) for i in range(len(state["profile"]))]))
            entry[key] = draw(st.sampled_from(NON_INTEGERS))
        else:
            entry, key = draw(st.sampled_from(
                places + [(beliefs[e], "dist"), (state, "profile")]))
            del entry[key]
    elif kind == "dist_key":
        dist[draw(st.sampled_from(["0.5", "x", "", "1e1"]))] = p
    elif kind == "bool_mass":  # Fraction(True) would read it as 1
        dist[t] = draw(st.booleans())
    else:  # zero_denominator
        dist[t] = "1/0"


@st.composite
def documents(draw, malformed=False):
    """A built or mutated structure's document, with hand edits (the last
    one malformed, if asked), and the game to parse it with (or None)."""
    if draw(st.booleans()):
        m, _ = draw(structures())
    else:
        m = draw(mutated_structures())
    doc = json.loads(json.dumps(structure_to_json(m)))
    kinds = draw(st.lists(st.sampled_from(EDITS), max_size=3))
    if malformed:
        kinds.append(draw(st.sampled_from(MALFORMED)))
    for kind in kinds:
        edit_document(draw, doc, kind)
    return doc, draw(st.sampled_from([None, m.game]))


def classes(values, same):
    """The index of each value's first equal (under ``same``) value."""
    firsts, out = [], []
    for v in values:
        out.append(next((k for k, w in firsts if same(v, w)), len(out)))
        if out[-1] == len(out) - 1:
            firsts.append((out[-1], v))
    return out


def raw_measures(doc, m):
    """The raw ``dist`` each (player, state) ends up with, or None."""
    raw = {}
    for entry in doc["beliefs"]:
        raw[(int(entry["player"]), int(entry["state"]))] = entry["dist"]
    return [raw.get((i, k)) for i in range(m.num_players)
            for k in range(m.num_states)]


def raw_equal(a, b):
    return a is not None and b is not None and list(a.items()) == list(b.items())


@settings(max_examples=150, deadline=None)
@given(documents())
def test_parser_matches_oracle_and_shares_equal_dists(case):
    doc, game = case
    got = structure_from_json(doc, game)
    want = oracle.structure_from_json(doc, game)
    assert got.strategy_sets == want.strategy_sets
    assert got.states == want.states and got.aux == want.aux
    assert got.closest_columns == want.closest_columns
    assert got.beliefs == want.beliefs
    measures = [dist for per_state in got.beliefs for dist in per_state]
    assert (classes(measures, lambda a, b: a is b)
            == classes(raw_measures(doc, got), raw_equal))
    got_violations = validate_structure(got)
    assert got_violations == validate_structure(want)
    assert [str(v) for v in got_violations] == [
        str(v) for v in validate_structure(want)]
    text = json.dumps(structure_to_json(got))
    assert text == json.dumps(structure_to_json(want))
    assert text == json.dumps(oracle.structure_to_json(want))


@settings(max_examples=150, deadline=None)
@given(documents(malformed=True))
def test_parser_raises_as_the_oracle(case):
    doc, game = case
    got = outcome(structure_from_json, doc, game)
    want = outcome(oracle.structure_from_json, doc, game)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1:] == want[1:]


@pytest.mark.parametrize("doc,message", [
    ({"players": 0, "strategies": [], "states": [{"profile": []}], "closest": [],
      "beliefs": []}, "$.players: a structure needs at least 1 player, got 0"),
    ({"players": 2, "strategies": [["C"], []], "states": [{"profile": [0, 0]}],
      "closest": [], "beliefs": []}, "$.strategies[1]: player 1 has no strategies"),
    ({"players": 1, "strategies": [["C"]], "states": [], "closest": [], "beliefs": []},
     "$.states: a structure needs at least one state"),
])
def test_degenerate_documents_are_refused_as_by_the_oracle(doc, message):
    for parse in (structure_from_json, oracle.structure_from_json):
        with pytest.raises(InputError) as exc:
            parse(doc)
        assert str(exc.value) == message


def test_bad_target_in_a_shared_dist_names_the_first_entry():
    d = TYPED[2]  # 3-player public goods: 64 states, 8 measures a player
    m = build_typed_dilemma_structure(d, [F(1, 2)] * 3, [F(3, 4)] * 3)
    doc = structure_to_json(m)
    shared = doc["beliefs"][5]["dist"]
    bad = {**shared, str(m.num_states): "0"}
    hits = [e for e, entry in enumerate(doc["beliefs"]) if entry["dist"] == shared]
    assert len(hits) > 4 and hits[0] <= 5
    for e in hits:
        doc["beliefs"][e]["dist"] = dict(bad)
    message = (f'$.beliefs[{hits[0]}].dist["{m.num_states}"]: state index '
               f'{m.num_states} is out of range 0..{m.num_states - 1}')
    for parse in (structure_from_json, oracle.structure_from_json):
        assert outcome(parse, doc) == ("raised", InputError, message)


def test_null_aux_beside_aux_lists_round_trips():
    """A state's ``aux`` may be null while other states carry lists; both
    writers give the document back with each in place."""
    doc = {"players": 1, "strategies": [["a", "b"]],
           "states": [{"profile": [0], "aux": [1, 0]},
                      {"profile": [1], "aux": [0]},
                      {"profile": [1], "aux": None}],
           "closest": [{"state": 0, "player": 0, "strategy": 1, "target": 1},
                       {"state": 1, "player": 0, "strategy": 0, "target": 0},
                       {"state": 2, "player": 0, "strategy": 0, "target": 0}],
           "beliefs": [{"player": 0, "state": k, "dist": {str(k): "1"}}
                       for k in range(3)]}
    for parse, write in ((structure_from_json, structure_to_json),
                         (oracle.structure_from_json, oracle.structure_to_json)):
        m = parse(json.dumps(doc))
        assert m.aux == ((1, 0), (0,), None)
        assert validate_structure(m) == []
        assert write(m) == doc


def test_repeated_label_writes_its_first_position():
    """A label repeated in a strategy list is read at its first position,
    and both writers give that position back, not the last."""
    doc = {"players": 2, "strategies": [["C", "C", "D"], ["C", "D"]],
           "states": [{"profile": [0, 0], "aux": None},
                      {"profile": [2, 1], "aux": None}],
           "closest": [{"state": 0, "player": 0, "strategy": 1, "target": 0},
                       {"state": 0, "player": 0, "strategy": 2, "target": 1},
                       {"state": 0, "player": 1, "strategy": 1, "target": 1},
                       {"state": 1, "player": 0, "strategy": 0, "target": 0},
                       {"state": 1, "player": 0, "strategy": 1, "target": 0},
                       {"state": 1, "player": 1, "strategy": 0, "target": 0}],
           "beliefs": [{"player": i, "state": k, "dist": {str(k): "1"}}
                       for i in range(2) for k in range(2)]}
    for parse, write in ((structure_from_json, structure_to_json),
                         (oracle.structure_from_json, oracle.structure_to_json)):
        written = write(parse(json.dumps(doc)))
        assert written["states"] == doc["states"]
        assert written == doc


def test_oracle_reads_text_with_a_reader_of_its_own():
    # the oracle takes the error class from the library, never its reader
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(oracle)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"load_json", "plain", "field", "index", "probability",
                           "structure_from_json"}
    from test_counterfactual import LABELLED

    d = make_prisoners_dilemma(4, 1)
    m = build_coherent_structure(d, MixedProfile.two_point(d, [F(3, 10)] * 2),
                                 strict=False)
    decimals = json.dumps(structure_to_json(m)).replace(
        '"3/10"', "0.3").replace('"7/10"', "0.7")
    for text in (LABELLED, decimals):
        got, want = structure_from_json(text), oracle.structure_from_json(text)
        assert (got.strategy_sets, got.states, got.aux) == (
            want.strategy_sets, want.states, want.aux)
        assert (got.closest_columns, got.beliefs) == (want.closest_columns, want.beliefs)
    assert structure_from_json(decimals).beliefs == m.beliefs
    for text in ('{"players": NaN}', '{"players": -Infinity}', '{"players": 2,'):
        got = outcome(structure_from_json, text)
        assert got[:2] == ("raised", InputError)
        assert got == outcome(oracle.structure_from_json, text)


# the typed shapes of the te_structures benchmark, whose JSON bytes it pins
PINNED_SHAPES = [
    make_public_goods(3, F(3, 5), grid=1),
    make_public_goods(4, F(2, 5), grid=1),
    make_bertrand(2, 2, 8),
    make_bertrand(3, 2, 6),
]


@pytest.mark.parametrize("d", PINNED_SHAPES, ids=lambda d: f"{d.kind}{d.num_players}")
def test_pinned_round_trip_bytes_match_the_oracle_writer(d):
    """The writer's text equals the per-entry writer's, and parsing it and
    writing it again gives the same bytes; at three seeded interior type
    vectors, so every belief has full support."""
    rng = random.Random(f"pinned:{d.kind}:{d.num_players}")
    for _ in range(3):
        alphas, betas = ([rng.choice([F(1, 4), F(1, 2), F(3, 4)])
                          for _ in range(d.num_players)] for _ in range(2))
        m = build_typed_dilemma_structure(d, alphas, betas)
        text = json.dumps(structure_to_json(m))
        assert text == json.dumps(oracle.structure_to_json(m))
        assert json.dumps(structure_to_json(structure_from_json(text))) == text
