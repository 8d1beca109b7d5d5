"""The structure checks against their per-state oracle.

``counterfactual`` validates per belief cell and sums expected utilities on
integers, and ``te_in_structure`` judges each (player, measure, own
strategy) once; ``structure_oracle`` keeps the plain per-state forms.
Property tests compare the two on built and JSON-round-tripped typed and
coherent structures, on single-axiom mutations of them, and on the
criterion-3 pool profiles.  The library takes float probabilities at
their exact values, so the oracle is run on the same structure with its
measures converted by ``to_exact``.
"""

import dataclasses
import json
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from translucent.counterfactual import (
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
from translucent.equilibrium import te_in_structure
from translucent.exact import to_exact
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


def with_belief(m, i, k, dist):
    """``m`` with player i's measure at state k replaced by ``dist``."""
    beliefs = list(m.beliefs)
    per_state = list(beliefs[i])
    per_state[k] = dist
    beliefs[i] = tuple(per_state)
    return dataclasses.replace(m, beliefs=tuple(beliefs))


def exact(m):
    """``m`` with every probability converted by ``to_exact``."""
    beliefs = tuple(tuple({t: to_exact(p) for t, p in dist.items()}
                          for dist in per_state) for per_state in m.beliefs)
    return dataclasses.replace(m, beliefs=beliefs)


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
        return dataclasses.replace(m, closest_columns=columns)
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
    # in_place: change the measure object itself, so with shared measures
    # the whole cell changes
    t = draw(st.sampled_from(sorted(dist)))
    dist[t] = dist[t] + F(1, 3)
    return m


@st.composite
def mutated_structures(draw):
    m, _ = draw(structures())
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        m = mutate(draw, m, kind)
    return m


@settings(max_examples=150, deadline=None)
@given(mutated_structures())
def test_validator_matches_oracle_on_mutations(m):
    got = validate_structure(m)
    want = oracle.validate_structure(exact(m))
    assert got == want
    assert [str(v) for v in got] == [str(v) for v in want]


@settings(max_examples=40, deadline=None)
@given(structures())
def test_validator_matches_oracle_on_clean_structures(case):
    m, _ = case
    assert validate_structure(m) == oracle.validate_structure(m) == []


def rationality_agrees(m, states):
    m_exact = exact(m)
    for k in states:
        for i in range(m.num_players):
            got = outcome(is_rational_at, m, i, k)
            assert got == outcome(oracle.is_rational_at, m_exact, i, k)
            if got[0] == "ok":
                assert type(got[1].eu) is F
            assert (outcome(eu_at_state, m, i, k)
                    == outcome(oracle.eu_at_state, m_exact, i, k))
            for s in m.strategy_sets[i]:
                assert (outcome(eu_at_state_switch, m, i, k, s)
                        == outcome(oracle.eu_at_state_switch, m_exact, i, k, s))
                assert (outcome(derived_beliefs, m, i, k, s)
                        == outcome(oracle.derived_beliefs, m, i, k, s))


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
    m = dataclasses.replace(m, closest_columns={**m.closest_columns,
                                                (0, 0): tuple(column)})
    assert is_rational_at(m, 0, k) == oracle.is_rational_at(m, 0, k)
    assert eu_at_state_switch(m, 0, k, "C") == oracle.eu_at_state_switch(m, 0, k, "C")
