"""The integer kernel under the closed forms and the scanner, against oracles.

``closed_form`` decides every condition on integer numerators and
denominators; ``closed_form_oracle`` writes the same conditions as plain
``Fraction`` expressions.  Property tests compare the two on generated
rationals, and the edge cases of the kernel's branches are pinned.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefs_oracle
import closed_form_oracle as oracle
from translucent.beliefs import CooperationScanner, TranslucentType
from translucent.closed_form import (
    bertrand_lower_bound_check,
    bertrand_undercut_condition,
    cooperation_condition,
)
from translucent.games import (
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

PROPERTY = settings(max_examples=300, deadline=None)

units = st.fractions(min_value=0, max_value=1, max_denominator=60)


@st.composite
def pd_params(draw):
    c = draw(st.fractions(min_value=F(1, 10), max_value=20, max_denominator=12))
    gap = draw(st.fractions(min_value=F(1, 10), max_value=20, max_denominator=12))
    return {"b": c + gap, "c": c}


@st.composite
def td_params(draw):
    l = draw(st.integers(1, 5))
    return {"l": l, "h": l + draw(st.integers(1, 60)),
            "bonus": draw(st.fractions(min_value=F(1, 6), max_value=70,
                                       max_denominator=6))}


@st.composite
def pgg_params(draw):
    n = draw(st.integers(2, 10))
    rd = draw(st.integers(1, 30))
    rn = draw(st.integers(rd // n + 1, rd))
    return {"n": n, "rho": F(rn, rd)}


@st.composite
def bertrand_params(draw):
    l = draw(st.integers(2, 6))
    return {"n": draw(st.integers(2, 8)), "l": l,
            "h": l + draw(st.integers(1, 40))}


games = st.one_of(
    st.tuples(st.just("pd"), pd_params()),
    st.tuples(st.just("td"), td_params()),
    st.tuples(st.just("pgg"), pgg_params()),
    st.tuples(st.just("bertrand"), bertrand_params()),
)


def assert_matches_oracle(kind, params, alpha, beta):
    v = cooperation_condition(kind, params, alpha, beta)
    assert (v.rational, v.binding_quantity, v.threshold) == \
        oracle.cooperation_condition(kind, params, alpha, beta)
    assert type(v.binding_quantity) is F and type(v.threshold) is F


class TestAgainstFractionOracle:
    @PROPERTY
    @given(games, units, units)
    def test_cooperation_condition(self, game, alpha, beta):
        assert_matches_oracle(*game, alpha, beta)

    @PROPERTY
    @given(bertrand_params(), units, units)
    def test_bertrand_guards(self, params, alpha, beta):
        assert (bertrand_undercut_condition(params, alpha, beta)
                == oracle.bertrand_undercut_condition(params, alpha, beta))
        n, l, h = params["n"], params["l"], params["h"]
        assert (bertrand_lower_bound_check(beta, l, h, n)
                == oracle.bertrand_lower_bound_check(beta, l, h, n))


EDGE_GAMES = [
    ("pd", {"b": 4, "c": 1}),
    ("pd", {"b": F(7, 2), "c": F(3, 2)}),
    ("td", {"l": 2, "h": 13, "bonus": 8}),
    ("td", {"l": 2, "h": 4, "bonus": F(5, 2)}),
    ("pgg", {"n": 5, "rho": F(3, 10)}),
    ("pgg", {"n": 3, "rho": 1}),
    ("bertrand", {"n": 2, "l": 2, "h": 12}),
    ("bertrand", {"n": 5, "l": 3, "h": 7}),
]


class TestPinnedEdges:
    @pytest.mark.parametrize("kind,params", EDGE_GAMES)
    @pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1)])
    @pytest.mark.parametrize("beta", [F(0), F(1)])
    def test_unit_corners(self, kind, params, alpha, beta):
        assert_matches_oracle(kind, params, alpha, beta)
        if kind == "bertrand":
            assert (bertrand_undercut_condition(params, alpha, beta)
                    == oracle.bertrand_undercut_condition(params, alpha, beta))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_gamma_one_bertrand(self, n):
        # alpha = 0, beta = 1: gamma = 1, f = 1 and the threshold is L*N/H
        params = {"n": n, "l": 3, "h": 20}
        v = cooperation_condition("bertrand", params, 0, 1)
        assert v.binding_quantity == 1
        assert v.threshold == F(3 * n, 20)
        assert_matches_oracle("bertrand", params, 0, 1)

    def test_lower_bound_is_strict(self):
        # beta^(N-1) == L/H exactly: the bound does not fire
        for beta, l, h, n in [(F(1, 2), 2, 4, 2), (F(1, 2), 2, 8, 3),
                              (F(2, 3), 4, 9, 3)]:
            assert not bertrand_lower_bound_check(beta, l, h, n)
            assert bertrand_lower_bound_check(beta - F(1, 100), l, h, n)

    def test_beta_zero_undercut_guard_holds(self):
        for n in (2, 4):
            for alpha in (F(0), F(1, 3), F(1)):
                assert bertrand_undercut_condition({"n": n, "l": 2, "h": 9},
                                                   alpha, 0)

    def test_pgg_rho_one(self):
        for alpha in (F(0), F(1, 3), F(1)):
            for beta in (F(0), F(2, 7), F(1)):
                v = cooperation_condition("pgg", {"n": 4, "rho": 1}, alpha, beta)
                assert v.rational
                assert v.threshold == 0
                assert_matches_oracle("pgg", {"n": 4, "rho": 1}, alpha, beta)

    def test_float_and_string_inputs(self):
        params = {"l": 2, "h": 13, "bonus": "8"}
        for alpha, beta in [(0.25, 0.9), ("1/4", "0.9"), (0.1, "3/7"),
                            (1, 0.0), ("0", 1.0)]:
            assert_matches_oracle("td", params, alpha, beta)
            assert_matches_oracle("pd", {"b": "7/2", "c": 1.5}, alpha, beta)
            assert_matches_oracle("pgg", {"n": 4, "rho": "0.3"}, alpha, beta)
            assert_matches_oracle("bertrand", {"n": 3, "l": 2, "h": 8},
                                  alpha, beta)
            p = {"n": 3, "l": 2, "h": 8}
            assert (bertrand_undercut_condition(p, alpha, beta)
                    == oracle.bertrand_undercut_condition(p, alpha, beta))
        v = cooperation_condition("td", params, 0.25, 0.9)
        assert v.binding_quantity == 1 + F(1, 4) * 10  # the undercut branch
        with pytest.raises(ValueError, match="alpha must lie in"):
            cooperation_condition("pd", {"b": 4, "c": 1}, 1.5, 0)
        with pytest.raises(ValueError, match="beta must lie in"):
            cooperation_condition("pd", {"b": 4, "c": 1}, 0, "-1/2")

    def test_td_tie_between_conditions_picks_the_first(self):
        # both margins are 1/4: (9/5 - 31/20) and (5/4 - 1)
        params = {"l": 2, "h": 4, "bonus": 2}
        v = cooperation_condition("td", params, F(1, 4), F(9, 10))
        assert (v.binding_quantity, v.threshold) == (F(9, 5), F(31, 20))
        assert_matches_oracle("td", params, F(1, 4), F(9, 10))

    def test_td_second_condition_binds_when_tighter(self):
        params = {"l": 2, "h": 13, "bonus": 8}
        v = cooperation_condition("td", params, F(1, 4), F(9, 10))
        assert not v.rational
        assert (v.binding_quantity, v.threshold) == (F(7, 2), F(4))

    def test_td_undercut_branch_boundary(self):
        # the undercut condition applies for alpha < 1/2 only
        params = {"l": 2, "h": 30, "bonus": 40}
        for alpha in (F(49, 100), F(1, 2), F(2, 4), F(51, 100)):
            assert_matches_oracle("td", params, alpha, F(3, 5))


def small_dilemmas():
    return [
        make_prisoners_dilemma(4, 1),
        make_prisoners_dilemma(F(5, 2), F(3, 2)),
        make_travelers_dilemma(2, 7, 3),
        make_public_goods(3, F(1, 2), grid=4),
        make_bertrand(2, 2, 7),
        make_bertrand(3, 2, 5),
    ]


class TestScannerAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(units, units)
    def test_verdict_equals_enumeration(self, alpha, beta):
        t = TranslucentType(alpha, beta)
        for d in small_dilemmas():
            assert (CooperationScanner(d).verdict(t)
                    == beliefs_oracle.is_cooperation_rational(d, 0, t))

    @pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1)])
    @pytest.mark.parametrize("beta", [F(0), F(1, 3), F(1)])
    def test_verdict_corners(self, alpha, beta):
        t = TranslucentType(alpha, beta)
        for d in small_dilemmas():
            assert (CooperationScanner(d).verdict(t)
                    == beliefs_oracle.is_cooperation_rational(d, 0, t))


edge_units = st.one_of(st.sampled_from([F(0), F(1)]), units)


@st.composite
def type_sequences(draw):
    """Types in a random order: the edges alpha or beta in {0, 1} and, after
    some types, a partner with the same gamma = (1 - alpha) * beta but
    another beta, e.g. (1/2, 2/5) and (3/5, 1/2) for gamma = 1/5."""
    types = []
    for alpha, beta in draw(st.lists(st.tuples(edge_units, edge_units),
                                     min_size=1, max_size=12)):
        types.append((alpha, beta))
        if draw(st.booleans()):
            gamma = (1 - alpha) * beta
            beta2 = draw(edge_units)
            if beta2 == 0 or beta2 < gamma:
                beta2 = F(1)
            types.append((1 - gamma / beta2, beta2))
    return [TranslucentType(a, b) for a, b in draw(st.permutations(types))]


class TestScannerMemo:
    """One long-lived scanner memoises each distinct beta and each distinct
    gamma; its reports must not depend on what it was asked before."""

    DILEMMAS = small_dilemmas()

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(range(len(DILEMMAS))), type_sequences())
    def test_long_lived_scanner_equals_oracle(self, which, types):
        d = self.DILEMMAS[which]
        scanner = CooperationScanner(d)
        expected = {t: beliefs_oracle.is_cooperation_rational(d, 0, t)
                    for t in types}
        for t in types + types[::-1]:  # cold, then warm in the other order
            assert scanner.verdict(t) == expected[t]
        # one entry per distinct beta and one per distinct gamma in lowest terms
        assert len(scanner._on_path) == len({t.beta for t in types})
        assert len(scanner._deviation) == len(
            {(1 - t.alpha) * t.beta for t in types})

    def test_equal_gammas_share_one_entry(self):
        scanner = CooperationScanner(make_travelers_dilemma(2, 7, 3))
        first = scanner.verdict(TranslucentType(F(1, 2), F(2, 5)))
        second = scanner.verdict(TranslucentType(F(3, 5), F(1, 2)))
        assert list(scanner._deviation) == [(1, 5)]
        assert first.eu_best_deviation is second.eu_best_deviation
