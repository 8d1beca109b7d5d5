"""The two-point equilibrium conditions and the tie kernel against their oracle.

``equilibrium`` states each condition once: the untyped condition is the
typed one at full detection, pd, td and the (N-1) public-goods reading come
from ``cooperation_condition``, and the heterogeneous tie kernel is
E[1 / (N - C)] over the Poisson-binomial count C of the others who still
cooperate.  ``closed_form_oracle`` keeps the per-game inequalities written
out and the kernel as its sum over the 2^(N-1) subsets of the others.
Property tests compare verdicts, whole ``TypedTeResult``s, and the exception
type and text on malformed input.
"""

import time
from fractions import Fraction as F
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_oracle as oracle
from translucent.closed_form import f_gamma
from translucent.equilibrium import (generalized_f, te_condition,
                                     te_condition_typed)
from translucent.games import KINDS

PROPERTY = settings(max_examples=400, deadline=None)
KERNEL = settings(max_examples=200, deadline=None)  # the oracle is 2^(N-1)

units = st.fractions(min_value=0, max_value=1, max_denominator=12)
malformed = st.sampled_from([F(-1, 3), F(4, 3), 1.5, -0.25, "x", None, True,
                             [F(1, 2)]])


@st.composite
def values(draw):
    """A probability, as an exact rational, 0, 1 or a float; one in forty
    malformed."""
    if draw(st.integers(0, 39)) == 0:
        return draw(malformed)
    return draw(st.one_of(units, units, st.sampled_from([0, 1]), st.floats(0, 1)))


def outcome(f, *args):
    try:
        return "returns", f(*args)
    except Exception as exc:  # compared with the oracle's, type and text
        return "raises", type(exc), str(exc)


@st.composite
def vectors(draw, n: int):
    """Per-player values: n of them nine times in ten, else one too few or many;
    all zero (all-defect), all equal, or independent."""
    size = n
    if draw(st.integers(0, 9)) == 0:
        size = max(0, n + draw(st.sampled_from([-1, 1])))
    shape = draw(st.sampled_from(["independent", "independent", "equal", "zero"]))
    if shape == "zero":
        return [0] * size
    if shape == "equal":
        return [draw(values())] * size
    return [draw(values()) for _ in range(size)]


def sometimes_broken(valid, broken):
    """Valid parameters four times in five."""
    return st.one_of(valid, valid, valid, valid, broken)


@st.composite
def pgg_rho(draw, n: int, valid: bool):
    """rho in (1/n, 1], or at most 1/n or above 1."""
    rd = draw(st.integers(1, 10))
    low, high = rd // n + 1, rd  # rd < n * rn <= n * rd
    if valid:
        return F(draw(st.integers(low, high)), rd)
    return F(draw(st.sampled_from([0, low - 1, high + 1])), rd)


PARAMS = {
    "pd": sometimes_broken(
        st.builds(lambda c, gap: {"b": c + gap, "c": c},
                  st.fractions(min_value=F(1, 4), max_value=10, max_denominator=4),
                  st.fractions(min_value=F(1, 3), max_value=10, max_denominator=3)),
        st.builds(lambda c, gap: {"b": c - gap, "c": c},
                  st.fractions(min_value=-1, max_value=10, max_denominator=4),
                  st.fractions(min_value=0, max_value=2, max_denominator=3))),
    "td": sometimes_broken(
        st.builds(lambda l, gap, bonus: {"l": l, "h": l + gap, "bonus": bonus},
                  st.integers(1, 5), st.integers(1, 20),
                  st.fractions(min_value=F(1, 3), max_value=40, max_denominator=3)),
        st.builds(lambda l, gap, bonus: {"l": l, "h": l + gap, "bonus": bonus},
                  st.integers(-1, 5), st.integers(-1, 3),
                  st.fractions(min_value=-1, max_value=1, max_denominator=3))),
    "pgg": sometimes_broken(
        st.integers(2, 6).flatmap(lambda n: st.builds(
            lambda rho, grid: {"n": n, "rho": rho,
                               **({} if grid is None else {"grid": grid})},
            pgg_rho(n, True), st.sampled_from([None, 1, 2]))),
        st.integers(1, 6).flatmap(lambda n: st.builds(
            lambda rho, grid: {"n": n, "rho": rho, "grid": grid},
            pgg_rho(max(n, 1), False), st.sampled_from([0, -1, 2.5])))),
    "bertrand": sometimes_broken(
        st.builds(lambda n, l, gap: {"n": n, "l": l, "h": l + gap},
                  st.integers(2, 5), st.integers(2, 6), st.integers(1, 12)),
        st.builds(lambda n, l, gap: {"n": n, "l": l, "h": l + gap},
                  st.integers(1, 4), st.integers(0, 3), st.integers(-1, 1))),
    "other": st.just({"n": 3}),
}


@st.composite
def cases(draw):
    """(kind, params, alphas, betas), valid or not."""
    kind = draw(st.sampled_from(KINDS + ("other",)))
    params = dict(draw(PARAMS[kind]))
    if draw(st.integers(0, 19)) == 0:
        del params[draw(st.sampled_from(sorted(params)))]
    n = params.get("n", 2) if kind in ("pgg", "bertrand") else 2
    return kind, params, draw(vectors(max(n, 1))), draw(vectors(max(n, 1)))


class TestConditionsMatchOracle:
    @PROPERTY
    @given(cases())
    def test_untyped(self, case):
        kind, params, _, betas = case
        assert (outcome(te_condition, kind, params, betas)
                == outcome(oracle.te_condition, kind, params, betas))

    @PROPERTY
    @given(cases())
    def test_typed(self, case):
        kind, params, alphas, betas = case
        assert (outcome(te_condition_typed, kind, params, alphas, betas)
                == outcome(oracle.te_condition_typed, kind, params, alphas, betas))

    @PROPERTY
    @given(cases())
    def test_untyped_is_typed_at_full_detection(self, case):
        kind, params, _, betas = case
        untyped = outcome(te_condition, kind, params, betas)
        typed = outcome(te_condition_typed, kind, params, [1] * len(betas), betas)
        if untyped[0] == "returns" and typed[0] == "returns":
            result = typed[1]
            holds = (result.readings["n_minus_1"] if result.holds is None
                     else result.holds)
            assert untyped[1] == holds


class TestGeneralizedFMatchesSubsetSum:
    @KERNEL
    @given(st.integers(2, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(units, min_size=n - 1,
                                                 max_size=n - 1))))
    def test_values(self, case):
        n, gammas = case
        assert generalized_f(gammas, n) == oracle.generalized_f(gammas, n)

    @KERNEL
    @given(st.integers(1, 8), st.lists(values(), max_size=8))
    def test_malformed_input(self, n, gammas):
        assert (outcome(generalized_f, gammas, n)
                == outcome(oracle.generalized_f, gammas, n))

    def test_thirty_players_exact_and_fast(self):
        # 2^29 subsets for the oracle.  With two distinct gammas, a of g1 and
        # b of g2, the sum groups by how many of each defect (i and j):
        # sum C(a,i) (1-g1)^i g1^(a-i) C(b,j) (1-g2)^j g2^(b-j) / (i+j+1).
        a, b, g1, g2 = 12, 17, F(2, 7), F(5, 6)
        expected = sum(comb(a, i) * (1 - g1) ** i * g1 ** (a - i)
                       * comb(b, j) * (1 - g2) ** j * g2 ** (b - j) / (i + j + 1)
                       for i in range(a + 1) for j in range(b + 1))
        gammas = [g1, g2] * a + [g2] * (b - a)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            value = generalized_f(gammas, 30)
            best = min(best, time.perf_counter() - start)
        assert value == expected
        assert best < 0.05
        for g in (F(0), F(1, 3), F(5, 7), F(1)):
            assert generalized_f([g] * 29, 30) == f_gamma(g, 30)
