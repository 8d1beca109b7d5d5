"""The two-point equilibrium conditions and the tie kernel against their oracle.

``equilibrium`` states each condition once: the untyped condition is the
typed one at full detection, pd, td and the (N-1) public-goods reading come
from ``cooperation_condition``, and the heterogeneous tie kernel is
E[1 / (N - C)] over the Poisson-binomial count C of the others who still
cooperate.  ``closed_form_oracle`` keeps the per-game inequalities written
out and the kernel as its sum over the 2^(N-1) subsets of the others.
Property tests compare verdicts, whole ``TypedTeResult``s, and the exception
type and text on malformed input; the kernel also on gammas of 0 and 1 among
interior ones, and both public-goods readings on betas with coprime
denominators.  The bertrand conditions, whose kernel the library reads from
elementary symmetric polynomials, are also compared on repeated players and
betas near 1, and past the oracle's reach against ``f_gamma`` and a
``Fraction`` Poisson-binomial law.
"""

import time
from fractions import Fraction as F
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_oracle as oracle
from translucent.closed_form import checked_params, cooperation_condition, f_gamma
from translucent.equilibrium import (generalized_f, te_condition,
                                     te_condition_typed)
from translucent.games import KINDS, pd_params, pgg_params, td_params

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
def cases(draw, kinds=KINDS + ("other",)):
    """(kind, params, alphas, betas), valid or not."""
    kind = draw(st.sampled_from(kinds))
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


class TestSymmetricRowsAreTheCooperationCondition:
    """At equal alphas and betas the two-point conditions reduce to
    ``cooperation_condition`` (all-defect always passes), the untyped one at
    alpha = 1; pgg compares its (N-1) reading.  This is why a ``te`` or
    ``te_typed`` sweep row (``cli._sweep_rows``) is computed from the closed
    form alone."""

    @PROPERTY
    @given(st.sampled_from(KINDS).flatmap(lambda kind: st.tuples(
        st.just(kind), PARAMS[kind].filter(lambda params: outcome(
            checked_params, kind, params)[0] == "returns"))), units, units)
    def test_identity(self, case, a, b):
        kind, params = case
        n = params["n"] if kind in ("pgg", "bertrand") else 2
        typed = te_condition_typed(kind, params, [a] * n, [b] * n)
        holds = typed.readings["n_minus_1"] if kind == "pgg" else typed.holds
        for alpha, got in ((a, holds), (1, te_condition(kind, params, [b] * n))):
            assert got == (cooperation_condition(kind, params, alpha, b).rational
                           or b == 0)


class TestPublicGoodsReadingsOnCoprimeDenominators:
    """Both public-goods readings cross-multiply the others' mean held as
    an integer over the betas' common denominator times (N - 1)."""

    @PROPERTY
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.builds(lambda rho: {"n": n, "rho": rho}, pgg_rho(n, True)),
        st.lists(units, min_size=n, max_size=n),
        st.lists(st.sampled_from([F(1, 3), F(2, 7), F(5, 8), 1, 0]),
                 min_size=n, max_size=n))))
    def test_readings(self, case):
        params, alphas, betas = case
        assert (te_condition_typed("pgg", params, alphas, betas)
                == oracle.te_condition_typed("pgg", params, alphas, betas))
        assert (te_condition("pgg", params, betas)
                == oracle.te_condition("pgg", params, betas))


def untyped_by_verdicts(kind, params, betas):
    result = oracle.two_point_by_verdicts(kind, params, betas, lambda n: [1] * n)
    return result.readings["n_minus_1"] if result.holds is None else result.holds


def typed_by_verdicts(kind, params, alphas, betas):
    return oracle.two_point_by_verdicts(
        kind, params, betas, lambda n: oracle._unit_vector(alphas, n, "alpha"))


class TestCoreMatchesVerdictBody:
    """pd, td and public goods check the parameters once and call the
    integer core per player; the former body called
    ``cooperation_condition`` per player."""

    @PROPERTY
    @given(cases(("pd", "td", "pgg")))
    def test_untyped(self, case):
        kind, params, _, betas = case
        assert (outcome(te_condition, kind, params, betas)
                == outcome(untyped_by_verdicts, kind, params, betas))

    @PROPERTY
    @given(cases(("pd", "td", "pgg")))
    def test_typed(self, case):
        kind, params, alphas, betas = case
        assert (outcome(te_condition_typed, kind, params, alphas, betas)
                == outcome(typed_by_verdicts, kind, params, alphas, betas))

    @pytest.mark.parametrize("kind,params,check", [
        ("pd", {"b": 1, "c": 1}, lambda: pd_params(1, 1)),
        ("td", {"l": 3, "h": 3, "bonus": 2}, lambda: td_params(3, 3, 2)),
        ("pgg", {"n": 1, "rho": F(3, 5)}, lambda: pgg_params(1, F(3, 5))),
        ("pgg", {"n": 3, "rho": F(1, 3)},
         lambda: pgg_params(3, F(1, 3), allow_rho_one=True)),
    ])
    @pytest.mark.parametrize("alphas,betas", [
        ([F(1, 2)] * 2, [F(3, 2), F(1, 2)]),
        ([2, 0], [F(1, 2)] * 2),
        ([F(1, 2)], [F(1, 2)] * 5),
        (["x", None], [None, True]),
    ])
    def test_bad_parameter_is_reported_before_bad_vectors(self, kind, params,
                                                         check, alphas, betas):
        want = outcome(check)
        assert want[0] == "raises"
        assert outcome(te_condition, kind, params, betas) == want
        assert outcome(te_condition_typed, kind, params, alphas, betas) == want


class TestGeneralizedFMatchesSubsetSum:
    @KERNEL
    @given(st.integers(2, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(units, min_size=n - 1,
                                                 max_size=n - 1))))
    def test_values(self, case):
        n, gammas = case
        assert generalized_f(gammas, n) == oracle.generalized_f(gammas, n)

    @pytest.mark.parametrize("gammas", [[0, F(1, 3), 0], [1, 0, F(2, 5)],
                                        [0, 0, 0], [1, 1, 0], [0, F(1, 2)]])
    def test_zeros_and_ones_among_interior_gammas(self, gammas):
        # a gamma of 0 is left out of the convolution
        n = len(gammas) + 1
        assert generalized_f(gammas, n) == oracle.generalized_f(gammas, n)

    @KERNEL
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.one_of(st.sampled_from([0, 1, F(0), F(1)]), units),
        min_size=n - 1, max_size=n - 1))))
    def test_values_with_zeros_and_ones(self, case):
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


# alphas, betas and gammas for the kernel: 0 and 1 as ints and Fractions,
# interior fractions, and denominators coprime to each other
KERNEL_UNITS = st.one_of(st.sampled_from([0, 1, F(0), F(1), F(1, 3), F(2, 7), F(5, 8),
                                          F(9, 11), F(1, 2)]), units)


@st.composite
def bertrand_vectors(draw):
    """(params, alphas, betas) for bertrand with n <= 6; one time in three
    the players are drawn from two (alpha, beta) pairs, so equal players
    are common, and one time in three every beta is near 1, so the
    condition often holds and each player's alpha decides."""
    n = draw(st.integers(2, 6))
    params = {"n": n, "l": draw(st.integers(2, 5)), "h": draw(st.integers(6, 40))}
    mode = draw(st.integers(0, 2))
    if mode == 0:
        pairs = draw(st.lists(st.tuples(KERNEL_UNITS, KERNEL_UNITS), min_size=2, max_size=2))
        alphas, betas = zip(*[draw(st.sampled_from(pairs)) for _ in range(n)])
        return params, list(alphas), list(betas)
    vector = st.lists(KERNEL_UNITS, min_size=n, max_size=n)
    high = st.lists(st.sampled_from([1, F(1), F(9, 11), F(19, 20)]), min_size=n, max_size=n)
    return params, draw(vector), draw(high if mode == 1 else vector)


def law_kernel(gammas, n):
    """E[1 / (N - C)] by C's Poisson-binomial law, convolved in ``Fraction``s."""
    law = [F(1)]
    for g in gammas:
        g = F(g)
        law = [a * (1 - g) + b * g for a, b in zip(law + [0], [0, *law])]
    return sum(p / (n - c) for c, p in enumerate(law))


class TestBertrandKernelMatchesSubsetOracle:
    """The bertrand conditions and ``generalized_f`` read the tie kernel from
    the elementary symmetric polynomials of the gammas (``_tie_sum``); the
    oracle sums over the 2^(N-1) subsets of the others."""

    @KERNEL
    @given(bertrand_vectors())
    def test_typed(self, case):
        params, alphas, betas = case
        assert (te_condition_typed("bertrand", params, alphas, betas)
                == oracle.te_condition_typed("bertrand", params, alphas, betas))

    @KERNEL
    @given(bertrand_vectors())
    def test_untyped(self, case):
        params, _, betas = case
        assert (te_condition("bertrand", params, betas)
                == oracle.te_condition("bertrand", params, betas))

    @KERNEL
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(KERNEL_UNITS, min_size=n - 1, max_size=n - 1))))
    def test_generalized_f(self, case):
        n, gammas = case
        assert generalized_f(gammas, n) == oracle.generalized_f(gammas, n)

    @pytest.mark.parametrize("h,alphas,betas,holds", [
        (7, [F(1, 2), 1, 0], [1, 1, 1], True),          # full detection beside none
        (5, [F(1, 2), 1, 0], [1, 1, 1], False),         # the alpha of 0 fails
        (5, [F(1, 2), F(1, 2), 1], [1, 1, 1], True),
        (7, [1, 1, 1], [0, 1, 1], False),               # one sure defector
        (7, [F(1, 3)] * 3, [0, 0, F(2, 7)], False),     # two: every product is 0
        (7, [0, F(1, 2), F(1, 2)], [F(5, 8), F(9, 11), F(9, 11)], False),
    ])
    def test_pure_and_repeated_players(self, h, alphas, betas, holds):
        params = {"n": 3, "l": 2, "h": h}
        result = te_condition_typed("bertrand", params, alphas, betas)
        assert result == oracle.te_condition_typed("bertrand", params, alphas, betas)
        assert result.holds is holds

    def test_equal_players_at_large_n_are_f_gamma(self):
        # all alike, the condition is beta^(n-1) >= f((1 - alpha) beta, n) l n / h
        alpha, beta, l, h = F(999, 1000), F(1), 2, 3
        for n in (60, 200):
            start = time.perf_counter()
            result = te_condition_typed("bertrand", {"n": n, "l": l, "h": h},
                                        [alpha] * n, [beta] * n)
            assert time.perf_counter() - start < 0.5
            assert result.holds == (beta ** (n - 1) >= f_gamma((1 - alpha) * beta, n) * l * n / h)

    def test_distinct_denominators_match_the_law(self):
        # 40 players with pairwise distinct denominators near 10^6: each
        # player's kernel against the others' Poisson-binomial law
        n, l, h = 40, 2, 3
        betas = [1 - F(1, 10 ** 6 + k) for k in range(n)]
        alphas = [1 - F(1, 10 ** 6 + 2 * k) for k in range(n)]
        expected = all(
            prod(betas[:i] + betas[i + 1:]) >= law_kernel(
                [(1 - a) * b for b in betas[:i] + betas[i + 1:]], n) * l * n / h
            for i, a in enumerate(alphas))
        start = time.perf_counter()
        result = te_condition_typed("bertrand", {"n": n, "l": l, "h": h}, alphas, betas)
        assert time.perf_counter() - start < 0.5
        assert result.holds is expected is True
        gammas = [(1 - alphas[0]) * b for b in betas[1:]]
        assert generalized_f(gammas, n) == law_kernel(gammas, n)
