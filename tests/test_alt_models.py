"""Tests for the social-preference transforms and the logit QRE solver."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import translucent
from qre_oracle import logit_qre_per_player, payoff_tables_by_profile
from translucent.alt_models import (
    CharnessRabinParams,
    FehrSchmidtParams,
    _logit_response,
    _payoff_tables,
    charness_rabin_utility,
    fehr_schmidt_utility,
    fs_pgg_full_contribution_condition,
    logit_qre,
)
from translucent.games import (
    BudgetExceededError,
    NormalFormGame,
    make_bertrand,
    make_dilemma,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)


class TestFehrSchmidt:
    def test_symmetric_profile_identity(self):
        d = make_prisoners_dilemma(4, 1)
        p = FehrSchmidtParams.uniform(2, F(7, 10), F(1, 2))
        assert fehr_schmidt_utility(d, ("C", "C"), 0, p) == 3
        assert fehr_schmidt_utility(d, ("D", "D"), 1, p) == 0

    def test_envy_term(self):
        d = make_prisoners_dilemma(4, 1)
        p = FehrSchmidtParams.uniform(2, 1, 0)
        assert fehr_schmidt_utility(d, ("C", "D"), 0, p) == -6

    def test_pgg_disadvantage(self):
        d = make_public_goods(2, F(3, 5), grid=10)
        p = FehrSchmidtParams.uniform(2, F(1, 2), F(1, 2))
        assert fehr_schmidt_utility(d, (F(1), F(0)), 0, p) == F(1, 10)

    def test_guilt_term(self):
        d = make_prisoners_dilemma(4, 1)
        p = FehrSchmidtParams((0, 0), (0, 0))
        assert fehr_schmidt_utility(d, ("C", "D"), 1, p) == 4
        p = FehrSchmidtParams.uniform(2, 1, F(1, 2))
        assert fehr_schmidt_utility(d, ("C", "D"), 1, p) == 4 - F(1, 2) * 5

    def test_weight_ordering_enforced(self):
        with pytest.raises(ValueError, match="b_fs <= a_fs"):
            FehrSchmidtParams.uniform(2, F(1, 2), F(7, 10))

    def test_lengths_checked(self):
        with pytest.raises(ValueError, match=r"^need one \(a_fs, b_fs\) pair per player$"):
            FehrSchmidtParams((1, 1), (0,))
        with pytest.raises(ValueError, match="^parameter vectors do not match the player count$"):
            fehr_schmidt_utility(make_prisoners_dilemma(4, 1), ("C", "D"), 0,
                                 FehrSchmidtParams.uniform(3, 1, 0))


class TestFsPggCondition:
    def test_threshold_values(self):
        assert fs_pgg_full_contribution_condition(1, F(1, 2))
        assert not fs_pgg_full_contribution_condition(F(99, 100), F(1, 2))
        assert fs_pgg_full_contribution_condition(F(1, 99), F(99, 100))
        assert not fs_pgg_full_contribution_condition(F(1, 2), F(3, 5))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            fs_pgg_full_contribution_condition(1, 1)

    @staticmethod
    def full_contribution_is_best_response(n, rho, grid, b_fs):
        d = make_public_goods(n, rho, grid=grid)
        p = FehrSchmidtParams.uniform(n, max(b_fs, F(1)), b_fs)
        one = F(1)
        values = {x: fehr_schmidt_utility(
            d, (x,) + (one,) * (n - 1), 0, p) for x in d.game.strategy_sets[0]}
        return values[one] == max(values.values())

    def test_condition_is_sufficient_for_full_contribution(self):
        for n, rho in [(2, F(3, 5)), (3, F(1, 2)), (3, F(4, 5))]:
            threshold = (1 - rho) / rho
            for b_fs in (threshold, threshold + F(1, 4), F(1)):
                if b_fs > 1:
                    continue
                assert fs_pgg_full_contribution_condition(b_fs, rho)
                assert self.full_contribution_is_best_response(n, rho, 10, b_fs)

    def test_exact_enumeration_threshold_is_one_minus_rho(self):
        # By direct enumeration the guilt weight that sustains the all-one
        # profile is exactly 1 - rho, strictly below the (1-rho)/rho headline
        # figure: the penalty for under-contributing by delta is b_fs*delta,
        # not b_fs*rho*delta.  The headline condition is conservative.
        for n, rho in [(2, F(3, 5)), (3, F(1, 2))]:
            exact = 1 - rho
            assert self.full_contribution_is_best_response(n, rho, 10, exact)
            assert self.full_contribution_is_best_response(
                n, rho, 10, exact + F(1, 20))
            assert not self.full_contribution_is_best_response(
                n, rho, 10, exact - F(1, 20))
            # the gap: sustained despite failing the headline condition
            between = exact + ((1 - rho) / rho - exact) / 2
            assert not fs_pgg_full_contribution_condition(between, rho)
            assert self.full_contribution_is_best_response(n, rho, 10, between)

    def test_below_exact_threshold_zero_is_unique_best_response(self):
        for n, rho in [(2, F(3, 5)), (3, F(1, 2))]:
            d = make_public_goods(n, rho, grid=8)
            b_fs = (1 - rho) - F(1, 10)
            p = FehrSchmidtParams.uniform(n, F(1), b_fs)
            for x_others in (F(0), F(1, 2), F(1)):
                values = {x: fehr_schmidt_utility(
                    d, (x,) + (x_others,) * (n - 1), 0, p)
                    for x in d.game.strategy_sets[0]}
                best = max(values.values())
                assert values[F(0)] == best
                assert sum(1 for v in values.values() if v == best) == 1


class TestCharnessRabin:
    def test_selfish_collapse(self):
        d = make_prisoners_dilemma(4, 1)
        p = CharnessRabinParams.uniform(2, 0, F(1, 2))
        assert charness_rabin_utility(d, ("C", "D"), 0, p) == -1

    def test_pure_maximin(self):
        d = make_prisoners_dilemma(4, 1)
        p = CharnessRabinParams.uniform(2, 1, 1)
        assert charness_rabin_utility(d, ("C", "D"), 0, p) == -1
        assert charness_rabin_utility(d, ("D", "D"), 0, p) == 0

    def test_mixed_weights(self):
        d = make_prisoners_dilemma(4, 1)
        p = CharnessRabinParams.uniform(2, F(1, 2), F(1, 2))
        assert charness_rabin_utility(d, ("C", "C"), 0, p) == F(15, 4)

    def test_weight_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CharnessRabinParams.uniform(2, 2, 0)

    def test_lengths_checked(self):
        with pytest.raises(ValueError, match=r"^need one \(a_cr, d_cr\) pair per player$"):
            CharnessRabinParams((0, 0), (0,))
        with pytest.raises(ValueError, match="^parameter vectors do not match the player count$"):
            charness_rabin_utility(make_prisoners_dilemma(4, 1), ("C", "D"), 0,
                                   CharnessRabinParams.uniform(3, 0, 0))


class TestLogitQre:
    def test_lambda_zero_is_uniform(self):
        d = make_travelers_dilemma(2, 6, 2)
        res = logit_qre(d, 0)
        assert res.converged
        for dist in res.distributions:
            for p in dist.values():
                assert abs(p - 0.2) < 1e-12

    def test_pd_matches_analytic_fixed_point(self):
        # In the prisoner's dilemma the payoff gap between defecting and
        # cooperating is the cost c regardless of the opponent, so the logit
        # fixed point is sigma(C) = 1 / (1 + exp(lambda * c)) exactly.
        for b, c in [(4, 1), (10, 1), (3, 2)]:
            d = make_prisoners_dilemma(b, c)
            for lam in (0.0, 0.5, 2.0, 10.0, 50.0):
                res = logit_qre(d, lam)
                assert res.converged
                expected = 1 / (1 + math.exp(lam * c))
                assert abs(res.prob(0, "C") - expected) < 1e-9

    def test_pd_cooperation_below_half_and_decreasing(self):
        d = make_prisoners_dilemma(4, 1)
        probs = []
        for lam in np.arange(0.0, 10.5, 0.5):
            res = logit_qre(d, float(lam))
            assert res.converged
            p = res.prob(0, "C")
            assert p <= 0.5 + 1e-10
            if lam > 0:
                assert p < 0.5
            probs.append(p)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_matching_pennies_stays_uniform(self):
        table = {("H", "H"): (1, -1), ("H", "T"): (-1, 1),
                 ("T", "H"): (-1, 1), ("T", "T"): (1, -1)}
        game = NormalFormGame(2, (("H", "T"), ("H", "T")),
                              lambda profile, i: table[profile][i])
        res = logit_qre(game, 3.0)
        assert res.converged
        assert abs(res.prob(0, "H") - 0.5) < 1e-9

    def test_larger_games_converge(self):
        res = logit_qre(make_travelers_dilemma(2, 40, 5), 0.3)
        assert res.converged
        assert abs(sum(res.distributions[0].values()) - 1) < 1e-12
        res = logit_qre(make_bertrand(2, 2, 30), 0.2)
        assert res.converged

    def test_response_preserves_normalization(self):
        rng = random.Random(7)
        d = make_travelers_dilemma(2, 12, 4)
        table = np.array([[float(d.game.payoff((a, b), 0))
                           for b in d.game.strategy_sets[1]]
                          for a in d.game.strategy_sets[0]])
        ops = [lambda sigmas, t=table: t @ sigmas[1],
               lambda sigmas, t=table: t.T @ sigmas[0]]
        for _ in range(25):
            raw = [np.array([rng.random() for _ in range(11)]) for _ in range(2)]
            sigmas = [r / r.sum() for r in raw]
            for r in _logit_response(ops, sigmas, 0.7):
                assert abs(float(r.sum()) - 1) < 1e-12

    def test_nonconvergence_is_reported(self):
        d = make_prisoners_dilemma(4, 1)
        res = logit_qre(d, 50.0, max_iter=2)
        assert not res.converged
        assert res.residual > 1e-10

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            logit_qre(make_bertrand(4, 2, 100), 1.0, budget=10_000)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError, match="nonnegative"):
            logit_qre(make_prisoners_dilemma(4, 1), -1.0)

    @pytest.mark.parametrize("damping", [0, -0.5, 1.5])
    def test_rejects_damping_outside_the_unit_interval(self, damping):
        with pytest.raises(ValueError, match=r"^damping must lie in \(0, 1\]$"):
            logit_qre(make_prisoners_dilemma(4, 1), 1.0, damping=damping)


# small symmetric games of all four kinds
SYMMETRIC = st.one_of(
    st.integers(1, 7).flatmap(lambda c: st.builds(
        lambda b: ("pd", {"b": b, "c": c}), st.integers(c + 1, 9))),
    st.integers(1, 3).flatmap(lambda l: st.builds(
        lambda h, bonus: ("td", {"l": l, "h": h, "bonus": bonus}),
        st.integers(l + 1, l + 5), st.fractions(F(1, 2), 8, max_denominator=4))),
    st.integers(2, 3).flatmap(lambda n: st.builds(
        lambda k, grid: ("pgg", {"n": n, "rho": F(n + k, 2 * n), "grid": grid}),
        st.integers(1, n - 1), st.integers(1, 3))),
    st.integers(2, 3).flatmap(lambda n: st.builds(
        lambda l, h: ("bertrand", {"n": n, "l": l, "h": h}),
        st.integers(2, 3), st.integers(4, 7))),
)


@settings(max_examples=80, deadline=None)
@given(SYMMETRIC, st.sampled_from([0, 0.1, 0.5, 1, 2.5, 8, 50, 1e300]),
       st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([3, 400]))
def test_one_vector_equals_the_per_player_loop(case, lam, damping, max_iter):
    """In a symmetric game the one iterated vector is, bit for bit, what the
    per-player loop gives every player: distributions, residual, iteration
    count and verdict (a run cut off by the iteration cap too)."""
    d = make_dilemma(*case)
    fast = logit_qre(d, lam, damping=damping, max_iter=max_iter)
    slow = logit_qre_per_player(d, lam, damping=damping, max_iter=max_iter)
    assert repr(fast) == repr(slow)


def test_asymmetric_game_iterates_every_player():
    # battle of the sexes: each player leans to their own favourite, so one
    # shared vector would be wrong
    table = {("A", "A"): (2, 1), ("A", "B"): (0, 0),
             ("B", "A"): (0, 0), ("B", "B"): (1, 2)}
    game = NormalFormGame(2, (("A", "B"), ("A", "B")),
                          lambda profile, i: table[profile][i])
    fast, slow = logit_qre(game, 2.0), logit_qre_per_player(game, 2.0)
    assert repr(fast) == repr(slow)
    assert fast.prob(0, "A") > 0.5 > fast.prob(1, "A")


@st.composite
def asymmetric_games(draw):
    """2-4 players with 1-4 strategies each, every payoff a random exact
    fraction drawn per player and profile."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    payoffs = draw(st.lists(
        st.lists(st.fractions(-50, 50, max_denominator=12),
                 min_size=len(sizes), max_size=len(sizes)),
        min_size=math.prod(sizes), max_size=math.prod(sizes)))
    strategy_sets = [tuple(range(size)) for size in sizes]
    table = dict(zip(itertools.product(*strategy_sets), payoffs))
    return NormalFormGame(len(sizes), strategy_sets,
                          lambda profile, i: table[profile][i])


@settings(max_examples=150, deadline=None)
@given(asymmetric_games())
def test_asymmetric_tables_equal_the_per_profile_loop(game):
    """A non-symmetric game's tables, read from its integer table, are bit
    for bit the per-profile floats of the exact payoffs, C-contiguous."""
    fast, slow = _payoff_tables(game), payoff_tables_by_profile(game)
    assert len(fast) == len(slow) == game.num_players
    for a, b in zip(fast, slow):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.flags["C_CONTIGUOUS"]
        assert a.tobytes() == b.tobytes()


def test_package_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(translucent.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, translucent, translucent.cli; "
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
