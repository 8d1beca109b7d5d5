"""Tests for the belief model and the brute-force rationality engine."""

import importlib
import pkgutil
import re
from fractions import Fraction as F

import pytest

import beliefs_oracle as oracle
import translucent
from beliefs_oracle import (
    expected_utility_by_counts,
    expected_utility_cooperate,
    expected_utility_deviation,
    on_path_beliefs,
)
from translucent import equilibrium
from translucent.beliefs import (
    CooperationScanner,
    TranslucentType,
    is_cooperation_rational,
)
from translucent.counterfactual import CounterfactualStructure
from translucent.games import (
    NormalFormGame,
    SocialDilemma,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

UNIT_GRID = [F(k, 4) for k in range(5)]


def product_model(t, n):
    """Post-deviation beliefs in product form, the mixture left unexpanded."""
    return oracle.deviation_belief_mixture(t, n, budget=1)


def small_dilemmas():
    return [
        make_prisoners_dilemma(4, 1),
        make_public_goods(3, F(1, 2), grid=5),
        make_bertrand(2, 2, 8),
        make_travelers_dilemma(2, 9, 3),
    ]


class TestTranslucentType:
    def test_bounds(self):
        TranslucentType(0, 1)
        with pytest.raises(ValueError, match="alpha"):
            TranslucentType(F(3, 2), F(1, 2))
        with pytest.raises(ValueError, match="beta"):
            TranslucentType(F(1, 2), -1)


class TestOnPathBeliefs:
    def test_point_mass_at_beta_one(self):
        model = on_path_beliefs(TranslucentType(F(1, 2), 1), 3)
        dist = dict(oracle.profile_distribution(model))
        assert dist[(True, True)] == 1
        assert sum(1 for p in dist.values() if p > 0) == 1

    def test_symmetric_half(self):
        model = on_path_beliefs(TranslucentType(0, F(1, 2)), 3)
        for _, p in oracle.profile_distribution(model):
            assert p == F(1, 4)

    def test_binomial_weights(self):
        model = on_path_beliefs(TranslucentType(0, F(3, 10)), 4)
        # a fixed pattern with two cooperators among three others
        dist = dict(oracle.profile_distribution(model))
        assert dist[(True, True, False)] == F(3, 10) ** 2 * F(7, 10)
        counts = model.count_distribution()
        assert counts[2] == 3 * F(3, 10) ** 2 * F(7, 10)
        assert sum(counts) == 1


class TestDeviationMixture:
    def test_full_detection(self):
        model = product_model(TranslucentType(1, F(7, 10)), 2)
        assert model.cooperate_probs == (0,)

    def test_opacity_matches_on_path(self):
        t = TranslucentType(0, F(1, 2))
        assert (product_model(t, 2).cooperate_probs
                == on_path_beliefs(t, 2).cooperate_probs)

    def test_subset_sum_matches_product(self):
        t = TranslucentType(F(1, 2), F(4, 5))
        model = product_model(t, 3)
        assert model.cooperate_probs == (F(2, 5), F(2, 5))
        mixture = oracle.deviation_mixture_distribution(t, 3)
        assert len(mixture) == 4
        for pattern, p in oracle.profile_distribution(model):
            assert mixture[pattern] == p
        # the oracle's self-checking form expands the mixture and agrees
        assert oracle.deviation_belief_mixture(t, 3) == model

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_mixture_product_equivalence(self, n):
        for alpha in UNIT_GRID:
            for beta in UNIT_GRID:
                self._assert_equivalence(TranslucentType(alpha, beta), n)

    @pytest.mark.parametrize("n,pairs", [
        (10, [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4))]),
        (12, [(F(2, 5), F(7, 10))]),
    ])
    def test_mixture_product_equivalence_large(self, n, pairs):
        # The expansion is O(3^(n-1)); spot pairs keep the largest sizes fast.
        for alpha, beta in pairs:
            self._assert_equivalence(TranslucentType(alpha, beta), n)

    @staticmethod
    def _assert_equivalence(t, n):
        mixture = oracle.deviation_mixture_distribution(t, n)
        product = dict(oracle.profile_distribution(product_model(t, n)))
        for pattern, p in product.items():
            assert mixture.get(pattern, F(0)) == p
        assert sum(mixture.values()) == 1


class TestExpectedUtilities:
    def test_pd_cooperate(self):
        d = make_prisoners_dilemma(4, 1)
        assert expected_utility_cooperate(d, 0, TranslucentType(F(1, 2), F(1, 2))) == 1

    def test_pgg_cooperate(self):
        d = make_public_goods(4, F(1, 2), grid=4)
        t = TranslucentType(F(2, 5), F(9, 10))
        assert expected_utility_cooperate(d, 0, t) == F(1, 2) * (1 + F(9, 10) * 3)

    def test_bertrand_cooperate(self):
        d = make_bertrand(2, 2, 100)
        t = TranslucentType(F(1, 2), F(9, 10))
        assert expected_utility_cooperate(d, 0, t) == 45

    def test_pd_deviation(self):
        d = make_prisoners_dilemma(4, 1)
        t = TranslucentType(F(1, 2), F(1, 2))
        assert expected_utility_deviation(d, 0, t, "D") == 1

    def test_pgg_deviation(self):
        d = make_public_goods(4, F(1, 2), grid=4)
        t = TranslucentType(F(2, 5), F(9, 10))
        assert expected_utility_deviation(d, 0, t, F(0)) == 1 + F(1, 2) * F(3, 5) * F(9, 10) * 3

    def test_td_deviation_to_low_claim(self):
        d = make_travelers_dilemma(2, 100, 10)
        t = TranslucentType(F(3, 5), F(1, 2))
        assert expected_utility_deviation(d, 0, t, 2) == 4

    @pytest.mark.parametrize("d", small_dilemmas(), ids=lambda d: d.kind)
    def test_counts_equal_enumeration(self, d):
        # the count form against the pattern form, on-path and after a
        # deviation, for every strategy
        for alpha in UNIT_GRID:
            for beta in UNIT_GRID:
                t = TranslucentType(alpha, beta)
                for model in (on_path_beliefs(t, d.num_players),
                              product_model(t, d.num_players)):
                    for s in d.game.strategy_sets[0]:
                        assert (expected_utility_by_counts(d, 0, s, model)
                                == oracle.expected_utility(d, 0, s, model))

    @pytest.mark.parametrize("d", small_dilemmas(), ids=lambda d: d.kind)
    def test_scanner_rows_are_payoff_vs_counts(self, d):
        # every strategy's dense row, the cooperation row among them; the
        # deviations the scanner keeps are their sparse forms
        scanner = CooperationScanner(d)
        strategies = d.game.strategy_sets[0]
        assert len(scanner.rows) == len(strategies)
        for s, row in zip(strategies, scanner.rows):
            assert row == [oracle.payoff_vs_counts(d, 0, s, k) * scanner.scale
                           for k in range(d.num_players)]
        assert scanner.coop_row is scanner.rows[strategies.index(d.cooperate_strategy(0))]
        for s, sparse in scanner.deviations:
            row = scanner.rows[strategies.index(s)]
            assert list(sparse) == [(k, u) for k, u in enumerate(row) if u]

    @pytest.mark.parametrize("n", list(range(2, 11)))
    def test_counts_equal_enumeration_many_players(self, n):
        d = make_public_goods(n, F(3, 4) if n == 2 else F(2, 3), grid=2)
        t = TranslucentType(F(1, 3), F(2, 3))
        model = on_path_beliefs(t, n)
        for s in d.game.strategy_sets[0]:
            assert (expected_utility_by_counts(d, 0, s, model)
                    == oracle.expected_utility(d, 0, s, model))

    @pytest.mark.parametrize("d", small_dilemmas(), ids=lambda d: d.kind)
    def test_cooperation_payoff_nondecreasing_in_beta(self, d):
        for alpha in UNIT_GRID:
            values = [expected_utility_cooperate(d, 0, TranslucentType(alpha, beta))
                      for beta in UNIT_GRID]
            assert all(a <= b for a, b in zip(values, values[1:]))


class TestRationalityVerdicts:
    def test_pd_boundary_is_rational(self):
        d = make_prisoners_dilemma(4, 1)
        report = is_cooperation_rational(d, 0, TranslucentType(F(1, 2), F(1, 2)))
        assert report.rational
        assert report.eu_cooperate == 1
        assert report.eu_best_deviation == 1
        assert report.best_deviation == "D"

    @pytest.mark.parametrize("d", small_dilemmas(), ids=lambda d: d.kind)
    def test_opaque_players_never_cooperate(self, d):
        for beta in UNIT_GRID:
            report = is_cooperation_rational(d, 0, TranslucentType(0, beta))
            assert not report.rational

    def test_td_bonus_threshold(self):
        d70 = make_travelers_dilemma(2, 100, 70)
        d71 = make_travelers_dilemma(2, 100, 71)
        t = TranslucentType(F(3, 5), F(1, 2))
        assert is_cooperation_rational(d70, 0, t).rational
        assert not is_cooperation_rational(d71, 0, t).rational

    def test_accepts_bare_pair(self):
        d = make_prisoners_dilemma(4, 1)
        assert is_cooperation_rational(d, 0, (F(1, 2), F(1, 2))).rational

    @pytest.mark.parametrize("d", small_dilemmas(), ids=lambda d: d.kind)
    def test_alpha_zero_reduces_to_standard_best_response(self, d):
        # With alpha = 0 the deviation beliefs equal the on-path beliefs, so
        # the verdict must match the classical best-response test.
        for beta in UNIT_GRID:
            t = TranslucentType(0, beta)
            model = on_path_beliefs(t, d.num_players)
            eu_coop = expected_utility_by_counts(d, 0, d.cooperate_strategy(0), model)
            standard = all(
                eu_coop >= expected_utility_by_counts(d, 0, s, model)
                for s in d.game.strategy_sets[0]
            )
            assert is_cooperation_rational(d, 0, t).rational == standard

    def test_scanner_matches_definitional_path_on_random_inputs(self):
        # the grid engine uses hand-rolled integer arithmetic; pin it to the
        # per-pattern enumeration on random games and types
        import random

        rng = random.Random(11)
        dilemmas = [
            make_prisoners_dilemma(F(7, 2), F(3, 2)),
            make_public_goods(3, F(5, 9), grid=3),
            make_bertrand(3, 2, 7),
            make_travelers_dilemma(2, 11, 4),
        ]
        scanners = [(d, CooperationScanner(d)) for d in dilemmas]
        for _ in range(200):
            d, scanner = rng.choice(scanners)
            t = TranslucentType(F(rng.randrange(0, 8), 7),
                                F(rng.randrange(0, 8), 7))
            fast = scanner.verdict(t)
            slow = oracle.is_cooperation_rational(d, 0, t)
            assert fast.rational == slow.rational
            assert fast.eu_cooperate == slow.eu_cooperate
            assert fast.eu_best_deviation == slow.eu_best_deviation
            assert fast.best_deviation == slow.best_deviation

    def test_td_best_deviation_is_low_or_high_minus_one(self):
        d = make_travelers_dilemma(2, 30, 5)
        l, h = 2, 30
        for alpha in UNIT_GRID:
            for beta in UNIT_GRID:
                report = is_cooperation_rational(d, 0, TranslucentType(alpha, beta))
                dev_model = product_model(TranslucentType(alpha, beta), 2)
                best = report.eu_best_deviation
                by_hand = max(expected_utility_by_counts(d, 0, x, dev_model)
                              for x in range(l, h))
                assert best == by_hand
                assert best in (
                    expected_utility_by_counts(d, 0, l, dev_model),
                    expected_utility_by_counts(d, 0, h - 1, dev_model),
                )


class TestPlayerIndex:
    @pytest.mark.parametrize("i", [3, -1])
    def test_index_outside_the_game_is_named(self, i):
        d = make_public_goods(3, F(1, 2), grid=2)
        message = re.escape(f"player index {i} out of range 0..2")
        with pytest.raises(IndexError, match=message):
            CooperationScanner(d, i)
        with pytest.raises(IndexError, match=message):
            is_cooperation_rational(d, i, (F(1, 2), F(1, 2)))

    def test_index_is_checked_before_symmetry(self):
        d = TestSymmetricOnly.asymmetric_pd()
        with pytest.raises(IndexError, match="player index 2 out of range 0..1"):
            CooperationScanner(d, 2)


class TestSymmetricOnly:
    """The engine aggregates over cooperator counts, which is only right
    when payoffs depend on the multiset of the others' strategies."""

    @staticmethod
    def asymmetric_pd():
        # player 1's benefit from player 0 is doubled: payoffs depend on who
        # cooperates, not only on how many
        def rule(profile, i):
            gain = (4 if i == 0 else 8) if profile[1 - i] == "C" else 0
            return F(gain - (1 if profile[i] == "C" else 0))

        game = NormalFormGame(2, (("C", "D"), ("C", "D")), rule, name="apd")
        return SocialDilemma(game, "pd", {}, ("D", "D"), ("C", "C"))

    def test_engine_rejects_non_symmetric_dilemma(self):
        d = self.asymmetric_pd()
        t = TranslucentType(F(1, 2), F(1, 2))
        with pytest.raises(ValueError, match="symmetric"):
            is_cooperation_rational(d, 0, t)
        with pytest.raises(ValueError, match="symmetric"):
            expected_utility_cooperate(d, 1, t)
        with pytest.raises(ValueError, match="symmetric"):
            expected_utility_by_counts(d, 0, "D", on_path_beliefs(t, 2))

    def test_oracle_still_evaluates_it(self):
        d = self.asymmetric_pd()
        t = TranslucentType(F(1, 2), F(1, 2))
        assert oracle.is_cooperation_rational(d, 1, t).eu_cooperate == 3


class TestExports:
    """The package's names resolve, and the count-form helpers and the count
    model that moved to beliefs_oracle are gone from the library."""

    REMOVED = ("on_path_beliefs", "deviation_belief_mixture", "expected_utility",
               "expected_utility_cooperate", "expected_utility_deviation",
               "OthersBehaviorModel")

    def test_every_export_resolves(self):
        names = list(translucent._EXPORTS)  # the name -> module table
        assert "CooperationScanner" in names and "te_condition" in names
        for name in names:
            assert getattr(translucent, name).__module__.startswith("translucent.")
        for name in equilibrium.__all__:
            assert getattr(equilibrium, name) is not None

    def test_removed_names_are_gone(self):
        modules = [translucent] + [importlib.import_module(f"translucent.{info.name}")
                                   for info in pkgutil.iter_modules(translucent.__path__)]
        assert {m.__name__ for m in modules} >= {"translucent.beliefs", "translucent.cli"}
        for module in modules:
            for name in self.REMOVED:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        for name in self.REMOVED:
            with pytest.raises(ImportError):
                exec(f"from translucent import {name}", {})
        assert not hasattr(SocialDilemma, "payoff_vs_counts")
        assert not hasattr(CounterfactualStructure, "strat")
