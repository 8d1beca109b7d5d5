"""Tests for the game factories, payoff rules, and axiom verification."""

import itertools
from fractions import Fraction as F

import pytest

from translucent.games import (
    BudgetExceededError,
    MixedProfile,
    NormalFormGame,
    dilemma_from_json,
    dilemma_to_json,
    enumerate_pure_nash,
    make_bertrand,
    make_dilemma,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
    minimize_payoff,
    payoff,
    verify_social_dilemma,
)


def bertrand_game_with_floor(n, l, h):
    """Raw bertrand-rule game without the factory's floor restriction."""
    prices = tuple(range(l, h + 1))

    def rule(profile, i):
        low = min(profile)
        if profile[i] != low:
            return F(0)
        return F(low, profile.count(low))

    return NormalFormGame(n, (prices,) * n, rule, symmetric=True)


class TestPrisonersDilemma:
    def test_payoff_table(self):
        d = make_prisoners_dilemma(4, 1)
        assert d.game.payoffs(("C", "C")) == (3, 3)
        assert d.game.payoffs(("D", "D")) == (0, 0)
        assert d.game.payoffs(("C", "D")) == (-1, 4)
        assert d.game.payoffs(("D", "C")) == (4, -1)

    def test_labels(self):
        d = make_prisoners_dilemma(4, 1)
        assert d.nash_profile == ("D", "D")
        assert d.welfare_profile == ("C", "C")
        assert d.cooperate_strategy(0) == "C"
        assert d.defect_strategy(1) == "D"

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="benefit must exceed cost"):
            make_prisoners_dilemma(1, 1)
        with pytest.raises(ValueError, match="benefit must exceed cost"):
            make_prisoners_dilemma(1, 2)
        with pytest.raises(ValueError, match="cost must be positive"):
            make_prisoners_dilemma(4, 0)


class TestPublicGoods:
    def test_formula(self):
        d = make_public_goods(2, F(6, 10))
        assert d.payoff((F(1), F(1)), 0) == F(12, 10)
        d3 = make_public_goods(3, F(1, 2))
        assert d3.payoff((F(0), F(0), F(0)), 1) == 1

    def test_half_contribution(self):
        d = make_public_goods(2, F(6, 10))
        assert d.payoff((F(1, 2), F(1)), 0) == F(14, 10)

    def test_grid(self):
        d = make_public_goods(2, F(6, 10), grid=10)
        assert len(d.game.strategy_sets[0]) == 11
        assert d.game.strategy_sets[0][1] == F(1, 10)

    def test_unique_nash_by_enumeration(self):
        d = make_public_goods(2, F(6, 10), grid=10)
        report = verify_social_dilemma(d)
        assert report.unique_nash == (0, 0)
        assert report.unique_welfare == (1, 1)
        assert report.is_social_dilemma

    def test_unique_nash_on_whole_cent_grid(self):
        # the default grid: 101^2 profiles enumerated exhaustively
        report = verify_social_dilemma(make_public_goods(2, F(6, 10)))
        assert report.unique_nash == (0, 0)
        assert report.unique_welfare == (1, 1)

    def test_rejects_rho_out_of_range(self):
        with pytest.raises(ValueError, match="strictly between"):
            make_public_goods(2, F(1, 2))
        with pytest.raises(ValueError, match="strictly between"):
            make_public_goods(2, 1)
        with pytest.raises(ValueError, match="strictly between"):
            make_public_goods(4, F(1, 8))


class TestBertrand:
    def test_undercut(self):
        d = make_bertrand(2, 2, 100)
        assert d.game.payoffs((3, 5)) == (3, 0)

    def test_tie_split(self):
        d = make_bertrand(3, 2, 10)
        assert d.game.payoffs((4, 4, 9)) == (2, 2, 0)

    def test_tie_payoffs_sum_to_lowest_price(self):
        d = make_bertrand(3, 2, 5)
        for profile in d.game.profiles():
            assert sum(d.game.payoffs(profile)) == min(profile)

    def test_rejects_low_floor(self):
        with pytest.raises(ValueError, match="not unique"):
            make_bertrand(2, 1, 100)
        with pytest.raises(ValueError, match="not unique"):
            make_bertrand(2, 0, 5)

    def test_floor_one_has_two_nash(self):
        game = bertrand_game_with_floor(2, 1, 5)
        nash = enumerate_pure_nash(game)
        assert nash == [(1, 1), (2, 2)]
        report = verify_social_dilemma(game)
        assert report.unique_nash is None
        assert not report.is_social_dilemma

    def test_verified_social_dilemma(self):
        report = verify_social_dilemma(make_bertrand(2, 2, 6))
        assert report.unique_nash == (2, 2)
        assert report.unique_welfare == (6, 6)
        assert report.is_social_dilemma


class TestTravelersDilemma:
    def test_unequal_claims(self):
        d = make_travelers_dilemma(2, 100, 10)
        assert d.game.payoffs((50, 60)) == (60, 40)

    def test_equal_claims(self):
        d = make_travelers_dilemma(2, 100, 10)
        assert d.game.payoffs((80, 80)) == (80, 80)

    def test_negative_payoff_allowed(self):
        d = make_travelers_dilemma(2, 100, 10)
        assert d.payoff((2, 100), 1) == -8

    def test_antisymmetry(self):
        d = make_travelers_dilemma(2, 8, 3)
        for a in range(2, 9):
            for b in range(2, 9):
                assert d.game.payoffs((a, b)) == tuple(reversed(d.game.payoffs((b, a))))

    def test_nash_and_welfare(self):
        report = verify_social_dilemma(make_travelers_dilemma(2, 8, 2))
        assert report.unique_nash == (2, 2)
        assert report.unique_welfare == (8, 8)
        assert report.is_social_dilemma

    def test_small_bonus_breaks_uniqueness(self):
        # With bonus <= 1 the high-claim pair is a second Nash profile.
        report = verify_social_dilemma(make_travelers_dilemma(2, 6, 1))
        assert (6, 6) in report.nash_equilibria
        assert report.unique_nash is None

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="0 < l < h"):
            make_travelers_dilemma(5, 5, 2)
        with pytest.raises(ValueError, match="bonus must be positive"):
            make_travelers_dilemma(2, 10, 0)


class TestPayoffPlumbing:
    def test_payoff_function(self):
        d = make_prisoners_dilemma(4, 1)
        assert payoff(d, ("D", "C"), 0) == 4
        assert payoff(d.game, ("D", "C"), 1) == -1

    def test_mismatched_profile(self):
        d = make_prisoners_dilemma(4, 1)
        with pytest.raises(ValueError, match="not a strategy"):
            payoff(d, ("C", "X"), 0)
        with pytest.raises(ValueError, match="2 players"):
            payoff(d, ("C",), 0)
        with pytest.raises(IndexError):
            payoff(d, ("C", "C"), 2)

    def test_strategy_lookup(self):
        d = make_travelers_dilemma(2, 9, 3)
        assert d.game.strategy_index(0, 2) == 0
        assert d.game.strategy_index(1, 9) == 7
        assert d.game.strategy_index(1, F(5)) == 3  # equal values, same key
        for bad in (10, "C", [2], None):
            with pytest.raises(ValueError) as err:
                d.game.strategy_index(1, bad)
            assert str(err.value) == f"{bad!r} is not a strategy of player 1"
            with pytest.raises(ValueError) as err:
                d.game.payoff((2, bad), 0)
            assert str(err.value) == f"{bad!r} is not a strategy of player 1"
        with pytest.raises(IndexError):
            d.game.strategy_index(2, 2)

    def test_index_map_outside_equality(self):
        a = make_prisoners_dilemma(4, 1).game
        b = make_prisoners_dilemma(4, 1).game
        assert a == b and "_index" not in repr(a)
        assert a.strategy_index(1, "D") == 1

    def test_payoff_vs_counts_matches_rule(self):
        d = make_public_goods(3, F(1, 2), grid=4)
        # one cooperator among the others, representative profile
        assert d.payoff_vs_counts(1, F(1, 2), 1) == d.payoff((F(1), F(1, 2), F(0)), 1)


class TestVerification:
    def test_pd_report(self):
        report = verify_social_dilemma(make_prisoners_dilemma(4, 1))
        assert report.unique_nash == ("D", "D")
        assert report.unique_welfare == ("C", "C")
        assert report.dominance_ok

    def test_pgg_welfare_identity(self):
        d = make_public_goods(3, F(3, 5), grid=4)
        n, rho = 3, F(3, 5)
        for profile in d.game.profiles():
            total = sum(d.game.payoffs(profile))
            assert total == n - (1 - rho * n) * sum(profile)

    def test_budget_error_names_required_count(self):
        d = make_bertrand(2, 2, 200)
        with pytest.raises(BudgetExceededError, match="39601"):
            verify_social_dilemma(d, budget=1000)

    def test_all_factories_pass_at_desk_scale(self):
        cases = [
            make_prisoners_dilemma(4, 1),
            make_prisoners_dilemma(F(3, 2), F(1, 2)),
            make_public_goods(2, F(6, 10), grid=8),
            make_public_goods(3, F(1, 2), grid=4),
            make_bertrand(2, 2, 8),
            make_bertrand(3, 3, 7),
            make_travelers_dilemma(2, 9, 2),
            make_travelers_dilemma(1, 6, 5),
        ]
        for d in cases:
            report = verify_social_dilemma(d)
            assert report.unique_nash == d.nash_profile, d.kind
            assert report.unique_welfare == d.welfare_profile, d.kind
            assert report.dominance_ok, d.kind


class TestMinimizePayoff:
    def test_bertrand_floor(self):
        d = make_bertrand(3, 2, 6)
        assert minimize_payoff(d.game, 0, 4) == (0, (2, 2))
        assert minimize_payoff(d.game, 0, 2)[0] == F(2, 3)

    def test_matches_full_enumeration(self):
        d = make_travelers_dilemma(2, 7, 3)
        game = d.game
        for s in game.strategy_sets[0]:
            brute = min(game.payoff((s, y), 0) for y in game.strategy_sets[1])
            assert minimize_payoff(game, 0, s)[0] == brute

    @pytest.mark.parametrize("d", [
        make_prisoners_dilemma(4, 1),
        make_travelers_dilemma(2, 7, 3),
        make_public_goods(3, F(3, 5), grid=2),
        make_public_goods(4, F(2, 5), grid=1),
        make_bertrand(2, 2, 6),
        make_bertrand(3, 2, 5),
    ], ids=lambda d: f"{d.kind}{d.num_players}")
    def test_multiset_minimiser_is_smallest_product_minimiser(self, d):
        game = d.game
        assert game.symmetric
        for i in range(game.num_players):
            others = [j for j in range(game.num_players) if j != i]
            for s in game.strategy_sets[i]:
                best, first = None, None
                for combo in itertools.product(*(game.strategy_sets[j] for j in others)):
                    profile = list(combo)
                    profile.insert(i, s)
                    u = game.payoff(tuple(profile), i)
                    if best is None or u < best:
                        best, first = u, combo
                assert minimize_payoff(game, i, s) == (best, first)


class TestMixedProfile:
    def test_two_point(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(3, 10), F(1, 2)])
        assert sigma.prob(0, "C") == F(3, 10)
        assert sigma.prob(1, "D") == F(1, 2)
        assert sigma.expected_payoff(0, "C") == F(1, 2) * 3 + F(1, 2) * (-1)

    def test_support_trims_zeros(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [0, 1])
        assert sigma.support(0) == ("D",)
        assert sigma.support(1) == ("C",)

    def test_rejects_bad_distribution(self):
        d = make_prisoners_dilemma(4, 1)
        with pytest.raises(ValueError, match="sum to 1"):
            MixedProfile(d.game, [{"C": F(1, 2)}, {"D": 1}])
        with pytest.raises(ValueError, match="not a strategy"):
            MixedProfile(d.game, [{"X": 1}, {"D": 1}])


class TestJsonRoundtrip:
    @pytest.mark.parametrize("kind,params", [
        ("pd", {"b": 4, "c": 1}),
        ("pgg", {"n": 3, "rho": F(1, 2), "grid": 10}),
        ("bertrand", {"n": 2, "l": 2, "h": 50}),
        ("td", {"l": 2, "h": 100, "bonus": 10}),
    ])
    def test_roundtrip(self, kind, params):
        d = make_dilemma(kind, params)
        doc = dilemma_to_json(d)
        assert doc["kind"] == kind
        back = dilemma_from_json(doc)
        assert back.kind == d.kind
        assert back.nash_profile == d.nash_profile
        assert back.game.strategy_sets == d.game.strategy_sets

    def test_parse_from_text(self):
        d = dilemma_from_json('{"kind": "pgg", "params": {"n": 2, "rho": 0.6}, "grid": 10}')
        assert d.params["rho"] == F(3, 5)
        assert d.params["grid"] == 10

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing 'params'"):
            dilemma_from_json('{"kind": "pd"}')
