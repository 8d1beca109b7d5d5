"""Tests for the game factories, parameter domains, payoff rules, and axiom
verification."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefs_oracle
from translucent.closed_form import cooperation_condition
from translucent.equilibrium import te_condition
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
    td_params,
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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 12), st.data())
    def test_rule_is_the_fraction_formula(self, n, grid, data):
        # the rule sums the levels' grid numerators; the formula in Fractions,
        # also on ints and floats equal to a level, which payoff() admits
        rho = data.draw(st.fractions(F(1, n), 1, max_denominator=24)
                        .filter(lambda r: F(1, n) < r < 1), label="rho")
        d = make_public_goods(n, rho, grid=grid)
        levels = d.game.strategy_sets[0]
        equal = (0, 1) + tuple(float(x) for x in levels if F(float(x)) == x)
        profile = tuple(data.draw(st.lists(st.sampled_from(levels + equal),
                                           min_size=n, max_size=n), label="profile"))
        for i in range(n):
            got = d.game.payoff_rule(profile, i)
            assert type(got) is F
            assert got == 1 - F(profile[i]) + rho * sum(map(F, profile))
            assert d.payoff(profile, i) == got

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

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="^grid must have at least one step$"):
            make_public_goods(3, "1/2", 0)

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

    def test_int_bonus_stays_an_int_for_the_closed_forms(self):
        # the closed forms read only its integer ratio; the game's params
        # keep Fractions, and its payoffs too, while the rule computes on
        # integers when the bonus is integral
        assert [type(v) for v in td_params(2, 10, 3)] == [int, int, int]
        assert type(td_params(2, 10, F(3))[2]) is F
        for bonus in (3, F(3), "3.0"):
            d = make_travelers_dilemma(2, 10, bonus)
            assert type(d.params["bonus"]) is F
            assert [d.game.payoff_rule((a, 7), 0) for a in (6, 7, 8)] == [9, 7, 4]
            assert {type(d.game.payoff_rule((a, 7), 0)) for a in (6, 7, 8)} == {int}
            assert {type(d.payoff((a, 7), 0)) for a in (6, 7, 8)} == {F}
        d = make_travelers_dilemma(2, 10, F(5, 2))
        assert [d.game.payoff_rule((a, 7), 0) for a in (6, 7, 8)] == [F(17, 2), 7, F(9, 2)]
        assert {type(d.payoff((a, 7), 0)) for a in (6, 7, 8)} == {F}

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

    @pytest.mark.parametrize("n,sets,symmetric,message", [
        (1, (("C", "D"),), False, "a game needs at least 2 players"),
        (3, (("C", "D"),) * 2, False, "one strategy set per player required"),
        (2, (("C", "D"), ()), False, "strategy set of player 1 is empty"),
        (2, (("C", "D"), ("C", "C")), False, "strategy set of player 1 has duplicates"),
        (2, (("C", "D"), ("C",)), True,
         "a symmetric game needs one strategy set for every player"),
    ])
    def test_construction_refusals(self, n, sets, symmetric, message):
        with pytest.raises(ValueError) as exc:
            NormalFormGame(n, sets, lambda profile, i: F(0), symmetric=symmetric)
        assert str(exc.value) == message

    def test_index_map_outside_equality(self):
        a = make_prisoners_dilemma(4, 1).game
        b = make_prisoners_dilemma(4, 1).game
        assert a == b and "_index" not in repr(a)
        assert a.strategy_index(1, "D") == 1

    def test_payoff_vs_counts_matches_rule(self):
        d = make_public_goods(3, F(1, 2), grid=4)
        # one cooperator among the others, representative profile
        want = d.payoff((F(1), F(1, 2), F(0)), 1)
        assert beliefs_oracle.payoff_vs_counts(d, 1, F(1, 2), 1) == want
        # the library reads it from the multiset memo: own position 2
        # against positions 0 and 4
        assert d._count_multiset(1, 1) == (0, 4)
        assert list(d.game._multisets) == []
        (value,), scale = d.game._multiset_payoffs([(2, (0, 4))])
        assert F(value, scale) == want
        assert list(d.game._multisets) == [(2, (0, 4))]
        asymmetric = NormalFormGame(3, d.game.strategy_sets, d.game.payoff_rule)
        with pytest.raises(ValueError, match="symmetric"):
            beliefs_oracle.payoff_vs_counts(
                type(d)(asymmetric, "pgg", d.params, d.nash_profile, d.welfare_profile),
                1, F(1, 2), 1)


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

    @pytest.mark.parametrize("build,message", [
        (lambda d: MixedProfile(d.game, [{"D": 1}]),
         "one distribution per player required"),
        (lambda d: MixedProfile(d.game, [{"C": -1, "D": 2}, {"D": 1}]),
         "negative probability for player 0"),
        (lambda d: MixedProfile.two_point(d, [F(1, 2)]), "one beta per player required"),
        (lambda d: MixedProfile.two_point(d, [0, F(3, 2)]),
         "beta of player 1 must lie in [0, 1]"),
    ])
    def test_refusals(self, build, message):
        with pytest.raises(ValueError) as exc:
            build(make_prisoners_dilemma(4, 1))
        assert str(exc.value) == message


class TestJsonRoundtrip:
    @pytest.mark.parametrize("kind,params", [
        ("pd", {"b": 4, "c": 1}),
        ("pgg", {"n": 3, "rho": F(1, 2), "grid": 10}),
        ("pgg", {"n": 4, "rho": F(1, 3), "grid": 10}),
        ("pd", {"b": F(10, 3), "c": F(1, 3)}),
        ("bertrand", {"n": 2, "l": 2, "h": 50}),
        ("td", {"l": 2, "h": 100, "bonus": 10}),
    ])
    def test_roundtrip(self, kind, params):
        d = make_dilemma(kind, params)
        doc = dilemma_to_json(d)
        assert doc["kind"] == kind
        back = dilemma_from_json(doc)
        assert back.kind == d.kind
        assert back.params == d.params
        assert back.nash_profile == d.nash_profile
        assert back.game.strategy_sets == d.game.strategy_sets

    def test_parse_from_text(self):
        d = dilemma_from_json('{"kind": "pgg", "params": {"n": 2, "rho": 0.6}, "grid": 10}')
        assert d.params["rho"] == F(3, 5)
        assert d.params["grid"] == 10

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing 'params'"):
            dilemma_from_json('{"kind": "pd"}')

    @pytest.mark.parametrize("build,message", [
        (lambda: dilemma_from_json("[1]"), "game description must be a JSON object"),
        (lambda: make_dilemma("chicken", {}), "unknown dilemma kind 'chicken', "
         "expected one of ('pd', 'pgg', 'bertrand', 'td')"),
    ])
    def test_unknown_shapes_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_constants_refused_by_name(self, constant):
        # Infinity used to reach to_exact and raise OverflowError
        with pytest.raises(ValueError) as exc:
            dilemma_from_json('{"kind": "pd", "params": {"b": %s, "c": 1}}' % constant)
        assert str(exc.value) == (f"$: the JSON constant {constant} is not "
                                  "allowed; every number must be finite")

    def test_decimals_read_exactly(self):
        d = dilemma_from_json('{"kind": "pd", "params": {"b": 0.3, "c": 0.1}}')
        assert (d.params["b"], d.params["c"]) == (F(3, 10), F(1, 10))


class TestParameterDomains:
    """One domain check per kind: integer parameters accept any number whose
    exact value is an integer, and the closed forms and equilibrium
    conditions reject exactly what the factories reject."""

    @pytest.mark.parametrize("kind,params,name", [
        ("bertrand", {"n": 2.9, "l": 2, "h": 10}, "n"),
        ("bertrand", {"n": 2, "l": 2.5, "h": 10}, "l"),
        ("bertrand", {"n": 2, "l": 2, "h": F(21, 2)}, "h"),
        ("pgg", {"n": 2.9, "rho": F(3, 4)}, "n"),
        ("pgg", {"n": 3, "rho": F(3, 4), "grid": 2.7}, "grid"),
        ("td", {"l": 2.5, "h": 10, "bonus": 2}, "l"),
        ("td", {"l": 2.7, "h": 10, "bonus": 2}, "l"),
        ("td", {"l": 2, "h": "10.5", "bonus": 2}, "h"),
    ])
    def test_non_integral_values_rejected(self, kind, params, name):
        message = f"{name} must be an integer"
        with pytest.raises(ValueError, match=message):
            make_dilemma(kind, params)
        with pytest.raises(ValueError, match=message):
            cooperation_condition(kind, params, F(1, 2), F(1, 2))
        with pytest.raises(ValueError, match=message):
            te_condition(kind, params, [F(1, 2)] * int(params.get("n", 2)))

    def test_integral_values_accepted(self):
        d = make_dilemma("bertrand", {"n": F(6, 2), "l": 2.0, "h": "10"})
        assert d.params == {"n": 3, "l": 2, "h": 10}
        assert type(d.params["n"]) is int
        assert d.game.strategy_sets[0] == tuple(range(2, 11))
        assert make_bertrand(F(3), F(2), F(10)) == d
        g = make_public_goods(F(3), F(1, 2), grid=F(4))
        assert g.params["grid"] == 4 and len(g.game.strategy_sets[0]) == 5
        t = make_travelers_dilemma(F(2), 10.0, 2)
        assert t.nash_profile == (2, 2) and t.welfare_profile == (10, 10)
        v = cooperation_condition("td", {"l": F(2), "h": 10.0, "bonus": 2},
                                  F(1, 2), F(1, 2))
        assert v == cooperation_condition("td", {"l": 2, "h": 10, "bonus": 2},
                                          F(1, 2), F(1, 2))

    def test_closed_forms_admit_rho_one_and_say_so(self):
        assert cooperation_condition("pgg", {"n": 3, "rho": 1}, 0, 0).rational
        with pytest.raises(ValueError, match="strictly between"):
            make_dilemma("pgg", {"n": 3, "rho": 1})
        with pytest.raises(ValueError, match=r"must lie in \(1/3, 1\], got 1/3"):
            cooperation_condition("pgg", {"n": 3, "rho": F(1, 3)}, 0, 0)


# values a parameter might be given: mostly small integers, then integral
# and non-integral fractions and floats, numeric strings and garbage
int_values = st.one_of(
    st.integers(min_value=-1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12).map(F),
    st.fractions(min_value=-1, max_value=12, max_denominator=4),
    st.sampled_from([2.0, 2.5, 3.0, 2.9, "3", "5/2", "x", True, None]),
)
real_values = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=6),
    st.integers(min_value=-1, max_value=9),
    st.sampled_from([0.75, 1.0, 1e-3, "3/4", "x", None]),
)
DOMAIN_KEYS = {"pd": ("b", "c"), "td": ("l", "h", "bonus"),
               "pgg": ("n", "rho", "grid"), "bertrand": ("n", "l", "h")}
REAL_KEYS = ("b", "c", "bonus", "rho")


def _outcome(fn):
    try:
        fn()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(DOMAIN_KEYS)), st.data())
def test_factories_and_closed_forms_share_one_domain(kind, data):
    params = {k: data.draw(real_values if k in REAL_KEYS else int_values,
                           label=k)
              for k in DOMAIN_KEYS[kind]}
    built = _outcome(lambda: make_dilemma(kind, params))
    closed = _outcome(lambda: cooperation_condition(kind, params, F(1, 3), F(2, 3)))
    if kind == "pgg" and built is not None and "strictly between" in built[1]:
        # the one intended difference: the closed forms admit rho = 1, and
        # their message states that interval
        n, rho = int(params["n"]), F(params["rho"])
        if rho == 1:  # the rest of the domain still applies
            inside = {**params, "rho": F(n + 1, 2 * n)}
            assert closed == _outcome(lambda: make_dilemma(kind, inside))
        else:
            assert closed == (ValueError, f"marginal return must lie in "
                                          f"(1/{n}, 1], got {rho}")
        return
    assert closed == built
    if closed is None:  # the equilibrium conditions accept the same values
        n = int(F(params.get("n", 2)))
        assert _outcome(lambda: te_condition(kind, params, [F(1, 2)] * n)) is None
