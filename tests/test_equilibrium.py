"""Tests for coherence, translucent equilibrium, and the per-game conditions."""

import random
from fractions import Fraction as F

import pytest

from translucent.beliefs import TranslucentType, is_cooperation_rational
from translucent.closed_form import cooperation_condition
from translucent.counterfactual import (
    build_coherent_structure,
    build_typed_dilemma_structure,
    is_rational_at,
)
from translucent.equilibrium import (
    MixedProfile,
    generalized_f,
    is_coherent,
    is_translucent_equilibrium,
    make_coherence_checker,
    te_condition,
    te_condition_typed,
    te_in_structure,
)
from translucent.closed_form import f_gamma
from translucent.games import (
    enumerate_pure_nash,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

QUARTERS = [F(k, 4) for k in range(5)]
TENTHS = [F(k, 10) for k in range(11)]


class TestCoherence:
    def test_pd_profiles(self):
        d = make_prisoners_dilemma(4, 1)
        assert is_coherent(d, MixedProfile.pure(d.game, ("C", "C"))).coherent
        assert is_coherent(d, MixedProfile.pure(d.game, ("D", "D"))).coherent
        report = is_coherent(d, MixedProfile.pure(d.game, ("C", "D")))
        assert not report.coherent
        assert report.witness == (0, "C", "D")

    def test_two_point_profile(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(3, 10), F(3, 10)])
        assert is_coherent(d, sigma).coherent  # 0.3 * 4 >= 1

    def test_below_threshold(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(2, 10), F(9, 10)])
        assert not is_coherent(d, sigma).coherent


class TestTranslucentEquilibrium:
    @pytest.mark.parametrize("d", [
        make_prisoners_dilemma(4, 1),
        make_public_goods(2, F(3, 5), grid=5),
        make_bertrand(2, 2, 7),
        make_travelers_dilemma(2, 8, 2),
    ], ids=lambda d: d.kind)
    def test_every_pure_nash_is_translucent_equilibrium(self, d):
        for profile in enumerate_pure_nash(d.game):
            sigma = MixedProfile.pure(d.game, profile)
            assert is_translucent_equilibrium(d, sigma, check_structure=True)

    def test_pd_cooperate_defect_is_not(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.pure(d.game, ("C", "D"))
        assert not is_translucent_equilibrium(d, sigma, check_structure=True)

    def test_travelers_high_claims(self):
        d = make_travelers_dilemma(2, 100, 10)
        sigma = MixedProfile.pure(d.game, (100, 100))
        assert is_translucent_equilibrium(d, sigma)

    def test_structure_route_agrees_on_random_two_point_profiles(self):
        rng = random.Random(42)
        dilemmas = [
            make_prisoners_dilemma(4, 1),
            make_prisoners_dilemma(F(3, 2), 1),
            make_public_goods(3, F(3, 5), grid=2),
            make_bertrand(2, 2, 6),
            make_travelers_dilemma(2, 7, 3),
        ]
        checkers = [(d, make_coherence_checker(d)) for d in dilemmas]
        mismatches = 0
        for _ in range(200):
            d, check = rng.choice(checkers)
            betas = [F(rng.randrange(0, 9), 8) for _ in range(d.num_players)]
            sigma = MixedProfile.two_point(d, betas)
            coherent = check(sigma).coherent
            m = build_coherent_structure(d, sigma, strict=False)
            if te_in_structure(m, sigma).holds != coherent:
                mismatches += 1
        assert mismatches == 0


class TestTeCondition:
    def test_pd_examples(self):
        assert te_condition("pd", {"b": 4, "c": 1}, [F(3, 10), F(3, 10)])
        assert not te_condition("pd", {"b": 4, "c": 1}, [F(2, 10), F(9, 10)])
        assert te_condition("pd", {"b": 4, "c": 1}, [0, 0])

    @pytest.mark.parametrize("kind,params", [
        ("pd", {"b": 4, "c": 1}),
        ("td", {"l": 2, "h": 8, "bonus": 2}),
        ("pgg", {"n": 3, "rho": F(3, 5), "grid": 2}),
        ("bertrand", {"n": 3, "l": 2, "h": 5}),
    ])
    def test_all_defect_passes(self, kind, params):
        n = int(params.get("n", 2))
        assert te_condition(kind, params, [0] * n)

    @pytest.mark.parametrize("kind,params,grid", [
        ("pd", {"b": 4, "c": 1}, TENTHS),
        ("pd", {"b": F(3, 2), "c": 1}, TENTHS),
        ("td", {"l": 2, "h": 8, "bonus": 2}, TENTHS),
        ("td", {"l": 2, "h": 8, "bonus": 7}, TENTHS),
    ])
    def test_agrees_with_coherence_two_players(self, kind, params, grid):
        from translucent.games import make_dilemma

        d = make_dilemma(kind, params)
        check = make_coherence_checker(d)
        for b1 in grid:
            for b2 in grid:
                sigma = MixedProfile.two_point(d, [b1, b2])
                assert (te_condition(kind, params, [b1, b2])
                        == check(sigma).coherent), (kind, b1, b2)

    @pytest.mark.parametrize("kind,params", [
        ("pgg", {"n": 3, "rho": F(3, 5), "grid": 2}),
        ("pgg", {"n": 3, "rho": F(2, 5), "grid": 2}),
        ("bertrand", {"n": 3, "l": 2, "h": 5}),
        ("bertrand", {"n": 3, "l": 3, "h": 9}),
    ])
    def test_agrees_with_coherence_three_players(self, kind, params):
        from translucent.games import make_dilemma

        d = make_dilemma(kind, params)
        check = make_coherence_checker(d)
        for b1 in QUARTERS:
            for b2 in QUARTERS:
                for b3 in QUARTERS:
                    betas = [b1, b2, b3]
                    sigma = MixedProfile.two_point(d, betas)
                    assert (te_condition(kind, params, betas)
                            == check(sigma).coherent), (kind, betas)


class TestTeConditionFourPlayers:
    @pytest.mark.parametrize("kind,params,dilemma", [
        ("pgg", {"n": 4, "rho": F(2, 5)}, make_public_goods(4, F(2, 5), grid=1)),
        ("bertrand", {"n": 4, "l": 2, "h": 6}, make_bertrand(4, 2, 6)),
    ])
    def test_agrees_with_coherence_on_full_tenths_grid(self, kind, params, dilemma):
        import itertools

        check = make_coherence_checker(dilemma)
        for betas in itertools.product(TENTHS, repeat=4):
            sigma = MixedProfile.two_point(dilemma, betas)
            assert (te_condition(kind, params, betas)
                    == check(sigma).coherent), betas


class TestTypedCondition:
    def test_pd_boundary(self):
        res = te_condition_typed("pd", {"b": 4, "c": 1},
                                 [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        assert res.holds
        assert res.readings == {"condition": True}

    def test_pd_agrees_with_typed_structure_rationality(self):
        b, c = 4, 1
        d = make_prisoners_dilemma(b, c)
        for a1 in QUARTERS:
            for b2 in (F(0), F(1, 4), F(3, 4), F(1)):
                alphas = [a1, F(1, 2)]
                betas = [F(3, 4), b2]
                res = te_condition_typed("pd", {"b": b, "c": c}, alphas, betas)
                m = build_typed_dilemma_structure(d, alphas, betas)
                coop_ok = []
                for i in (0, 1):
                    if betas[i] == 0:
                        continue  # cooperation never realized; no constraint
                    states = [k for k in range(m.num_states)
                              if m.states[k][i] == "C"]
                    coop_ok.append(all(is_rational_at(m, i, k).rational
                                       for k in states))
                defect_ok = all(
                    is_rational_at(m, i, k).rational
                    for i in (0, 1) for k in range(m.num_states)
                    if m.states[k][i] == "D")
                assert defect_ok
                assert res.holds == all(coop_ok), (a1, b2)

    def test_td_matches_engine_at_matched_parameters(self):
        params = {"l": 2, "h": 9, "bonus": 4}
        d = make_travelers_dilemma(2, 9, 4)
        for a in QUARTERS:
            for b1 in (F(1, 4), F(1, 2), F(1)):
                for b2 in (F(1, 4), F(3, 4)):
                    res = te_condition_typed("td", params, [a, a], [b1, b2])
                    expected = all(
                        is_cooperation_rational(
                            d, 0, TranslucentType(a, betas_other)).rational
                        for betas_other in (b2, b1))
                    assert res.holds == expected, (a, b1, b2)

    def test_pgg_reports_both_readings(self):
        res = te_condition_typed("pgg", {"n": 3, "rho": F(3, 5)},
                                 [F(1, 2)] * 3, [F(9, 10)] * 3)
        assert res.holds is None
        assert res.readings == {"printed": False, "n_minus_1": True}

    def test_pgg_n_minus_1_reading_matches_structure_oracle(self):
        rho = F(3, 5)
        d = make_public_goods(3, rho, grid=1)
        for a in (F(1, 4), F(1, 2), F(1)):
            for b in (F(1, 4), F(3, 4), F(1)):
                alphas, betas = [a] * 3, [b] * 3
                res = te_condition_typed("pgg", {"n": 3, "rho": rho}, alphas, betas)
                m = build_typed_dilemma_structure(d, alphas, betas)
                coop_states = [k for k in range(m.num_states)
                               if m.states[k][0] == F(1)]
                oracle = all(is_rational_at(m, 0, k).rational for k in coop_states)
                assert res.readings["n_minus_1"] == oracle, (a, b)

    def test_bertrand_homogeneous_collapses_to_single_type_condition(self):
        params = {"n": 3, "l": 2, "h": 9}
        for a in QUARTERS:
            for b in (F(1, 4), F(1, 2), F(3, 4), F(1)):
                res = te_condition_typed("bertrand", params, [a] * 3, [b] * 3)
                single = cooperation_condition("bertrand", params, a, b)
                assert res.holds == single.rational, (a, b)

    @pytest.mark.parametrize("n,l,h,gap", [
        (2, 2, 8, {(a, b) for a in (0, F(1, 4)) for b in (F(1, 2), F(3, 4), 1)}),
        (2, 2, 12, {(a, b) for a in (0, F(1, 4)) for b in QUARTERS[1:]}),
        (3, 2, 6, {(0, 1), (F(1, 4), 1)}),
    ])
    def test_bertrand_gap_is_the_undercut_guard(self, n, l, h, gap):
        """Pinned discrepancy: the typed bertrand condition checks only the
        tie kernel, so with uniform types it accepts cooperation that the
        detection-bit structure rejects.  Every such point fails the
        heterogeneous undercut guard, and the condition conjoined with the
        guard equals the structure at all 20 points."""
        def guard(alphas, betas):
            for i in range(n):
                on_path = deviate = F(1)
                for j in range(n):
                    if j != i:
                        on_path *= betas[j]
                        deviate *= (1 - alphas[i]) * betas[j]
                if on_path * h / n < deviate * (h - 1):
                    return False
            return True

        d = make_bertrand(n, l, h)
        disagreements = set()
        for a in QUARTERS:
            for b in QUARTERS[1:]:
                alphas, betas = [a] * n, [b] * n
                m = build_typed_dilemma_structure(d, alphas, betas)
                structure = all(is_rational_at(m, i, k).rational
                                for i in range(n) for k in range(m.num_states)
                                if m.states[k][i] == h)
                res = te_condition_typed("bertrand", {"n": n, "l": l, "h": h},
                                         alphas, betas)
                if res.holds != structure:
                    assert res.holds and not guard(alphas, betas), (a, b)
                    disagreements.add((a, b))
                assert (res.holds and guard(alphas, betas)) == structure, (a, b)
        assert disagreements == gap


class TestGeneralizedF:
    def test_collapses_to_homogeneous_kernel(self):
        for n in (2, 3, 5, 25):  # 2^24 subsets of the others at n = 25
            for g in QUARTERS:
                assert generalized_f([g] * (n - 1), n) == f_gamma(g, n)

    def test_extremes(self):
        assert generalized_f([1, 1, 1], 4) == 1
        assert generalized_f([0, 0, 0], 4) == F(1, 4)

    def test_heterogeneous_value(self):
        # two others: J ranges over {}, {1}, {2}, {1,2}
        g1, g2 = F(1, 2), F(1, 3)
        expected = (g1 * g2
                    + ((1 - g1) * g2 + g1 * (1 - g2)) / 2
                    + (1 - g1) * (1 - g2) / 3)
        assert generalized_f([g1, g2], 3) == expected

    def test_length_check(self):
        with pytest.raises(ValueError, match="expected 2 gamma"):
            generalized_f([F(1, 2)], 3)
