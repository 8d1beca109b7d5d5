"""Closed-form cooperation conditions against the brute-force engine."""

from fractions import Fraction as F

import pytest

from translucent.beliefs import TranslucentType, is_cooperation_rational
from translucent.closed_form import (
    bertrand_lower_bound_check,
    bertrand_undercut_condition,
    cooperation_condition,
    f_gamma,
    f_gamma_sum,
)
from translucent.games import (
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

QUARTERS = [F(k, 4) for k in range(5)]
TWENTIETHS = [F(k, 20) for k in range(21)]


def engine_verdict(d, alpha, beta):
    return is_cooperation_rational(d, 0, TranslucentType(alpha, beta)).rational


class TestFGamma:
    def test_extremes(self):
        for n in (2, 3, 7, 20):
            assert f_gamma(F(0), n) == F(1, n)
            assert f_gamma(F(1), n) == 1
            assert f_gamma_sum(F(0), n) == F(1, n)
            assert f_gamma_sum(F(1), n) == 1

    def test_two_player_value(self):
        assert f_gamma(F(45, 100), 2) == F(45, 100) + F(55, 100) / 2
        assert f_gamma(F(45, 100), 2) == F(29, 40)

    def test_sum_matches_identity_exactly(self):
        for n in (2, 3, 5, 11, 33):
            for gamma in QUARTERS:
                assert f_gamma_sum(gamma, n) == f_gamma(gamma, n)

    def test_float_paths_agree(self):
        for n in (2, 8, 64):
            for k in range(0, 100, 7):
                g = k / 100
                assert abs(f_gamma_sum(g, n) - f_gamma(g, n)) < 1e-12

    def test_lower_bound(self):
        for n in (2, 4, 16):
            for k in range(0, 101, 5):
                assert f_gamma(F(k, 100), n) >= F(1, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="gamma"):
            f_gamma(F(3, 2), 2)
        with pytest.raises(ValueError, match="player count"):
            f_gamma(F(1, 2), 1)

    @pytest.mark.parametrize("f", [f_gamma, f_gamma_sum])
    def test_float_path_rejects_gamma_out_of_range(self, f):
        with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got 1.5$"):
            f(1.5, 3)


class TestConditionValues:
    def test_pd_boundary(self):
        v = cooperation_condition("pd", {"b": 4, "c": 1}, F(1, 2), F(1, 2))
        assert v.rational
        assert v.binding_quantity == 1
        assert v.threshold == 1

    def test_pgg_rho_one_always_rational(self):
        for alpha in QUARTERS:
            for beta in QUARTERS:
                v = cooperation_condition("pgg", {"n": 5, "rho": 1}, alpha, beta)
                assert v.rational

    def test_bertrand_spec_point(self):
        v = cooperation_condition("bertrand", {"n": 2, "l": 2, "h": 100},
                                  F(1, 2), F(9, 10))
        assert v.rational
        assert v.binding_quantity == F(9, 10)
        assert v.threshold == F(29, 40) * 2 * 2 / F(100)
        assert v.threshold == F(29, 1000)

    def test_td_extreme_alpha_beta(self):
        # full detection and full trust: no division blowup, cooperation holds
        v = cooperation_condition("td", {"l": 2, "h": 100, "bonus": 10}, 1, 1)
        assert v.rational

    def test_verdict_invariant(self):
        for kind, params in [
            ("pd", {"b": 4, "c": 1}),
            ("td", {"l": 2, "h": 13, "bonus": 8}),
            ("pgg", {"n": 3, "rho": F(2, 3)}),
            ("bertrand", {"n": 2, "l": 2, "h": 12}),
        ]:
            for alpha in QUARTERS:
                for beta in QUARTERS:
                    v = cooperation_condition(kind, params, alpha, beta)
                    assert v.rational == (v.binding_quantity >= v.threshold)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dilemma kind"):
            cooperation_condition("chicken", {}, 0, 0)


class TestOracleEquivalence:
    """The closed forms against exhaustive-deviation brute force."""

    def test_pd(self):
        for b_num in (3, 6, 8, 20):
            b = F(b_num, 2)
            for c_num in range(1, b_num, 2):
                c = F(c_num, 2)
                d = make_prisoners_dilemma(b, c)
                for alpha in TWENTIETHS:
                    for beta in TWENTIETHS:
                        assert (cooperation_condition("pd", {"b": b, "c": c},
                                                      alpha, beta).rational
                                == engine_verdict(d, alpha, beta))

    def test_pgg(self):
        for n, rho in [(2, F(3, 5)), (3, F(2, 5)), (3, F(9, 10)), (5, F(3, 10))]:
            d = make_public_goods(n, rho, grid=6)
            params = {"n": n, "rho": rho}
            for alpha in TWENTIETHS:
                for beta in TWENTIETHS:
                    assert (cooperation_condition("pgg", params, alpha, beta).rational
                            == engine_verdict(d, alpha, beta))

    def test_td(self):
        for l, h in [(2, 5), (2, 13), (2, 30)]:
            for bonus in range(1, h - l + 6, 2):
                d = make_travelers_dilemma(l, h, bonus)
                params = {"l": l, "h": h, "bonus": bonus}
                for alpha in QUARTERS:
                    for beta in QUARTERS + [F(9, 10)]:
                        assert (cooperation_condition("td", params, alpha, beta).rational
                                == engine_verdict(d, alpha, beta)), (l, h, bonus, alpha, beta)

    def test_td_known_counterexample_to_loose_branch(self):
        # The loose undercut cap (H-L-1)/(1-2a) would accept this point; the
        # engine (and our exact branch) reject it.
        d = make_travelers_dilemma(2, 13, 8)
        params = {"l": 2, "h": 13, "bonus": 8}
        alpha, beta = F(1, 4), F(9, 10)
        assert bonus_fits_loose_cap(11, 8, alpha)
        assert not engine_verdict(d, alpha, beta)
        assert not cooperation_condition("td", params, alpha, beta).rational

    def test_bertrand_with_undercut_guard(self):
        # The tie-kernel condition alone overshoots where undercutting to H-1
        # beats cooperating; conjoined with the undercut guard it matches the
        # engine exactly.
        bare_mismatches = 0
        for n, l, h in [(2, 2, 6), (2, 3, 12), (3, 2, 8)]:
            d = make_bertrand(n, l, h)
            params = {"n": n, "l": l, "h": h}
            for alpha in QUARTERS:
                for beta in QUARTERS + [F(9, 10)]:
                    bare = cooperation_condition("bertrand", params, alpha, beta).rational
                    guard = bertrand_undercut_condition(params, alpha, beta)
                    engine = engine_verdict(d, alpha, beta)
                    assert (bare and guard) == engine, (n, l, h, alpha, beta)
                    if bare != engine:
                        bare_mismatches += 1
                        assert not guard
        assert bare_mismatches > 0

    def test_guard_never_binds_at_high_alpha(self):
        for n, l, h in [(2, 2, 30), (3, 2, 12), (4, 3, 20)]:
            params = {"n": n, "l": l, "h": h}
            for alpha in [F(1, 2), F(3, 5), F(4, 5), F(1)]:
                for beta in QUARTERS:
                    assert bertrand_undercut_condition(params, alpha, beta)


def bonus_fits_loose_cap(h_minus_l, bonus, alpha):
    return bonus * (1 - 2 * alpha) <= h_minus_l - 1


class TestBertrandLowerBound:
    def test_spec_points(self):
        assert bertrand_lower_bound_check(F(1, 2), 2, 100, 8)
        assert not bertrand_lower_bound_check(1, 2, 100, 8)
        assert not bertrand_lower_bound_check(F(9, 10), 2, 100, 2)

    def test_implies_engine_irrationality_for_every_alpha(self):
        d = make_bertrand(8, 2, 100)
        assert bertrand_lower_bound_check(F(1, 2), 2, 100, 8)
        for alpha in QUARTERS:
            assert not engine_verdict(d, alpha, F(1, 2))


class TestRegionMonotonicity:
    """Feasible (alpha, beta) sets move the right way with each parameter."""

    @staticmethod
    def region(kind, params):
        return {(a, b) for a in TWENTIETHS for b in TWENTIETHS
                if cooperation_condition(kind, params, a, b).rational}

    def test_pd_grows_in_b_shrinks_in_c(self):
        regions = [self.region("pd", {"b": b, "c": 1}) for b in (2, 4, 8)]
        assert regions[0] <= regions[1] <= regions[2]
        regions = [self.region("pd", {"b": 8, "c": c}) for c in (1, 2, 4)]
        assert regions[0] >= regions[1] >= regions[2]

    def test_td_shrinks_in_bonus_grows_in_spread(self):
        regions = [self.region("td", {"l": 2, "h": 30, "bonus": b})
                   for b in (1, 5, 12, 25)]
        for small, large in zip(regions, regions[1:]):
            assert large <= small
        regions = [self.region("td", {"l": 2, "h": h, "bonus": 6})
                   for h in (6, 12, 30, 60)]
        for small, large in zip(regions, regions[1:]):
            assert small <= large

    def test_pgg_grows_in_rho_and_n(self):
        regions = [self.region("pgg", {"n": 4, "rho": rho})
                   for rho in (F(3, 10), F(1, 2), F(7, 10), F(9, 10))]
        for small, large in zip(regions, regions[1:]):
            assert small <= large
        regions = [self.region("pgg", {"n": n, "rho": F(2, 5)})
                   for n in (3, 4, 6, 8)]
        for small, large in zip(regions, regions[1:]):
            assert small <= large

    def test_bertrand_shrinks_in_n_and_floor_grows_in_h(self):
        regions = [self.region("bertrand", {"n": n, "l": 2, "h": 20})
                   for n in (2, 3, 4, 6)]
        for large, small in zip(regions, regions[1:]):
            assert small <= large
        regions = [self.region("bertrand", {"n": 2, "l": l, "h": 20})
                   for l in (2, 3, 5)]
        for large, small in zip(regions, regions[1:]):
            assert small <= large
        regions = [self.region("bertrand", {"n": 2, "l": 2, "h": h})
                   for h in (6, 12, 30)]
        for small, large in zip(regions, regions[1:]):
            assert small <= large
