"""Tests for counterfactual structures, builders, and the JSON format."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from translucent.beliefs import (
    TranslucentType,
    expected_utility_cooperate,
    expected_utility_deviation,
)
from translucent.counterfactual import (
    IncoherentProfileError,
    build_coherent_structure,
    build_nash_structure,
    build_typed_dilemma_structure,
    build_typed_pd_structure,
    derived_beliefs,
    eu_at_state,
    eu_at_state_switch,
    is_rational_at,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from translucent.exact import InputError
from translucent.games import (
    BudgetExceededError,
    MixedProfile,
    NormalFormGame,
    make_bertrand,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
)

QUARTERS = [F(k, 4) for k in range(5)]


def matching_pennies():
    table = {
        ("H", "H"): (1, -1), ("H", "T"): (-1, 1),
        ("T", "H"): (-1, 1), ("T", "T"): (1, -1),
    }
    return NormalFormGame(2, (("H", "T"), ("H", "T")),
                          lambda profile, i: F(table[profile][i]))


def state_of(m, profile, bits=None):
    for k in range(m.num_states):
        if m.states[k] == profile and (bits is None or m.aux[k] == bits):
            return k
    raise AssertionError(f"no state {profile} {bits}")


class TestValidator:
    def test_nash_structure_is_clean(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        assert validate_structure(m) == []

    def test_planted_cs1_defect(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        j = m.strategy_index(0, "C")
        column = list(m.closest_columns[(0, j)])
        # route a switch to C onto a state where player 0 plays D
        column[0] = state_of(m, ("D", "D"))
        m.closest_columns[(0, j)] = tuple(column)
        violations = validate_structure(m)
        assert any(v.axiom == "CS1" and v.player == 0 for v in violations)

    def test_planted_pr1_defect(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        k_dd = state_of(m, ("D", "D"))
        k_cd = state_of(m, ("C", "D"))
        m.beliefs[0][k_dd].clear()
        m.beliefs[0][k_dd][k_cd] = F(1)  # mass on a state with own strategy C
        violations = validate_structure(m)
        assert any(v.axiom == "PR1" and v.state == k_dd for v in violations)

    def test_planted_normalization_defect(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        k_dd = state_of(m, ("D", "D"))
        m.beliefs[0][k_dd][k_dd] = F(1, 2)
        violations = validate_structure(m)
        assert any(v.axiom == "NORM" for v in violations)

    def test_float_mass_is_summed_exactly(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        k_dd = state_of(m, ("D", "D"))
        m.beliefs[0][k_dd][k_dd] = 0.1  # the measure of every state playing D
        violations = validate_structure(m)
        assert violations and all(v.axiom == "NORM" for v in violations)
        assert {v.detail for v in violations} == {f"belief mass sums to {F(0.1)}"}

    def test_planted_pr2_defect(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(1, 2), F(1, 2)])
        doc = structure_to_json(build_coherent_structure(d, sigma))
        m = structure_from_json(doc, game=d.game)
        k_dd = state_of(m, ("D", "D"))
        k_dc = state_of(m, ("D", "C"))
        # same own strategy, different beliefs at a state the measure supports;
        # parsed entries with equal dists share one measure, so the defect is
        # planted in the document, at this one entry
        entry = next(e for e in doc["beliefs"]
                     if e["player"] == 0 and e["state"] == k_dc)
        entry["dist"] = {str(k_dc): "1"}
        m = structure_from_json(doc, game=d.game)
        violations = validate_structure(m)
        assert any(v.axiom == "PR2" and v.state == k_dd for v in violations)


class TestDerivedBeliefs:
    def test_identity_on_own_strategy(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(1, 3), F(1, 3)])
        m = build_coherent_structure(d, sigma)
        for k in range(m.num_states):
            own = m.states[k][0]
            assert derived_beliefs(m, 0, k, own) == m.belief(0, k)

    def test_typed_pd_reweights_by_detection(self):
        alpha, beta = F(2, 5), F(3, 4)
        m = build_typed_pd_structure(alpha, alpha, beta, beta, 4, 1)
        k = state_of(m, ("C", "C"), (0, 0))
        derived = derived_beliefs(m, 0, k, "D")
        coop_mass = sum(p for t, p in derived.items() if m.states[t][1] == "C")
        assert coop_mass == (1 - alpha) * beta
        assert sum(derived.values()) == 1

    def test_point_mass_follows_closest(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        k_cd = state_of(m, ("C", "D"))  # off-support: beliefs are a point mass
        derived = derived_beliefs(m, 0, k_cd, "D")
        assert derived == {state_of(m, ("D", "D")): F(1)}

    def test_pushforward_conserves_mass(self):
        m = build_typed_pd_structure(F(1, 3), F(2, 3), F(1, 5), F(4, 5), 5, 2)
        for k in range(m.num_states):
            for i in (0, 1):
                for s in ("C", "D"):
                    assert sum(derived_beliefs(m, i, k, s).values()) == 1


class TestStateUtilities:
    def test_typed_pd_boundary_values(self):
        m = build_typed_pd_structure(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 4, 1)
        k = state_of(m, ("C", "C"), (0, 0))
        assert eu_at_state(m, 0, k) == 1
        assert eu_at_state_switch(m, 0, k, "D") == 1
        report = is_rational_at(m, 0, k)
        assert report.rational  # boundary tie counts as rational
        assert report.eu_switch["C"] == report.eu

    def test_nash_structure_switch_is_standard_deviation_payoff(self):
        game = matching_pennies()
        sigma = MixedProfile(game, [{"H": F(1, 2), "T": F(1, 2)}] * 2)
        m = build_nash_structure(game, sigma)
        for k in range(m.num_states):
            for i in (0, 1):
                for s in ("H", "T"):
                    assert eu_at_state_switch(m, i, k, s) == sigma.expected_payoff(i, s)

    def test_point_mass_reduces_to_single_payoff(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        k = state_of(m, ("D", "D"))
        assert eu_at_state(m, 0, k) == 0
        assert eu_at_state(m, 0, state_of(m, ("C", "D"))) == -1

    def test_float_probabilities_enter_at_their_exact_values(self):
        game = matching_pennies()
        sigma = MixedProfile(game, [{"H": F(1, 2), "T": F(1, 2)}] * 2)
        m = build_nash_structure(game, sigma)
        k_hh, k_ht = state_of(m, ("H", "H")), state_of(m, ("H", "T"))
        per_state = list(m.beliefs[0])
        per_state[k_hh] = {k_hh: 0.1, k_ht: 0.9}
        m = dataclasses.replace(m, beliefs=(tuple(per_state), m.beliefs[1]))
        exact = F(0.1) - F(0.9)
        assert 0.1 - 0.9 != exact  # float arithmetic would round
        assert eu_at_state(m, 0, k_hh) == exact
        assert is_rational_at(m, 0, k_hh).eu == exact
        assert eu_at_state_switch(m, 0, k_hh, "T") == -exact


class TestNashStructure:
    def test_pure_pd_equilibrium(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        assert m.num_states == 4
        assert validate_structure(m) == []
        k = state_of(m, ("D", "D"))
        assert is_rational_at(m, 0, k).rational
        assert is_rational_at(m, 1, k).rational

    def test_mixed_equilibrium_all_states_rational(self):
        game = matching_pennies()
        sigma = MixedProfile(game, [{"H": F(1, 2), "T": F(1, 2)}] * 2)
        m = build_nash_structure(game, sigma)
        assert m.num_states == 4
        assert validate_structure(m) == []
        for k in range(m.num_states):
            for i in (0, 1):
                assert is_rational_at(m, i, k).rational

    def test_rejects_non_nash(self):
        d = make_prisoners_dilemma(4, 1)
        with pytest.raises(ValueError, match="not a Nash equilibrium"):
            build_nash_structure(d, MixedProfile.pure(d.game, ("C", "C")))


class TestCoherentStructure:
    def test_pd_cooperation(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_coherent_structure(d, MixedProfile.pure(d.game, ("C", "C")))
        assert validate_structure(m) == []
        k = state_of(m, ("C", "C"))
        assert is_rational_at(m, 0, k).rational
        assert is_rational_at(m, 1, k).rational

    def test_pd_mismatched_profile_rejected(self):
        d = make_prisoners_dilemma(4, 1)
        with pytest.raises(IncoherentProfileError) as exc:
            build_coherent_structure(d, MixedProfile.pure(d.game, ("C", "D")))
        assert exc.value.witness == (0, "C", "D")

    def test_travelers_high_claims_punished_with_floor(self):
        d = make_travelers_dilemma(2, 100, 10)
        m = build_coherent_structure(d, MixedProfile.pure(d.game, (100, 100)))
        k = state_of(m, (100, 100))
        # any deviation is routed to the opposing floor claim
        target = m.closest(k, 0, 60)
        assert m.states[target] == (60, 2)
        assert is_rational_at(m, 0, k).rational

    def test_travelers_structure_validates_at_desk_scale(self):
        d = make_travelers_dilemma(2, 12, 3)
        m = build_coherent_structure(d, MixedProfile.pure(d.game, (12, 12)))
        assert validate_structure(m) == []

    def test_total_mode_builds_incoherent_witness(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.pure(d.game, ("C", "D"))
        m = build_coherent_structure(d, sigma, strict=False)
        assert validate_structure(m) == []
        assert not is_rational_at(m, 0, state_of(m, ("C", "D"))).rational


class TestTypedStructures:
    def test_sixteen_states(self):
        m = build_typed_pd_structure(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 4, 1)
        assert m.num_states == 16
        assert validate_structure(m) == []

    def test_boundary_all_states_rational(self):
        m = build_typed_pd_structure(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 4, 1)
        for k in range(m.num_states):
            for i in (0, 1):
                assert is_rational_at(m, i, k).rational

    def test_builder_outputs_validate_across_parameter_grid(self):
        levels = [F(0), F(1, 4), F(1, 2), F(1)]
        for a1 in levels:
            for b2 in levels:
                m = build_typed_pd_structure(a1, F(1, 3), F(2, 3), b2, 4, 1)
                assert validate_structure(m) == []

    def test_opacity_makes_cooperation_irrational(self):
        m = build_typed_pd_structure(0, 0, F(1, 2), F(1, 2), 4, 1)
        k = state_of(m, ("C", "C"), (0, 0))
        assert not is_rational_at(m, 0, k).rational

    def test_detection_bit_routes_to_defection(self):
        m = build_typed_pd_structure(F(1, 2), F(1, 2), F(1, 2), F(1, 2), 4, 1)
        k = state_of(m, ("C", "C"), (0, 1))
        target = m.closest(k, 0, "D")
        assert m.states[target] == ("D", "D")
        assert m.aux[target] == (0, 1)
        # without the bit the opponent stays put
        k0 = state_of(m, ("C", "C"), (0, 0))
        assert m.states[m.closest(k0, 0, "D")] == ("D", "C")

    @pytest.mark.parametrize("alpha", QUARTERS)
    @pytest.mark.parametrize("beta", [F(0), F(1, 4), F(3, 4), F(1)])
    def test_matches_belief_engine_on_pd(self, alpha, beta):
        b, c = 4, 1
        d = make_prisoners_dilemma(b, c)
        t = TranslucentType(alpha, beta)
        m = build_typed_pd_structure(alpha, alpha, beta, beta, b, c)
        k = state_of(m, ("C", "C"), (0, 0))
        assert eu_at_state(m, 0, k) == expected_utility_cooperate(d, 0, t)
        assert (eu_at_state_switch(m, 0, k, "D")
                == expected_utility_deviation(d, 0, t, "D"))

    @pytest.mark.parametrize("dilemma,coop", [
        (make_public_goods(3, F(3, 5), grid=2), F(1)),
        (make_travelers_dilemma(2, 6, 2), 6),
        (make_bertrand(2, 2, 6), 6),
    ], ids=["pgg", "td", "bertrand"])
    def test_extension_matches_belief_engine(self, dilemma, coop):
        alpha, beta = F(1, 3), F(3, 4)
        t = TranslucentType(alpha, beta)
        n = dilemma.num_players
        m = build_typed_dilemma_structure(dilemma, [alpha] * n, [beta] * n)
        assert validate_structure(m) == []
        k = state_of(m, dilemma.welfare_profile, (0,) * n)
        assert eu_at_state(m, 0, k) == expected_utility_cooperate(dilemma, 0, t)
        for s in dilemma.game.strategy_sets[0]:
            if s == coop:
                # switching to one's own strategy keeps the on-path beliefs
                assert eu_at_state_switch(m, 0, k, s) == eu_at_state(m, 0, k)
                continue
            assert (eu_at_state_switch(m, 0, k, s)
                    == expected_utility_deviation(dilemma, 0, t, s))


class TestJsonFormat:
    def test_roundtrip_preserves_axioms_and_utilities(self):
        m = build_typed_pd_structure(F(1, 3), F(2, 3), F(1, 5), F(4, 5), 5, 2)
        doc = structure_to_json(m)
        back = structure_from_json(doc, game=m.game)
        assert validate_structure(back) == []
        for k in range(m.num_states):
            for i in (0, 1):
                assert eu_at_state(back, i, k) == eu_at_state(m, i, k)

    def test_text_roundtrip_without_game(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        text = json.dumps(structure_to_json(m))
        back = structure_from_json(text)
        assert back.game is None
        assert validate_structure(back) == []
        with pytest.raises(ValueError, match="no attached game"):
            eu_at_state(back, 0, 0)

    def test_missing_closest_entry_is_linted(self):
        d = make_prisoners_dilemma(4, 1)
        m = build_nash_structure(d, MixedProfile.pure(d.game, ("D", "D")))
        doc = structure_to_json(m)
        doc["closest"] = doc["closest"][1:]
        back = structure_from_json(doc)
        violations = validate_structure(back)
        assert any("missing" in v.detail for v in violations)

    def pd_doc(self):
        d = make_prisoners_dilemma(4, 1)
        sigma = MixedProfile.two_point(d, [F(1, 2), F(1, 2)])
        return structure_to_json(build_coherent_structure(d, sigma))

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["states"][2].update(profile=[0, 2]),
         "$.states[2].profile[1]: strategy index 2 is out of range 0..1"),
        (lambda doc: doc["states"][2].update(profile=[-1, 0]),
         "$.states[2].profile[0]: strategy index -1 is out of range 0..1"),
        (lambda doc: doc["states"][1].update(profile=[0]),
         "$.states[1].profile: expected 2 entries, got 1"),
        (lambda doc: doc["closest"][3].update(state=4),
         "$.closest[3].state: state index 4 is out of range 0..3"),
        (lambda doc: doc["closest"][3].update(player=-1),
         "$.closest[3].player: player index -1 is out of range 0..1"),
        (lambda doc: doc["closest"][3].update(strategy=5),
         "$.closest[3].strategy: strategy index 5 is out of range 0..1"),
        (lambda doc: doc["beliefs"][6].update(state=-2),
         "$.beliefs[6].state: state index -2 is out of range 0..3"),
        (lambda doc: doc["beliefs"][6]["dist"].update({"4": "0"}),
         '$.beliefs[6].dist["4"]: state index 4 is out of range 0..3'),
        (lambda doc: doc["beliefs"][5].update(dist=[1]),
         "$.beliefs[5].dist: expected an object"),
        (lambda doc: doc["strategies"][1].append(["E"]),
         "$.strategies[1][2]: strategy label ['E'] is not a string or a number"),
    ])
    def test_out_of_range_indices_name_their_path(self, edit, message):
        doc = self.pd_doc()
        edit(doc)
        with pytest.raises(ValueError) as exc:
            structure_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edit,message", [
        # int() read 0.5 as player 0, 2.7 as 2 and true as 1
        (lambda doc: doc["closest"][4].update(player=0.5),
         "$.closest[4].player: expected an integer index, got 0.5"),
        (lambda doc: doc["closest"][4].update(state=2.7),
         "$.closest[4].state: expected an integer index, got 2.7"),
        (lambda doc: doc["closest"][4].update(strategy=True),
         "$.closest[4].strategy: expected an integer index, got True"),
        (lambda doc: doc["closest"][4].update(target=1.5),
         "$.closest[4].target: expected an integer index, got 1.5"),
        (lambda doc: doc["closest"][4].update(player="x"),
         "$.closest[4].player: expected an integer index, got 'x'"),
        (lambda doc: doc["closest"][4].update(target=float("nan")),
         "$.closest[4].target: expected an integer index, got nan"),
        (lambda doc: doc["closest"][4].pop("state"),
         "$.closest[4].state: required key is missing"),
        (lambda doc: doc["closest"].__setitem__(4, [0, 0, 1, 2]),
         "$.closest[4]: expected an object"),
        (lambda doc: doc["states"][2].update(profile=[0, 1.0]),
         "$.states[2].profile[1]: expected an integer index, got 1.0"),
        (lambda doc: doc["states"][2].pop("profile"),
         "$.states[2].profile: required key is missing"),
        (lambda doc: doc["beliefs"][6].update(state=False),
         "$.beliefs[6].state: expected an integer index, got False"),
        (lambda doc: doc["beliefs"][6].pop("dist"),
         "$.beliefs[6].dist: required key is missing"),
        (lambda doc: doc["beliefs"][6]["dist"].update({"0.5": "0"}),
         '$.beliefs[6].dist["0.5"]: expected an integer index, got \'0.5\''),
        (lambda doc: doc["beliefs"][6]["dist"].update({"1": "x"}),
         '$.beliefs[6].dist["1"]: expected a finite number, got \'x\''),
        (lambda doc: doc["beliefs"][6]["dist"].update({"1": "1/0"}),
         '$.beliefs[6].dist["1"]: expected a finite number, got \'1/0\''),
        # Fraction(True) is 1 and Fraction(False) is 0
        (lambda doc: doc["beliefs"][6]["dist"].update({"1": True}),
         '$.beliefs[6].dist["1"]: expected a finite number, got True'),
        (lambda doc: doc["beliefs"][6]["dist"].update({"1": False}),
         '$.beliefs[6].dist["1"]: expected a finite number, got False'),
        (lambda doc: doc.update(players=2.0),
         "$.players: expected an integer, got 2.0"),
    ])
    def test_non_integer_indices_and_missing_keys_name_their_path(self, edit, message):
        doc = self.pd_doc()
        edit(doc)
        with pytest.raises(ValueError) as exc:
            structure_from_json(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("mass,shown", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan")])
    def test_non_finite_mass_names_its_path(self, mass, shown):
        # a document given as Python values may hold these floats; as text
        # the reader refuses the constants (see TestGrammar)
        doc = self.pd_doc()
        doc["beliefs"][6]["dist"]["1"] = mass
        with pytest.raises(ValueError) as exc:
            structure_from_json(doc)
        assert str(exc.value) == (
            f'$.beliefs[6].dist["1"]: expected a finite number, got {shown}')

    def test_out_of_range_closest_target_stays_a_cs1_violation(self):
        doc = self.pd_doc()
        doc["closest"][0]["target"] = 9
        violations = validate_structure(structure_from_json(doc))
        assert [v.axiom for v in violations] == ["CS1"]
        assert "out-of-range" in violations[0].detail

    def test_equal_dists_share_one_measure(self):
        # as in a built structure, so an in-place edit changes the whole cell
        m = structure_from_json(self.pd_doc())
        k_dd, k_dc = state_of(m, ("D", "D")), state_of(m, ("D", "C"))
        assert m.beliefs[0][k_dd] is m.beliefs[0][k_dc]
        k_cc = state_of(m, ("C", "C"))
        assert m.beliefs[0][k_cc] is not m.beliefs[0][k_dd]

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="missing 'states'"):
            structure_from_json({"players": 2, "strategies": [["C"], ["C"]],
                                 "closest": [], "beliefs": []})


# a one-player document with numeric strategy labels and aux entries, the
# beliefs at state 0 as decimals; CS1, PR1 and PR2 fail at state 0
LABELLED = """{"players": 1, "strategies": [[0.5, 1.0, 1e2]],
 "states": [{"profile": [0], "aux": [0.25, 1e2]},
            {"profile": [1], "aux": [-0.0, [2.5]]},
            {"profile": [2], "aux": ["x", 3]}],
 "closest": [{"state": 0, "player": 0, "strategy": 1, "target": 0},
             {"state": 0, "player": 0, "strategy": 2, "target": 2},
             {"state": 1, "player": 0, "strategy": 0, "target": 0},
             {"state": 1, "player": 0, "strategy": 2, "target": 2},
             {"state": 2, "player": 0, "strategy": 0, "target": 0},
             {"state": 2, "player": 0, "strategy": 1, "target": 1}],
 "beliefs": [{"player": 0, "state": 0, "dist": {"0": 0.1, "1": 0.9}},
             {"player": 0, "state": 1, "dist": {"1": 1}},
             {"player": 0, "state": 2, "dist": {"2": "1"}}]}"""


class TestGrammar:
    """Structure text is read by ``exact.load_json``: a decimal probability
    is its exact literal, NaN and the infinities are refused by name, and
    strategy labels and aux entries keep the floats plain json reads."""

    def decimal_doc(self):
        """The PD punishment structure at betas 1/10, its measures written
        as the decimals 0.1 and 0.9."""
        d = make_prisoners_dilemma(4, 1)
        m = build_coherent_structure(d, MixedProfile.two_point(d, [F(1, 10)] * 2),
                                     strict=False)
        text = json.dumps(structure_to_json(m))
        assert '"1/10"' in text and '"9/10"' in text
        return m, text.replace('"1/10"', "0.1").replace('"9/10"', "0.9")

    def test_decimal_probabilities_are_exact(self):
        m, text = self.decimal_doc()
        back = structure_from_json(text)
        assert back.beliefs == m.beliefs
        assert {q for per_state in back.beliefs for dist in per_state
                for q in dist.values()} == {F(1, 10), F(9, 10)}
        assert validate_structure(back) == []
        # read at their binary values, 0.1 + 0.9 is 1 + 2^-55
        binary = structure_from_json(json.loads(text))
        assert sum(binary.beliefs[0][0].values()) == 1 + F(1, 2 ** 55)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["closest"][4].update(player=0.5),
         "$.closest[4].player: expected an integer index, got 0.5"),
        (lambda doc: doc["states"][2].update(profile=[0, 1.0]),
         "$.states[2].profile[1]: expected an integer index, got 1.0"),
        (lambda doc: doc["beliefs"][6].update(state=1e2),
         "$.beliefs[6].state: expected an integer index, got 100.0"),
        (lambda doc: doc.update(players=2.0),
         "$.players: expected an integer, got 2.0"),
        (lambda doc: doc["beliefs"][6]["dist"].update({"1": [0.5]}),
         '$.beliefs[6].dist["1"]: expected a finite number, got [0.5]'),
    ])
    def test_decimal_index_in_text_reads_as_written(self, edit, message):
        doc = TestJsonFormat().pd_doc()
        edit(doc)
        with pytest.raises(InputError) as exc:
            structure_from_json(json.dumps(doc))
        assert str(exc.value) == message

    def test_numeric_labels_and_aux_keep_their_floats(self):
        m = structure_from_json(LABELLED)
        assert m.strategy_sets == ((0.5, 1.0, 100.0),)
        assert all(type(s) is float for s in m.strategy_sets[0])
        assert m.aux == ((0.25, 100.0), (-0.0, [2.5]), ("x", 3))
        assert m.beliefs[0][0] == {0: F(1, 10), 1: F(9, 10)}
        assert [str(v) for v in validate_structure(m)] == [
            "CS1 violated at state 0, player 0, strategy 1.0, closest state 0 "
            "plays 0.5",
            "PR1 violated at state 0, player 0, positive mass on state 1 where "
            "the player uses 1.0",
            "PR2 violated at state 0, player 0, positive mass on state 1 with "
            "different beliefs"]
        doc = structure_to_json(m)
        assert doc["strategies"] == [["0.5", "1.0", "100.0"]]
        assert [entry["aux"] for entry in doc["states"]] == [
            [0.25, 100.0], [-0.0, [2.5]], ["x", 3]]
        assert json.dumps(doc["states"][1]) == '{"profile": [1], "aux": [-0.0, [2.5]]}'

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_constants_are_refused_by_name(self, constant):
        text = TestJsonFormat().pd_doc()
        text = json.dumps(text).replace('"1/2"', constant, 1)
        with pytest.raises(InputError) as exc:
            structure_from_json(text)
        assert str(exc.value) == (f"$: the JSON constant {constant} is not "
                                  "allowed; every number must be finite")

    def test_number_past_4300_digits_is_refused(self):
        # read as a float it was 0.0; exactly, 10^10000000 digits to build
        text = json.dumps(TestJsonFormat().pd_doc()).replace('"1/2"', "1e-10000000", 1)
        with pytest.raises(InputError) as exc:
            structure_from_json(text)
        assert str(exc.value) == "$: the number 1e-10000000 needs more than 4300 digits"

    def test_parse_error_names_line_and_column(self):
        with pytest.raises(InputError) as exc:
            structure_from_json('{"players": 2,\n "states": [}')
        assert str(exc.value).startswith("$: parse error at line 2, column 13: ")

    def test_budget_counts_closest_state_entries_before_parsing(self):
        doc = TestJsonFormat().pd_doc()  # 4 states x (2 + 2) strategies
        assert structure_from_json(doc, budget=16).num_states == 4
        with pytest.raises(BudgetExceededError) as exc:
            structure_from_json(json.dumps(doc), budget=15)
        assert str(exc.value) == ("enumeration requires 16 closest-state "
                                  "entries, exceeding budget 15")
