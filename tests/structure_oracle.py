"""Reference oracle for the structure checks.

The library validates structures per belief cell and sums expected
utilities on integers.  This module keeps the plain per-state forms, with
dict equality for PR2, one ``Fraction`` product per belief entry and the
``joint_prob`` support test, so the tests can compare the fast code against
them.  Nothing here is fast; it is meant to be obviously right.  It sums
probabilities as given, so the tests hand it measures whose floats are
already converted to their exact values, as the library converts them.
"""

from fractions import Fraction

from translucent.counterfactual import (MISSING, NORM_TOL, StateUtilityReport,
                                        Violation)
from translucent.equilibrium import TeStructureReport


def validate_structure(m) -> list:
    """CS1, CS2, PR1, PR2 and NORM, state by state."""
    violations = []
    n_states = m.num_states

    for omega in range(n_states):
        profile = m.states[omega]
        for i in range(m.num_players):
            own = profile[i]
            for j, s in enumerate(m.strategy_sets[i]):
                target = m.closest_columns[(i, j)][omega]
                if not 0 <= target < n_states:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        "missing or out-of-range closest-state entry"))
                    continue
                if m.states[target][i] != s:
                    violations.append(Violation(
                        "CS1", omega, i, s,
                        f"closest state {target} plays {m.states[target][i]!r}"))
                if s == own and target != omega:
                    violations.append(Violation(
                        "CS2", omega, i, s,
                        f"keeping the current strategy moved the state to {target}"))

    for i in range(m.num_players):
        for omega in range(n_states):
            dist = m.beliefs[i][omega]
            total = sum(dist.values(), Fraction(0))
            if abs(total - 1) > NORM_TOL:
                violations.append(Violation(
                    "NORM", omega, i, detail=f"belief mass sums to {total}"))
            own = m.states[omega][i]
            for target, p in dist.items():
                if p <= 0:
                    continue
                if m.states[target][i] != own:
                    violations.append(Violation(
                        "PR1", omega, i,
                        detail=f"positive mass on state {target} where the "
                               f"player uses {m.states[target][i]!r}"))
                if m.beliefs[i][target] != dist:
                    violations.append(Violation(
                        "PR2", omega, i,
                        detail=f"positive mass on state {target} with "
                               "different beliefs"))
    return violations


def derived_beliefs(m, i: int, omega: int, s_dev) -> dict:
    j = m.strategy_index(i, s_dev)
    column = m.closest_columns[(i, j)]
    out: dict = {}
    for source, p in m.belief(i, omega).items():
        target = column[source]
        if target == MISSING:
            raise ValueError(
                f"closest-state entry missing for state {source}, player {i}, "
                f"strategy {s_dev!r}")
        out[target] = out.get(target, Fraction(0)) + p
    return out


def _require_game(m):
    if m.game is None:
        raise ValueError("structure has no attached game; utilities need one")
    return m.game


def eu_at_state(m, i: int, omega: int) -> Fraction:
    game = _require_game(m)
    own = m.states[omega][i]
    total = Fraction(0)
    for target, p in m.belief(i, omega).items():
        profile = list(m.states[target])
        profile[i] = own
        total += p * game.payoff(tuple(profile), i)
    return total


def eu_at_state_switch(m, i: int, omega: int, s_dev) -> Fraction:
    game = _require_game(m)
    total = Fraction(0)
    for target, p in derived_beliefs(m, i, omega, s_dev).items():
        profile = list(m.states[target])
        profile[i] = s_dev
        total += p * game.payoff(tuple(profile), i)
    return total


def is_rational_at(m, i: int, omega: int) -> StateUtilityReport:
    eu = eu_at_state(m, i, omega)
    switches = {}
    for s in m.strategy_sets[i]:
        switches[s] = eu_at_state_switch(m, i, omega, s)
    rational = all(eu >= v for v in switches.values())
    return StateUtilityReport(eu, switches, rational)


def te_in_structure(m, sigma, omega_subset=None) -> TeStructureReport:
    """TE1-TE4 state by state, with per-state rationality from this module."""
    if omega_subset is None:
        omega_subset = [k for k in range(m.num_states)
                        if sigma.joint_prob(m.states[k]) > 0]
    omega_set = set(omega_subset)
    te1, te2, te3, te4 = [], [], [], []
    n = m.num_players

    for omega in omega_subset:
        if sigma.joint_prob(m.states[omega]) == 0:
            te1.append((omega,))
        for i in range(n):
            dist = m.belief(i, omega)
            if any(t not in omega_set for t, p in dist.items() if p > 0):
                te2.append((omega, i))
            marginal: dict = {}
            for t, p in dist.items():
                others = tuple(s for j, s in enumerate(m.states[t]) if j != i)
                marginal[others] = marginal.get(others, Fraction(0)) + p
            expected: dict = {}
            for combo, p in sigma.others_support_profiles(i):
                if p > 0:
                    expected[combo] = expected.get(combo, Fraction(0)) + p
            marginal = {k: v for k, v in marginal.items() if v > 0}
            if marginal != expected:
                te3.append((omega, i))
            if not is_rational_at(m, i, omega).rational:
                te4.append((omega, i))

    holds = not (te1 or te2 or te3 or te4)
    return TeStructureReport(holds, tuple(te1), tuple(te2), tuple(te3), tuple(te4))
