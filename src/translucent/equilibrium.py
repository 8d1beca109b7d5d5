"""Coherence and translucent-equilibrium checks.

A mixed profile is *coherent* when every support strategy of every player
weakly survives every deviation against some opponent reply: for each player
i, support strategy s_i and deviation s', there is an opponent profile under
which s' pays no more than s_i pays against the profile mixture.  Coherence
characterizes exactly the profiles witnessed by some counterfactual
structure in which all support states satisfy TE1-TE4:

* TE1: the state plays a support profile;
* TE2: everyone's belief support stays inside the witness set;
* TE3: everyone's beliefs project onto the others' mixture;
* TE4: everyone is rational at the state.

The per-game closed-form conditions (two-point cooperate/defect mixtures)
are provided in untyped form, where deviations are judged against worst-case
replies, and typed form, where player i additionally believes a deviation is
detected by each other player independently with probability alpha_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import to_unit
from .games import (KINDS, BudgetExceededError, MixedProfile, as_game,
                    bertrand_params, minimize_payoff, pd_params, pgg_params,
                    td_params)
from . import counterfactual as cf

__all__ = [
    "MixedProfile", "CoherenceReport", "TypedTeResult", "TeStructureReport",
    "is_coherent", "make_coherence_checker", "is_translucent_equilibrium",
    "te_in_structure", "te_condition", "te_condition_typed", "generalized_f",
]


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence verdict with the first failing (player, strategy, deviation)."""

    coherent: bool
    witness: Optional[tuple] = None


def make_coherence_checker(game, budget: int = 10_000_000):
    """Precompute worst-case deviation payoffs once, then check profiles.

    Returns ``check(sigma) -> CoherenceReport``.  Useful when scanning many
    profiles of the same game; ``is_coherent`` is the one-shot form.
    """
    game = as_game(game)
    floors = []
    for i in range(game.num_players):
        floors.append({s: minimize_payoff(game, i, s, budget)[0]
                       for s in game.strategy_sets[i]})

    def check(sigma: MixedProfile) -> CoherenceReport:
        for i in range(game.num_players):
            support_payoffs = {s: sigma.expected_payoff(i, s)
                               for s in sigma.support(i)}
            for s_i in sigma.support(i):
                u = support_payoffs[s_i]
                for s_dev in game.strategy_sets[i]:
                    if u < floors[i][s_dev]:
                        return CoherenceReport(False, (i, s_i, s_dev))
        return CoherenceReport(True)

    return check


def is_coherent(game, sigma: MixedProfile, budget: int = 10_000_000) -> CoherenceReport:
    """Definition-level coherence check by exact minimization over replies."""
    return make_coherence_checker(game, budget)(sigma)


@dataclass(frozen=True)
class TeStructureReport:
    """TE1-TE4 verdicts for a candidate witness set inside a structure."""

    holds: bool
    te1: tuple
    te2: tuple
    te3: tuple
    te4: tuple


def te_in_structure(m: cf.CounterfactualStructure, sigma: MixedProfile,
                    omega_subset: Optional[Sequence] = None) -> TeStructureReport:
    """Check TE1-TE4 for the given states (default: all support-profile
    states).  Violation tuples carry (state,) or (state, player).

    TE2-TE4 depend on a state only through the player's measure and own
    strategy, so each (player, measure object, own strategy) is judged once.
    """
    dists = sigma.distributions  # supports only: zero masses are dropped

    def in_support(profile) -> bool:
        return all(s in d for s, d in zip(profile, dists))

    if omega_subset is None:
        omega_subset = [k for k, profile in enumerate(m.states)
                        if in_support(profile)]
    omega_set = set(omega_subset)
    te1, te2, te3, te4 = [], [], [], []
    n = m.num_players
    expected = []
    for i in range(n):
        mixture: dict = {}
        for combo, p in sigma.others_support_profiles(i):
            if p > 0:
                mixture[combo] = mixture.get(combo, Fraction(0)) + p
        expected.append(mixture)
    verdicts: dict = {}

    for omega in omega_subset:
        if not in_support(m.states[omega]):
            te1.append((omega,))
        for i in range(n):
            dist = m.belief(i, omega)
            key = (i, id(dist), m.states[omega][i])
            verdict = verdicts.get(key)
            if verdict is None:
                outside = any(t not in omega_set for t, p in dist.items() if p > 0)
                marginal: dict = {}
                for t, p in dist.items():
                    others = tuple(s for j, s in enumerate(m.states[t]) if j != i)
                    marginal[others] = marginal.get(others, Fraction(0)) + p
                marginal = {k: v for k, v in marginal.items() if v > 0}
                verdict = verdicts[key] = (
                    outside, marginal != expected[i],
                    not cf.is_rational_at(m, i, omega).rational)
            for found, violations in zip(verdict, (te2, te3, te4)):
                if found:
                    violations.append((omega, i))

    holds = not (te1 or te2 or te3 or te4)
    return TeStructureReport(holds, tuple(te1), tuple(te2), tuple(te3), tuple(te4))


def is_translucent_equilibrium(game, sigma: MixedProfile, *,
                               check_structure: bool = False,
                               budget: int = 10_000_000) -> bool:
    """Translucent-equilibrium membership, decided through coherence.

    With ``check_structure`` the punishment structure is built as well and
    TE1-TE4 are verified on the support states; the two routes must agree.
    """
    game = as_game(game)
    report = is_coherent(game, sigma, budget)
    if check_structure:
        m = cf.build_coherent_structure(game, sigma, strict=False,
                                        budget=budget)
        structural = te_in_structure(m, sigma).holds
        if structural != report.coherent:
            raise RuntimeError(
                "internal inconsistency: coherence and the structural TE "
                f"check disagree ({report.coherent} vs {structural})")
    return report.coherent


# ---------------------------------------------------------------------------
# per-game two-point conditions


def _unit_vector(values: Sequence, n: int, name: str) -> list:
    if len(values) != n:
        raise ValueError(f"expected {n} {name} values, got {len(values)}")
    return [to_unit(v, name) for v in values]


def te_condition(kind: str, params: dict, betas: Sequence) -> bool:
    """Untyped equilibrium condition for the two-point profile in which
    player i cooperates with probability beta_i (all-defect always passes)."""
    if kind == "pd":
        b, c = pd_params(params["b"], params["c"])
        bs = _unit_vector(betas, 2, "beta")
        return all(x == 0 for x in bs) or all(x * b >= c for x in bs)
    if kind == "td":
        l, h, bonus = td_params(params["l"], params["h"], params["bonus"])
        bs = _unit_vector(betas, 2, "beta")
        return (all(x == 0 for x in bs)
                or all((h - l) * x >= bonus * (1 - x) for x in bs))
    if kind == "pgg":
        n, rho, _ = pgg_params(params["n"], params["rho"],
                               params.get("grid", 100), allow_rho_one=True)
        bs = _unit_vector(betas, n, "beta")
        if all(x == 0 for x in bs):
            return True
        total = sum(bs)
        return all(rho * (total - x) >= 1 - rho for x in bs)
    if kind == "bertrand":
        n, l, h = bertrand_params(params["n"], params["l"], params["h"])
        bs = _unit_vector(betas, n, "beta")
        if all(x == 0 for x in bs):
            return True
        ratio = Fraction(l, h)
        for i in range(n):
            prod = Fraction(1)
            for j, x in enumerate(bs):
                if j != i:
                    prod *= x
            if prod < ratio:
                return False
        return True
    raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")


@dataclass(frozen=True)
class TypedTeResult:
    """Typed equilibrium verdicts.

    ``readings`` holds every evaluated form of the condition.  For the
    public-goods game two inequalities are in circulation, with and without
    the (N-1) factor on the mean of the others' cooperation probabilities;
    both are reported and ``holds`` is None there (state-level rationality in
    the detection-bit structure is the arbiter, and matches the (N-1) form).
    For the other games ``holds`` is the single condition.
    """

    kind: str
    holds: Optional[bool]
    readings: dict


def te_condition_typed(kind: str, params: dict, alphas: Sequence,
                       betas: Sequence) -> TypedTeResult:
    """Typed equilibrium condition: player i treats deviations as detected
    independently with probability alpha_i by each other player."""
    if kind == "pd":
        b, c = pd_params(params["b"], params["c"])
        als = _unit_vector(alphas, 2, "alpha")
        bs = _unit_vector(betas, 2, "beta")
        holds = (all(x == 0 for x in bs)
                 or all(als[i] * bs[1 - i] * b >= c for i in (0, 1)))
        return TypedTeResult(kind, holds, {"condition": holds})
    if kind == "td":
        l, h, bonus = td_params(params["l"], params["h"], params["bonus"])
        als = _unit_vector(alphas, 2, "alpha")
        bs = _unit_vector(betas, 2, "beta")
        if all(x == 0 for x in bs):
            return TypedTeResult(kind, True, {"condition": True})
        ok = True
        for i in (0, 1):
            a, beta_other = als[i], bs[1 - i]
            if (h - l) * beta_other < bonus * (1 - a * beta_other):
                ok = False
            if a < Fraction(1, 2) and 1 + a * (h - l - 1) < bonus * (1 - 2 * a):
                ok = False
        return TypedTeResult(kind, ok, {"condition": ok})
    if kind == "pgg":
        n, rho, _ = pgg_params(params["n"], params["rho"],
                               params.get("grid", 100), allow_rho_one=True)
        als = _unit_vector(alphas, n, "alpha")
        bs = _unit_vector(betas, n, "beta")
        if all(x == 0 for x in bs):
            return TypedTeResult(kind, None,
                                 {"printed": True, "n_minus_1": True})
        total = sum(bs)
        printed = all(
            als[i] * rho * Fraction(total - bs[i], n - 1) >= 1 - rho
            for i in range(n))
        corrected = all(als[i] * rho * (total - bs[i]) >= 1 - rho
                        for i in range(n))
        return TypedTeResult(kind, None,
                             {"printed": printed, "n_minus_1": corrected})
    if kind == "bertrand":
        n, l, h = bertrand_params(params["n"], params["l"], params["h"])
        als = _unit_vector(alphas, n, "alpha")
        bs = _unit_vector(betas, n, "beta")
        if all(x == 0 for x in bs):
            return TypedTeResult(kind, True, {"condition": True})
        ok = True
        for i in range(n):
            gammas = [(1 - als[i]) * bs[j] for j in range(n) if j != i]
            prod = Fraction(1)
            for j in range(n):
                if j != i:
                    prod *= bs[j]
            if prod < generalized_f(gammas, n) * l * n / Fraction(h):
                ok = False
        return TypedTeResult(kind, ok, {"condition": ok})
    raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")


def generalized_f(gammas: Sequence, n: int, budget: int = 2 ** 20) -> Fraction:
    """Heterogeneous tie kernel: sum over subsets J of the others of
    prod_{j not in J} gamma_j * prod_{j in J} (1 - gamma_j) / (|J| + 1).

    Collapses to f(gamma, N) when all entries are equal.  Enumerates the
    2^(N-1) subsets, subject to the budget.
    """
    if len(gammas) != n - 1:
        raise ValueError(f"expected {n - 1} gamma values, got {len(gammas)}")
    gs = [to_unit(g, "gamma") for g in gammas]
    if 2 ** (n - 1) > budget:
        raise BudgetExceededError(2 ** (n - 1), budget, "subsets")
    total = Fraction(0)
    for picks in itertools.product((False, True), repeat=n - 1):
        term = Fraction(1)
        size = 0
        for g, in_j in zip(gs, picks):
            if in_j:
                term *= 1 - g
                size += 1
            else:
                term *= g
        total += term / (size + 1)
    return total
