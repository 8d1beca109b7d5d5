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
come in typed form, where player i believes a deviation is detected by each
other player independently with probability alpha_i, and untyped form,
where deviations meet worst-case replies: untyped = typed at full detection
(every alpha_i = 1).  Both read each player's inequality from
``closed_form.cooperation_condition``, and bertrand's tie kernel from the
Poisson-binomial ``OthersBehaviorModel.count_distribution``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .beliefs import OthersBehaviorModel
from .closed_form import cooperation_condition
from .exact import to_unit
from .games import (KINDS, MixedProfile, as_game, bertrand_params,
                    minimize_payoff, pd_params, pgg_params, td_params)
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
            for s_i in sigma.support(i):
                u = sigma.expected_payoff(i, s_i)
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
    States are read by their positions in the game, so no strategy is hashed.
    """
    positions, others = m._profile_index
    supports = [{sigma.game._index[i][s] for s in d}  # zero masses are dropped
                for i, d in enumerate(sigma.distributions)]
    inside = tuple(all(x in s for x, s in zip(pos, supports)) for pos in zip(*positions))
    if omega_subset is None:
        omega_subset = [k for k, yes in enumerate(inside) if yes]
    omega_set = set(omega_subset)
    te1, te2, te3, te4 = [], [], [], []
    n = m.num_players
    expected = [dict(cf._others_pairs(sigma, i)) for i in range(n)]
    verdicts: dict = {}

    for omega in omega_subset:
        if not inside[omega]:
            te1.append((omega,))
        for i in range(n):
            dist = m.belief(i, omega)
            key = (i, id(dist), positions[i][omega])
            verdict = verdicts.get(key)
            if verdict is None:
                outside = any(t not in omega_set for t, p in dist.items() if p > 0)
                marginal: dict = {}  # keyed by the others' offset, as expected
                for t, p in dist.items():
                    k = others[i][t]
                    marginal[k] = marginal[k] + p if k in marginal else p
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


def te_condition(kind: str, params: dict, betas: Sequence) -> bool:
    """Untyped equilibrium condition for the two-point profile in which
    player i cooperates with probability beta_i: the typed condition at full
    detection (every alpha_i = 1), in the (N-1) reading for the public-goods
    game.  All-defect always passes."""
    result = _two_point(kind, params, betas, lambda n: [1] * n)
    return result.readings["n_minus_1"] if result.holds is None else result.holds


def te_condition_typed(kind: str, params: dict, alphas: Sequence,
                       betas: Sequence) -> TypedTeResult:
    """Typed equilibrium condition: player i treats deviations as detected
    independently with probability alpha_i by each other player."""
    return _two_point(kind, params, betas,
                      lambda n: _unit_vector(alphas, n, "alpha"))


def _two_point(kind: str, params: dict, betas: Sequence,
               alphas_for) -> TypedTeResult:
    """Both conditions' one body; ``alphas_for(n)`` gives the alpha vector
    once the player count is known.  Player i is judged against the others'
    mean cooperation: by ``cooperation_condition`` for pd, td and the (N-1)
    public-goods reading, and by the product of the others' betas against
    the heterogeneous tie kernel for bertrand."""
    # parameters are checked before the vectors, so a bad one is reported first
    if kind == "pd":
        pd_params(params["b"], params["c"])
        n = 2
    elif kind == "td":
        td_params(params["l"], params["h"], params["bonus"])
        n = 2
    elif kind == "pgg":
        n, rho, _ = pgg_params(params["n"], params["rho"],
                               params.get("grid", 100), allow_rho_one=True)
    elif kind == "bertrand":
        n, l, h = bertrand_params(params["n"], params["l"], params["h"])
    else:
        raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")
    als = alphas_for(n)
    bs = _unit_vector(betas, n, "beta")
    defect = all(x == 0 for x in bs)
    means = [(sum(bs) - x) / (n - 1) for x in bs]
    if kind == "bertrand":
        # every player is judged (a list, not a generator), as the former
        # loop did: cheaper sweep rows fit more passes into cli_cold's fixed
        # run time, and past 100 samples its tail switches from p50 to p90
        holds = defect or all([
            prod(bs[:i] + bs[i + 1:]) >= generalized_f(
                [(1 - a) * x for x in bs[:i] + bs[i + 1:]], n) * l * n / h
            for i, a in enumerate(als)])
    else:
        holds = defect or all(cooperation_condition(kind, params, a, m).rational
                              for a, m in zip(als, means))
    if kind == "pgg":
        printed = defect or all(a * rho * m >= 1 - rho for a, m in zip(als, means))
        return TypedTeResult(kind, None, {"printed": printed, "n_minus_1": holds})
    return TypedTeResult(kind, holds, {"condition": holds})


def generalized_f(gammas: Sequence, n: int) -> Fraction:
    """Heterogeneous tie kernel E[1 / (N - C)], where C counts the others who
    still cooperate after a deviation, the j-th with probability gamma_j.

    C's Poisson-binomial law is ``OthersBehaviorModel.count_distribution``;
    the kernel equals f(gamma, N) when all entries are equal.
    """
    if len(gammas) != n - 1:
        raise ValueError(f"expected {n - 1} gamma values, got {len(gammas)}")
    gs = [to_unit(g, "gamma") for g in gammas]
    dist = OthersBehaviorModel(gs, "post_deviation").count_distribution()
    return sum((p / (n - k) for k, p in enumerate(dist)), Fraction(0))
