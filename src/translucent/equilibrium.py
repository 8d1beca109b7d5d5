"""Coherence and translucent-equilibrium checks.

A mixed profile is *coherent* when every support strategy of every player
weakly survives every deviation against some opponent reply: for each player
i, support strategy s_i and deviation s', there is an opponent profile under
which s' pays no more than s_i pays against the profile mixture.  Coherence
characterizes exactly the profiles witnessed by some counterfactual
structure in which all support states satisfy TE1-TE4, which
``te_in_structure`` judges once per belief cell, in the one integer pass
of ``counterfactual._cell_values``:

* TE1: the state plays a support profile;
* TE2: everyone's belief support stays inside the witness set;
* TE3: everyone's beliefs project onto the others' mixture;
* TE4: everyone is rational at the state.

The per-game closed-form conditions (two-point cooperate/defect mixtures)
come in typed form, where player i believes a deviation is detected by each
other player independently with probability alpha_i, and untyped form,
where deviations meet worst-case replies: untyped = typed at full detection
(every alpha_i = 1).  Both check the parameters once per call; pd, td and
the (N-1) public-goods reading then call the integer core that
``closed_form.cooperation_condition`` wraps, ``condition_terms``, once per
player, on the others' mean held as integers, total - x_i over den * (N - 1)
with den the betas' common denominator, and the printed public-goods
reading cross-multiplies the same integers.  Bertrand reads its tie kernel
from the Poisson-binomial ``OthersBehaviorModel.count_distribution`` of the
nonzero gammas: a gamma of 0 never cooperates, so untyped bertrand
convolves nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import prod
from typing import NamedTuple, Optional, Sequence

from .beliefs import OthersBehaviorModel
from .closed_form import checked_params, condition_terms
from .exact import common_denominator, to_unit
from .games import MixedProfile, as_game, minimize_payoff
from . import counterfactual as cf

__all__ = [
    "MixedProfile", "CoherenceReport", "TypedTeResult", "TeStructureReport",
    "is_coherent", "make_coherence_checker", "is_translucent_equilibrium",
    "te_in_structure", "te_condition", "te_condition_typed", "generalized_f",
]


class CoherenceReport(NamedTuple):
    """Coherence verdict with the first failing (player, strategy, deviation)."""

    coherent: bool
    witness: Optional[tuple] = None


def make_coherence_checker(game, budget: int = 10_000_000):
    """Precompute worst-case deviation payoffs once, then check profiles.

    Returns ``check(sigma) -> CoherenceReport``.  Useful when scanning many
    profiles of the same game; ``is_coherent`` is the one-shot form.
    """
    game = as_game(game)
    floors = [[minimize_payoff(game, i, s, budget)[0] for s in strats]
              for i, strats in enumerate(game.strategy_sets)]
    tops = [(top.numerator, top.denominator) for top in map(max, floors)]

    def check(sigma: MixedProfile) -> CoherenceReport:
        for i, (row, (tn, td)) in enumerate(zip(floors, tops)):
            for pos, _, _ in sigma._entries[i][0]:  # the support, by position
                num, den = sigma._payoff_at(i, pos)
                if num * td < tn * den:  # some deviation's floor beats u: the first one
                    u = Fraction(num, den)
                    j = next(j for j, floor in enumerate(row) if u < floor)
                    return CoherenceReport(False, (i, sigma.game.strategy_sets[i][pos],
                                                   game.strategy_sets[i][j]))
        return CoherenceReport(True)

    return check


def is_coherent(game, sigma: MixedProfile, budget: int = 10_000_000) -> CoherenceReport:
    """Definition-level coherence check by exact minimization over replies."""
    return make_coherence_checker(game, budget)(sigma)


class TeStructureReport(NamedTuple):
    """TE1-TE4 verdicts for a candidate witness set inside a structure."""

    holds: bool
    te1: tuple
    te2: tuple
    te3: tuple
    te4: tuple


def te_in_structure(m: cf.CounterfactualStructure, sigma: MixedProfile,
                    omega_subset: Optional[Sequence] = None) -> TeStructureReport:
    """Check TE1-TE4 for the given states (default: all support-profile
    states); a given state off the game (some strategy is not the game's)
    fails TE1 alone.  Violation tuples carry (state,) or (state, player).

    TE2-TE4 depend on a state only through the player's measure and own
    strategy, so each belief cell (player, measure object, own strategy) is
    judged once, on game positions, so no strategy is hashed.
    """
    positions, others = m._profile_index
    # the others' mixture: the others' offset -> integer weight, over den
    expected = [(dict(zip(offsets, ws)), den) for offsets, ws, den in sigma._kernels]
    # TE1: player 0 plays a support strategy and the others' offset is one of
    # the mixture's, which holds iff every player plays a support strategy
    support, mixture = {pos for pos, _, _ in sigma._entries[0][0]}, expected[0][0]
    inside = [p in support and o in mixture for p, o in zip(positions[0], others[0])]
    if omega_subset is None:
        omega_subset = list(compress(range(len(inside)), inside))
    omega_set = set(omega_subset)
    te1, te2, te3, te4 = [], [], [], []
    verdicts, plans = {}, {}
    players = list(enumerate(zip(positions, m.beliefs)))

    for omega in omega_subset:
        if not inside[omega]:
            te1.append((omega,))
            if None in [column[omega] for column in positions]:
                continue  # off the game: TE1 alone
        for i, (column, per_state) in players:
            dist = per_state[omega]
            key = (i, id(dist), column[omega])
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _judge_cell(
                    m, i, omega, dist, others[i], expected[i], omega_set, plans)
            if True in verdict:
                for found, violations in zip(verdict, (te2, te3, te4)):
                    if found:
                        violations.append((omega, i))

    holds = not (te1 or te2 or te3 or te4)
    return TeStructureReport(holds, tuple(te1), tuple(te2), tuple(te3), tuple(te4))


def _judge_cell(m: cf.CounterfactualStructure, i: int, omega: int, dist: dict,
                rest: tuple, expected: tuple, omega_set: set, plans: dict) -> tuple:
    """TE2, TE3 and TE4 violations of player i's cell at ``omega``, whose
    measure is ``dist`` and whose states' others' offsets are ``rest``;
    ``plans`` keeps each player's switch plan for the call.  TE4: no switch
    numerator above the on-path one, over their one denominator."""
    sources, (weights, den) = list(dist), common_denominator(dist.values())
    marginal, outside = {}, False  # the others' offset -> weight over den
    for t, w in zip(sources, weights):
        marginal[rest[t]] = marginal.get(rest[t], 0) + w
        if w > 0 and t not in omega_set:
            outside = True
    mixture, mixture_den = expected
    if i not in plans:
        plans[i] = cf._switch_plan(m, i)
    eu, values, _ = cf._cell_values(m, i, omega, sources, weights, den, plans[i])
    return (outside,
            {o: w * mixture_den for o, w in marginal.items() if w > 0}
            != {o: w * den for o, w in mixture.items()},
            max(values, default=eu) > eu)


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


class TypedTeResult(NamedTuple):
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
    mean cooperation: by the integer core ``condition_terms`` of
    ``cooperation_condition`` for pd, td and the (N-1) public-goods reading,
    with the parameters checked once per call, and by the product of the
    others' betas against the heterogeneous tie kernel for bertrand."""
    # parameters are checked before the vectors, so a bad one is reported first
    checked = checked_params(kind, params)
    n = checked[0] if kind in ("pgg", "bertrand") else 2
    als = alphas_for(n)
    bs = _unit_vector(betas, n, "beta")
    defect = not any(x.numerator for x in bs)
    if kind == "bertrand":
        _, l, h = checked
        # every player is judged (a list, not a generator), as the former
        # loop did: cheaper sweep rows fit more passes into cli_cold's fixed
        # run time, and past 100 samples its tail switches from p50 to p90
        holds = defect or all([
            prod(bs[:i] + bs[i + 1:]) >= generalized_f(
                [(1 - a) * x for x in bs[:i] + bs[i + 1:]], n) * l * n / h
            for i, a in enumerate(als)])
        return TypedTeResult(kind, holds, {"condition": holds})
    # the others' mean of player i is (total - x_i) / (den * (n - 1)), unreduced
    xs, den = common_denominator(bs)
    total, md = sum(xs), den * (n - 1)
    holds = defect or all(
        all(ln * rd >= rn * ld for ln, ld, rn, rd in condition_terms(
            kind, checked, a.numerator, a.denominator, total - x, md))
        for a, x in zip(als, xs))
    if kind == "pgg":
        rn, rd = checked[1].numerator, checked[1].denominator
        printed = defect or all(a.numerator * rn * (total - x)
                                >= (rd - rn) * a.denominator * md for a, x in zip(als, xs))
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
    # a gamma of 0 never cooperates, so leaving it out keeps C's law
    dist = OthersBehaviorModel([g for g in gs if g]).count_distribution()
    return sum((p / (n - k) for k, p in enumerate(dist)), Fraction(0))
