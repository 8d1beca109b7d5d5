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
reading cross-multiplies the same integers.  Bertrand's tie kernel
E[1 / (N - C)] is the sum over k of e_k(gamma) k! (N-1-k)! / N!
(``_tie_sum``), for e_k the elementary symmetric polynomials, in exact
integers: those of all the betas are built once, O(N^2), and each player's
others' follow in O(N) by dividing out its own factor.  At full detection
every gamma is 0, so untyped bertrand compares the product of the others'
betas with l / h.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import factorial, prod
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .closed_form import checked_params, condition_terms
from .exact import common_denominator, to_unit
from .games import MixedProfile, as_game, minimize_payoff

if TYPE_CHECKING:  # counterfactual is imported by the calls that use it
    from .counterfactual import CounterfactualStructure

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


def te_in_structure(m: CounterfactualStructure, sigma: MixedProfile,
                    omega_subset: Optional[Sequence] = None) -> TeStructureReport:
    """Check TE1-TE4 for the given states (default: all support-profile
    states); a given state off the game (some strategy is not the game's)
    fails TE1 alone.  Violation tuples carry (state,) or (state, player).

    TE2-TE4 depend on a state only through the player's measure and own
    strategy, so each belief cell (player, measure object, own strategy) is
    judged once, on game positions, so no strategy is hashed.
    """
    from . import counterfactual as cf  # once per call, not per cell

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
    verdicts = {}
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
                    cf, m, i, omega, dist, others[i], expected[i], omega_set)
            if True in verdict:
                for found, violations in zip(verdict, (te2, te3, te4)):
                    if found:
                        violations.append((omega, i))

    holds = not (te1 or te2 or te3 or te4)
    return TeStructureReport(holds, tuple(te1), tuple(te2), tuple(te3), tuple(te4))


def _judge_cell(cf, m: CounterfactualStructure, i: int, omega: int, dist: dict,
                rest: tuple, expected: tuple, omega_set: set) -> tuple:
    """TE2, TE3 and TE4 violations of player i's cell at ``omega``, whose
    measure is ``dist`` and whose states' others' offsets are ``rest``;
    ``cf`` is the counterfactual module.  TE4: no switch numerator above the
    on-path one, over their one denominator."""
    sources, weights, den = cf._integer_form(dist)
    marginal, outside = {}, False  # the others' offset -> weight over den
    for t, w in zip(sources, weights):
        marginal[rest[t]] = marginal.get(rest[t], 0) + w
        if w > 0 and t not in omega_set:
            outside = True
    mixture, mixture_den = expected
    eu, values, _ = cf._cell_values(m, i, omega, sources, weights, den, cf._switch_plan(m, i))
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
        from .counterfactual import build_coherent_structure

        m = build_coherent_structure(game, sigma, strict=False, budget=budget)
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
    betas held as integers: their mean over the betas' common denominator,
    by the integer core ``condition_terms`` of ``cooperation_condition`` for
    pd, td and the (N-1) public-goods reading, with the parameters checked
    once per call, and their product against the tie kernel for bertrand
    (``_bertrand_holds``)."""
    # parameters are checked before the vectors, so a bad one is reported first
    checked = checked_params(kind, params)
    n = checked[0] if kind in ("pgg", "bertrand") else 2
    als = alphas_for(n)
    bs = _unit_vector(betas, n, "beta")
    defect = not any(x.numerator for x in bs)
    if kind == "bertrand":
        holds = defect or _bertrand_holds(checked, als, bs)
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


def _bertrand_holds(checked: tuple, als: list, bs: list) -> bool:
    """Every player's prod_{j != i} beta_j >= f(gamma, N) * l * N / h, gamma_j
    = (1 - alpha_i) * beta_j, on integers: with beta_j = p_j / q_j and
    alpha_i = an / ad, so gamma_j = (g / ad) * beta_j for g = ad - an, it is
    h * ad^(n-1) * (n-1)! * prod_{j != i} p_j >= l * _tie_sum(c, g, ad, n)
    for c the coefficients of prod_{j != i} (q_j + p_j t).  The kernel is
    positive, so with a beta of 0 beside a positive one, the positive
    player's product of the others, 0, fails.  Each distinct (alpha_i,
    beta_i) is judged once, and the whole product's coefficients are
    expanded, O(n^2), only when some alpha is below 1."""
    if not all(bs):
        return False
    n, l, h = checked
    p_all, q_all = prod(b.numerator for b in bs), prod(b.denominator for b in bs)
    whole = _expand(bs) if any(a.numerator != a.denominator for a in als) else None
    scale = factorial(n - 1)
    for an, ad, p, q in {(*a.as_integer_ratio(), *b.as_integer_ratio())
                         for a, b in zip(als, bs)}:
        others = p_all // p  # prod_{j != i} p_j
        g = ad - an  # 0 at full detection: only c_0, the others' q_j product, counts
        coefficients = _leave_one_out(whole, p, q) if g else (q_all // q,)
        if h * ad ** (n - 1) * scale * others < l * _tie_sum(coefficients, g, ad, n):
            return False
    return True


def _expand(values: Sequence) -> list:
    """The integer coefficients of prod_j (q_j + p_j t) over ``values`` p_j /
    q_j: c_k is e_k(values), the k-th elementary symmetric polynomial, times
    the product of the q_j.  One factor at a time, O(len(values)^2); a value
    of 1, the factor 1 + t, takes sums alone."""
    cs = [1]
    for v in values:
        p, q = v.as_integer_ratio()
        if p == q:
            cs = [c + d for c, d in zip(cs + [0], [0, *cs])]
        else:
            cs = [q * c + p * d for c, d in zip(cs + [0], [0, *cs])]
    return cs


def _leave_one_out(cs: list, p: int, q: int) -> list:
    """``cs`` divided by its factor (q + p t): the coefficients r with c_k = q
    * r_k + p * r_{k-1}, so r_k = (c_k - p * r_{k-1}) / q, exact."""
    rest, r = [], 0
    for c in cs[:-1]:
        r = (c - p * r) // q
        rest.append(r)
    return rest


def _tie_sum(cs: Sequence, gn: int, gd: int, n: int) -> int:
    """The tie kernel E[1 / (N - C)] at gammas (gn / gd) * y_j, times n! *
    gd^(n-1) * Q, for ``cs`` the coefficients of prod_j (q_j + p_j t) over
    the n - 1 others' y_j = p_j / q_j and Q the product of their q_j.

    With D = (n - 1) - C the others who defect, 1 / (D + 1) is the integral
    of t^D over [0, 1], so by independence the kernel is the integral of
    prod_j (gamma_j + (1 - gamma_j) t): the sum over k of e_k(gamma) times
    the Beta integral k! (n-1-k)! / n!, here cs[k] * gn^k * gd^(n-1-k) *
    k! (n-1-k)!.  A gn of 0 keeps only k = 0.  Otherwise Horner's rule
    sums the n terms, G_k = G_(k-1) * gd * (n - k) + cs[k] * gn^k * k!,
    so each term costs one product of two large integers, not three."""
    if not gn:
        return cs[0] * factorial(n - 1) * gd ** (n - 1)
    total, f = 0, 1  # f = gn^k * k!
    for k, c in enumerate(cs):
        if k:
            total, f = total * gd * (n - k), f * gn * k
        total += c * f
    return total


def _tie_kernel_words(n: int, alphas, betas: list) -> int:
    """An upper bound on the word-sized products of bertrand's tie kernel
    (``_bertrand_holds``) for ``te_condition`` and, with ``alphas``,
    ``te_condition_typed``, from the alphas' and betas' bit lengths alone,
    before anything is built; the CLI's ``equilibrium`` budgets it.  A
    product of x and y counts w(x) * w(y) for w(bits) = bits // 64 + 1.  A
    beta of 0 leaves no kernel, and a beta of 1 is no product in the
    expansion of prod_j (q_j + p_j t), O(n^2) coefficients; each distinct
    (alpha, beta) pair then takes O(n) products, bounded through the bit
    lengths of the betas' products (``p_bits``), the coefficients
    (``s_bits``), (n - 1)! (``fact``) and the Horner sums of ``_tie_sum``
    as they grow."""
    if not all(betas):
        return 0

    def w(bits: int) -> int:
        return bits // 64 + 1

    def ramp(start: int, step: int) -> int:  # >= sum of w(start + k * step), k < n
        return n * (w(start) + 1) + step * n * (n - 1) // 128

    sizes = [max(b.as_integer_ratio()).bit_length() for b in betas]
    length, fact = n.bit_length(), n * n.bit_length()  # (n - 1)! < 2^fact
    p_bits = sum(sizes)
    s_bits = p_bits + n  # c_k <= C(n, k) * prod_j max(p_j, q_j)

    def pair(an: int, ad: int, p: int, q: int) -> int:
        b, a, g = max(p, q).bit_length(), ad.bit_length(), (ad - an).bit_length()
        powers = n * a  # ad^(n - 1)
        words = w(p_bits) * w(b) + w(powers) ** 2  # the others' p_j, ad^(n - 1)
        if g:  # leave one out, then Horner over n terms
            words += (n * w(s_bits) * w(b) + ramp(s_bits, a + g + 2 * length) * (w(a) + 1)
                      + ramp(0, g + length) * (w(g) + 1 + w(s_bits)))
        else:  # c_0 alone: the others' q_j, times (n - 1)! and ad^(n - 1)
            words += (w(p_bits) * w(b) + w(fact) ** 2 + w(p_bits) * w(fact)
                      + w(p_bits + fact) * w(powers))
        tie = s_bits + n * (a + g + 2 * length)  # bits of the kernel's sum
        return words + w(powers) * w(fact) + w(powers + fact) * w(p_bits) + w(tie)

    # both conditions: the products of all p_j and all q_j, and (n - 1)!
    whole = 2 * n * w(p_bits) + w(fact) ** 2
    words = whole + sum(pair(1, 1, *b.as_integer_ratio()) for b in set(betas))
    if alphas is not None:
        words += whole + sum(pair(*a.as_integer_ratio(), *b.as_integer_ratio())
                             for a, b in set(zip(alphas, betas)))
        if any(a != 1 for a in alphas):
            grown = 0  # the expansion: j + 1 coefficients of grown bits, times p_j and q_j
            for j, (beta, size) in enumerate(zip(betas, sizes)):
                grown += size + 1
                if beta != 1:
                    words += 2 * (j + 1) * w(grown) * w(size)
    return words


def generalized_f(gammas: Sequence, n: int) -> Fraction:
    """Heterogeneous tie kernel E[1 / (N - C)], where C counts the others who
    still cooperate after a deviation, the j-th with probability gamma_j.

    ``_tie_sum`` over the coefficients of prod_j (q_j + p_j t), gamma_j =
    p_j / q_j; it equals f(gamma, N) when all entries are equal.
    """
    if len(gammas) != n - 1:
        raise ValueError(f"expected {n - 1} gamma values, got {len(gammas)}")
    gs = [to_unit(g, "gamma") for g in gammas]
    return Fraction(_tie_sum(_expand(gs), 1, 1, n),
                    factorial(n) * prod(g.denominator for g in gs))
