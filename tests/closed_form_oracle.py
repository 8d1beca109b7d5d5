"""Reference oracle for the closed-form cooperation conditions.

The library decides each condition on integer numerators and denominators.
This module keeps the same conditions written as plain ``Fraction``
expressions, term by term as in the ``closed_form`` docstring, so the tests
can compare the integer kernel against them.  Nothing here is fast; it is
meant to be obviously right.

The equilibrium section keeps the two-point equilibrium conditions as they
were before they were read from ``cooperation_condition``: each game's
inequality written out per condition, and the heterogeneous tie kernel as
its defining sum over the 2^(N-1) subsets of the others.  It also keeps the
pd, td and public-goods body that read them from ``cooperation_condition``,
player by player (``two_point_by_verdicts``); the library now checks the
parameters once and calls the integer core ``condition_terms`` per player.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from translucent.closed_form import cooperation_condition as library_condition
from translucent.equilibrium import TypedTeResult
from translucent.exact import to_exact, to_unit
from translucent.games import (KINDS, BudgetExceededError, bertrand_params,
                               pd_params, pgg_params, td_params)


def unit(x):
    v = to_exact(x)
    assert 0 <= v <= 1
    return v


def f_gamma(gamma: Fraction, n: int) -> Fraction:
    """f(gamma, N) by its defining binomial sum."""
    from math import comb

    return sum((comb(n - 1, k) * (1 - gamma) ** k * gamma ** (n - 1 - k)
                * Fraction(1, k + 1) for k in range(n)), Fraction(0))


def conditions(kind: str, params: dict, alpha, beta) -> list:
    """The game's conditions as (binding quantity, threshold) pairs."""
    a, b_ = unit(alpha), unit(beta)
    if kind == "pd":
        b, c = to_exact(params["b"]), to_exact(params["c"])
        return [(a * b_ * b, c)]
    if kind == "td":
        l, h = int(params["l"]), int(params["h"])
        bonus = to_exact(params["bonus"])
        conds = [((h - l) * b_, bonus * (1 - a * b_))]
        if a < Fraction(1, 2):
            conds.append((1 + a * (h - l - 1), bonus * (1 - 2 * a)))
        return conds
    if kind == "pgg":
        n, rho = int(params["n"]), to_exact(params["rho"])
        return [(a * b_ * rho * (n - 1), 1 - rho)]
    if kind == "bertrand":
        n, l, h = int(params["n"]), int(params["l"]), int(params["h"])
        gamma = (1 - a) * b_
        return [(b_ ** (n - 1), f_gamma(gamma, n) * l * n / Fraction(h))]
    raise ValueError(kind)


def cooperation_condition(kind: str, params: dict, alpha, beta) -> tuple:
    """(rational, binding_quantity, threshold); the binding condition is the
    one with the smallest margin, the first one on a tie."""
    conds = conditions(kind, params, alpha, beta)
    rational = all(lhs >= rhs for lhs, rhs in conds)
    binding, threshold = min(conds, key=lambda c: c[0] - c[1])
    return rational, binding, threshold


def bertrand_undercut_condition(params: dict, alpha, beta) -> bool:
    n, l, h = int(params["n"]), int(params["l"]), int(params["h"])
    a, b_ = unit(alpha), unit(beta)
    gamma = (1 - a) * b_
    return b_ ** (n - 1) * Fraction(h, n) >= gamma ** (n - 1) * (h - 1)


def bertrand_lower_bound_check(beta, l: int, h: int, n: int) -> bool:
    return unit(beta) ** (n - 1) < Fraction(l, h)


# ---------------------------------------------------------------------------
# equilibrium conditions


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


def two_point_by_verdicts(kind: str, params: dict, betas: Sequence,
                          alphas_for) -> TypedTeResult:
    """pd, td and public goods: parameters checked, then player i judged by
    ``cooperation_condition(kind, params, alpha_i, mean_i).rational`` with
    mean_i the others' mean beta; ``alphas_for(n)`` gives the alphas."""
    if kind == "pd":
        pd_params(params["b"], params["c"])
        n = 2
    elif kind == "td":
        td_params(params["l"], params["h"], params["bonus"])
        n = 2
    elif kind == "pgg":
        n, rho, _ = pgg_params(params["n"], params["rho"],
                               params.get("grid", 100), allow_rho_one=True)
    else:
        raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")
    als = alphas_for(n)
    bs = _unit_vector(betas, n, "beta")
    defect = all(x == 0 for x in bs)
    means = [(sum(bs) - x) / (n - 1) for x in bs]
    holds = defect or all(library_condition(kind, params, a, m).rational
                          for a, m in zip(als, means))
    if kind == "pgg":
        printed = defect or all(a * rho * m >= 1 - rho for a, m in zip(als, means))
        return TypedTeResult(kind, None, {"printed": printed, "n_minus_1": holds})
    return TypedTeResult(kind, holds, {"condition": holds})


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


# ---------------------------------------------------------------------------
# grid commands
#
# The CLI's ``sweep`` rows and ``population`` rates as they were computed
# before they were read from ``closed_form.decide`` on integer ratios: one
# ``cooperation_condition`` call per cell, its two sides printed through the
# ``Fraction``-valued report rule.  Configs here give every grid as a list
# (or one value) of exact numbers.

_HUGE = 10 ** 4300


def report_value(x):
    """``exact.report_value`` as it was: the float's 12-digit text parsed
    back, or the exact text past the float range, at 0 and past 4300 digits."""
    from decimal import Decimal

    def exact_text(f):
        try:
            return str(f)
        except ValueError:
            text = str(Decimal(f.numerator))
            return text if f.denominator == 1 else f"{text}/{Decimal(f.denominator)}"
    f = to_exact(x)
    if f.denominator == 1:
        return f.numerator if abs(f.numerator) < _HUGE else exact_text(f)
    try:
        v = float(f)
    except OverflowError:
        return exact_text(f)
    return float(f"{v:.12g}") if v else exact_text(f)


def format_number(x) -> str:
    v = report_value(x)
    return f"{v:.12g}" if type(v) is float else str(v)


def _values(value) -> list:
    return [to_exact(v) for v in (value if isinstance(value, list) else [value])]


def sweep_text(cfg: dict) -> str:
    """A non-qre ``sweep`` report, one ``cooperation_condition`` per row."""
    from translucent.exact import PARAMS

    kind, mode = cfg["kind"], cfg.get("mode", "cooperation")
    keys = PARAMS[kind]
    grids = [[int(v) if k in ("n", "l", "h") else v for v in _values(cfg["params"][k])]
             for k in keys]
    betas = _values(cfg["beta"])
    alphas = _values(cfg["alpha"]) if mode in ("cooperation", "te_typed") else [None]
    lines = ["kind,param_snapshot,alpha,beta,rational,binding,threshold"]
    for combo in itertools.product(*grids):
        params = dict(zip(keys, combo))
        if kind == "pgg":
            params["grid"] = cfg.get("grid", 100)
        snapshot = ";".join(f"{k}={format_number(params[k])}" for k in keys)
        for alpha in alphas:
            for beta in betas:
                verdict = library_condition(kind, params, 1 if alpha is None else alpha, beta)
                ok = verdict.rational or (mode != "cooperation" and beta == 0)
                lines.append(f"{kind},{snapshot},"
                             f"{'' if alpha is None else format_number(alpha)},"
                             f"{format_number(beta)},{'true' if ok else 'false'},"
                             f"{format_number(verdict.binding_quantity)},"
                             f"{format_number(verdict.threshold)}")
    return "\n".join(lines) + "\n"


def population_rate(cfg: dict) -> Fraction:
    """A ``population`` report's rate: the weights of the types whose
    ``cooperation_condition`` holds, summed in ``Fraction``s."""
    kind, params, spec = cfg["kind"], dict(cfg["params"]), cfg["population"]
    if kind == "pgg":
        params["grid"] = cfg.get("grid", 100)
    if "grid" in spec:
        alphas, betas = _values(spec["grid"]["alpha"]), _values(spec["grid"]["beta"])
        w = Fraction(1, len(alphas) * len(betas))
        types = [(a, b, w) for a in alphas for b in betas]
    else:
        types = [(to_exact(t["alpha"]), to_exact(t["beta"]), to_exact(t["weight"]))
                 for t in spec["types"]]
    return sum((w for a, b, w in types
                if library_condition(kind, params, a, b).rational), Fraction(0))
