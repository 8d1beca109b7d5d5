"""Reference oracle for the closed-form cooperation conditions.

The library decides each condition on integer numerators and denominators.
This module keeps the same conditions written as plain ``Fraction``
expressions, term by term as in the ``closed_form`` docstring, so the tests
can compare the integer kernel against them.  Nothing here is fast; it is
meant to be obviously right.
"""

from fractions import Fraction

from translucent.exact import to_exact


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
