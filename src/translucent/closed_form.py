"""Closed-form cooperation conditions for the four social dilemmas.

Each predicate decides, from the game parameters and a type (alpha, beta)
alone, whether intended cooperation is a weak best response:

* prisoner's dilemma:   alpha * beta * b >= c
* traveler's dilemma:   b * (1 - alpha*beta) <= (H - L) * beta, and for
                        alpha < 1/2 additionally
                        b * (1 - 2*alpha) <= 1 + alpha*(H - L - 1)
                        (the undercut-by-one deviation; see note below)
* public goods:         alpha * beta * rho * (N - 1) >= 1 - rho
* bertrand:             beta^(N-1) >= f(gamma, N) * L * N / H,
                        gamma = (1 - alpha) * beta

where f(gamma, N) = sum_k C(N-1, k) (1-gamma)^k gamma^(N-1-k) / (k+1) is the
expected reciprocal share of a price-floor tie.

Every verdict is decided on integers.  alpha, beta and the game parameters
are split into numerator and denominator, each inequality is held as
(lhs_num, lhs_den, rhs_num, rhs_den) with positive denominators and decided
by cross-multiplying; for bertrand, with gamma = gn/gd,
f(gamma, N) = (gd^N - gn^N) / (N * gd^(N-1) * (gd - gn)).  ``Fraction``s are
built only for the two sides a ``CooperationVerdict`` returns.  Each game's
conditions are stated once, in the unchecked integer core
``condition_terms``; ``cooperation_condition`` checks alpha, beta and the
parameters (``checked_params``) and wraps it, and the two-point equilibrium
conditions check once per call and read the core once per player.

Note on the traveler's dilemma branch: equating the cooperation payoff with
the payoff of undercutting to H-1 gives b*(1-2a) <= 1 + a*(H-L-1); the often
quoted cap (H-L-1)/(1-2a) is strictly looser and disagrees with brute-force
best-response checks (e.g. L=2, H=13, b=8, alpha=1/4, beta=0.9:
EU(cooperate)=11.1 < EU(claim 12)=11.55).  We use the exact branch.

Note on bertrand: the predicate above intentionally ignores the undercut
deviation to H-1, whose payoff gamma^(N-1) * (H-1) can exceed the cooperation
payoff beta^(N-1) * H / N when alpha is small.  ``bertrand_undercut_condition``
exposes that guard separately; the conjunction of the two is exactly the
brute-force verdict, while the bare predicate is the one whose feasible
region is monotone in N and L/H.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .exact import Numeric, to_unit
from .games import KINDS, bertrand_params, pd_params, pgg_params, td_params

_NEAR_ONE = 1 - 1e-9


class CooperationVerdict(NamedTuple):
    """Outcome of a closed-form cooperation test.

    ``rational`` holds iff ``binding_quantity >= threshold``; the two numbers
    are the sides of the game's (denominator-cleared) inequality, taken from
    the tightest condition when a game has more than one.
    """

    rational: bool
    binding_quantity: Fraction
    threshold: Fraction


def f_gamma_sum(gamma: Numeric, n: int):
    """f(gamma, N) by its defining binomial sum."""
    _check_players(n)
    if isinstance(gamma, float):
        _check_unit_float(gamma, "gamma")
        return sum(comb(n - 1, k) * (1 - gamma) ** k * gamma ** (n - 1 - k) / (k + 1)
                   for k in range(n))
    g = to_unit(gamma, "gamma")
    return sum((comb(n - 1, k) * (1 - g) ** k * g ** (n - 1 - k) * Fraction(1, k + 1)
                for k in range(n)), Fraction(0))


def f_gamma(gamma: Numeric, n: int):
    """Expected reciprocal tie count f(gamma, N).

    Uses the closed identity (1 - gamma^N) / (N * (1 - gamma)) away from
    gamma = 1 and the binomial sum next to it; float in, float out, exact in,
    exact out.
    """
    _check_players(n)
    if isinstance(gamma, float):
        _check_unit_float(gamma, "gamma")
        if gamma < _NEAR_ONE:
            return (1 - gamma ** n) / (n * (1 - gamma))
        return f_gamma_sum(gamma, n)
    g = to_unit(gamma, "gamma")
    if g == 1:
        return f_gamma_sum(g, n)
    return (1 - g ** n) / (n * (1 - g))


def cooperation_condition(kind: str, params: dict, alpha: Numeric,
                          beta: Numeric) -> CooperationVerdict:
    """Evaluate the game's closed-form cooperation condition at (alpha, beta).

    Parameter domains are the game factories' (``games.*_params``), except
    that the public-goods marginal return may equal 1 here (cooperation is
    then rational for every type, the limit case of the condition).
    """
    a = to_unit(alpha, "alpha")
    b_ = to_unit(beta, "beta")
    binding, *rest = condition_terms(kind, checked_params(kind, params),
                                     a.numerator, a.denominator,
                                     b_.numerator, b_.denominator)
    ln, ld, rn, rd = binding
    rational = ln * rd >= rn * ld
    for cond in rest:  # td's undercut-by-one condition
        xn, xd, xrn, xrd = cond
        rational = rational and xn * xrd >= xrn * xd
        if _margin_below(cond, binding):
            ln, ld, rn, rd = binding = cond
    return CooperationVerdict(rational, Fraction(ln, ld), Fraction(rn, rd))


def checked_params(kind: str, params: dict) -> tuple:
    """The game's parameters through its ``games.*_params`` check (the
    public-goods one admitting rho = 1), as ``condition_terms`` reads them."""
    if kind == "pd":
        return pd_params(params["b"], params["c"])
    if kind == "td":
        return td_params(params["l"], params["h"], params["bonus"])
    if kind == "pgg":
        return pgg_params(params["n"], params["rho"], params.get("grid", 100),
                          allow_rho_one=True)
    if kind == "bertrand":
        return bertrand_params(params["n"], params["l"], params["h"])
    raise ValueError(f"unknown dilemma kind {kind!r}, expected one of {KINDS}")


def condition_terms(kind: str, checked: tuple, an: int, ad: int, bn: int,
                    bd: int) -> list:
    """The integer core: each of the game's conditions lhs >= rhs at
    alpha = an/ad and beta = bn/bd (denominators positive), held as
    (lhs_num, lhs_den, rhs_num, rhs_den); ``checked`` comes from
    ``checked_params``, so nothing is checked here."""
    if kind == "pd":
        b, c = checked
        return [(an * bn * b.numerator, ad * bd * b.denominator,
                 c.numerator, c.denominator)]
    if kind == "td":
        l, h, bonus = checked
        sn, sd = bonus.numerator, bonus.denominator
        conditions = [((h - l) * bn, bd, sn * (ad * bd - an * bn), sd * ad * bd)]
        if 2 * an < ad:
            conditions.append((ad + an * (h - l - 1), ad, sn * (ad - 2 * an),
                               sd * ad))
        return conditions
    if kind == "pgg":
        n, rho, _ = checked
        rn, rd = rho.numerator, rho.denominator
        return [(an * bn * rn * (n - 1), ad * bd * rd, rd - rn, rd)]
    n, l, h = checked  # bertrand
    # tie term f(gamma, N) * L * N / H with gamma = gn/gd: the N cancels,
    # and f = 1 at gamma = 1
    gn, gd = (ad - an) * bn, ad * bd
    if gn == gd:
        tie = (l * n, h)
    else:
        tie = (l * (gd ** n - gn ** n), h * gd ** (n - 1) * (gd - gn))
    return [(bn ** (n - 1), bd ** (n - 1), *tie)]


def _margin_below(x: tuple, y: tuple) -> bool:
    """Whether condition x has a strictly smaller lhs - rhs than y (all
    denominators are positive)."""
    xn, xd, xrn, xrd = x
    yn, yd, yrn, yrd = y
    return ((xn * xrd - xrn * xd) * (yd * yrd)
            < (yn * yrd - yrn * yd) * (xd * xrd))


def bertrand_lower_bound_check(beta: Numeric, l: int, h: int, n: int) -> bool:
    """True iff beta^(N-1) < L/H, which makes cooperation irrational for
    every alpha (f >= 1/N bounds the tie term from below)."""
    n, l, h = bertrand_params(n, l, h)
    b_ = to_unit(beta, "beta")
    return b_.numerator ** (n - 1) * h < l * b_.denominator ** (n - 1)


def bertrand_undercut_condition(params: dict, alpha: Numeric, beta: Numeric) -> bool:
    """True iff cooperating survives the undercut to H-1:
    beta^(N-1) * H / N >= gamma^(N-1) * (H-1).

    With gamma = (1 - alpha) * beta both sides carry beta^(N-1); dividing it
    out leaves H * ad^(N-1) >= N * (H-1) * (ad - an)^(N-1) for alpha = an/ad.
    At beta = 0 both sides are 0 and the guard holds.
    """
    n, l, h = bertrand_params(params["n"], params["l"], params["h"])
    a = to_unit(alpha, "alpha")
    if to_unit(beta, "beta").numerator == 0:
        return True
    an, ad = a.numerator, a.denominator
    return h * ad ** (n - 1) >= n * (h - 1) * (ad - an) ** (n - 1)


# ---------------------------------------------------------------------------
# argument checks of the tie kernel


def _check_players(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer player count >= 2, got {n!r}")


def _check_unit_float(x: float, name: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
