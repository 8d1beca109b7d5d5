"""Exact-arithmetic helpers.

All comparisons that decide a game-theoretic verdict (best responses,
equilibrium membership, social-dilemma axioms) run on ``fractions.Fraction``.
Floats are converted to their exact binary value on the way in, so a verdict
is never decided by rounding; floats appear again only at the presentation
layer (CSV/JSON output, QRE solving).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Union

Numeric = Union[int, float, Fraction, str]


def to_exact(x: Numeric) -> Fraction:
    """Convert a number to an exact Fraction.

    Ints and Fractions pass through, floats map to their exact binary value,
    and strings are parsed as decimal/rational literals ("0.05", "3/20").
    """
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, bool):
        raise TypeError("expected a number, got bool")
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a number, got {type(x).__name__}")


def to_float(x: Numeric) -> float:
    return float(to_exact(x))


def is_integral(x: Numeric) -> bool:
    return to_exact(x).denominator == 1


def format_number(x: Numeric) -> str:
    """Format for CSV/JSON: integers bare, otherwise 12 significant digits."""
    f = to_exact(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{float(f):.12g}"
