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


def to_integer(x: Numeric, name: str) -> int:
    """``x`` as an int when its exact value is an integer; any other value
    raises ValueError naming ``name``.  Plain ints pass straight through."""
    if type(x) is int:
        return x
    try:
        v = to_exact(x)
    except (TypeError, ValueError):
        v = None
    if v is None or v.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {x}")
    return v.numerator


def to_unit(x: Numeric, name: str) -> Fraction:
    """``x`` as a Fraction in [0, 1]; any other value raises ValueError
    naming ``name``."""
    v = to_exact(x)
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


def format_number(x: Numeric) -> str:
    """Format for CSV/JSON: integers bare, otherwise 12 significant digits."""
    f = to_exact(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{float(f):.12g}"
