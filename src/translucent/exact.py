"""Exact arithmetic and the input grammar.

Verdicts are decided on ``fractions.Fraction``: floats enter at their exact
binary value and reappear only in output and in the QRE solver.  All JSON
text goes through ``load_json``, which reads a decimal as its exact
``Decimal`` literal (``0.1`` is 1/10) and refuses NaN and +-Infinity by
name.  Each reader below takes a parsed value and its JSON path, a
``str.format`` template formatted with ``args`` only on failure, and raises
``InputError`` naming it.  Labels and annotations keep plain-parse floats.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Union

Numeric = Union[int, float, Fraction, Decimal, str]
# the largest magnitude a float rounds to 0 (2**-1075, a tie, goes to even)
_TINY = Decimal(2) ** -1075


def to_exact(x: Numeric) -> Fraction:
    """Convert a number to an exact Fraction.

    Ints and Fractions pass through, floats map to their exact binary value,
    Decimals to their exact decimal value, and strings are parsed as
    decimal/rational literals ("0.05", "3/20").
    """
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, bool):
        raise TypeError("expected a number, got bool")
    if isinstance(x, (float, str, Decimal, Rational)):
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
    n, d = v.as_integer_ratio()
    if not 0 <= n <= d:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


def common_denominator(values) -> tuple:
    """The exact values of ``values`` (floats included) as integer
    numerators over their least common denominator: ``(numerators, den)``."""
    pairs = [to_exact(q).as_integer_ratio() for q in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def report_value(x: Numeric):
    """How every report prints ``x``: an exact integer as an int, a value
    whose float is 0 or past the float range as its exact ``"n/d"`` string,
    any other as its float rounded to 12 significant digits."""
    f = to_exact(x)
    if f.denominator == 1:
        return f.numerator
    try:
        v = float(f)
    except OverflowError:  # int true division past the float range
        return str(f)
    return float(f"{v:.12g}") if v else str(f)


def format_number(x: Numeric) -> str:
    """The CSV text of ``report_value(x)``."""
    v = report_value(x)
    return f"{v:.12g}" if type(v) is float else str(v)


# ---------------------------------------------------------------------------
# the input grammar


class InputError(ValueError):
    """An input the grammar refuses; the message starts with its file or path."""


def load_json(text: str, source: str = "$"):
    """Parse JSON ``text``, decimals as exact ``Decimal`` literals; a parse
    error, NaN, +-Infinity or a number needing over 4300 digits (Python's
    int literal limit) raises InputError naming ``source`` (a file, or $)."""
    def refuse(name: str):
        raise InputError(f"{source}: the JSON constant {name} is not allowed; "
                         "every number must be finite")

    def decimal(literal: str) -> Decimal:
        d = Decimal(literal)
        _, digits, exponent = d.as_tuple()
        if len(digits) + abs(exponent) > 4300:  # the exact value's digits, at most
            raise InputError(f"{source}: the number {literal} needs more than "
                             "4300 digits")
        return d
    try:
        return json.loads(text, parse_float=decimal, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except InputError:
        raise
    except ValueError as exc:  # int() refuses a literal past Python's limit
        raise InputError(f"{source}: an integer needs more than 4300 digits") from exc


def plain(value):
    """``value`` with every ``Decimal`` in it, in lists and objects too, as
    the float Python's json module reads for the same literal."""
    if type(value) is Decimal:
        return float(value)
    if type(value) is list:
        return [plain(v) for v in value]
    if type(value) is dict:
        return {k: plain(v) for k, v in value.items()}
    return value


def field(obj, key: str, path: str, *args):
    """``obj[key]``, where ``obj`` must be the JSON object at ``path``."""
    if not isinstance(obj, dict):
        raise InputError(f"{path.format(*args)}: expected an object")
    if key not in obj:
        raise InputError(f"{path.format(*args)}.{key}: required key is missing")
    return obj[key]


def _exact(value, what: str, path: str, args: tuple) -> Fraction:
    try:
        return to_exact(value)
    except (ArithmeticError, TypeError, ValueError):
        raise InputError(f"{path.format(*args)}: expected {what}, "
                         f"got {plain(value)!r}") from None


def number(value, path: str, *args) -> Fraction:
    """A number within the float range, since ``qre`` reads its lambda,
    damping and tol as floats: an int, a decimal, or a string such as
    ``"1/3"``.  A nonzero number whose float is 0 is refused too."""
    v = _exact(value, "a number", path, args)
    if abs(v) > sys.float_info.max:
        raise InputError(f"{path.format(*args)}: expected a number of magnitude "
                         f"at most {sys.float_info.max:.12g}")
    if v and not float(v):
        raise InputError(f"{path.format(*args)}: expected 0 or a number of magnitude "
                         f"above {_TINY:.12g}")
    return v


def unit(value, name: str, path: str, *args) -> Fraction:
    """A number in [0, 1], the probability ``name`` (``alpha``, ``beta``)."""
    v = number(value, path, *args)
    if not 0 <= v <= 1:
        raise InputError(f"{path.format(*args)}: {name} must lie in [0, 1], got {v}")
    return v


def integer(value, path: str, *args) -> int:
    """A number whose exact value is an integer: ``3``, ``3.0`` or ``"3"``."""
    v = number(value, path, *args)
    if v.denominator != 1:
        raise InputError(f"{path.format(*args)}: expected an integer")
    return v.numerator


def index(value, size: Optional[int], what: str, path: str, *args) -> int:
    """A JSON integer (no bool, decimal or string) below ``size``, if any."""
    if type(value) is not int:
        raise InputError(f"{path.format(*args)}: expected an integer index, "
                         f"got {plain(value)!r}")
    if size is not None and not 0 <= value < size:
        raise InputError(f"{path.format(*args)}: {what} index {value} is out of "
                         f"range 0..{size - 1}")
    return value


def probability(value, path: str, *args) -> Fraction:
    """A finite number of any magnitude (not a bool), as an exact Fraction."""
    return _exact(value, "a finite number", path, args)
