"""Exact arithmetic, the input grammar and the games' parameter domains.

Verdicts are decided on ``fractions.Fraction``: floats enter at their exact
binary value and reappear only in output and in the QRE solver.  All JSON
text goes through ``load_json``, which reads a decimal as its exact
``Decimal`` literal (``0.1`` is 1/10) and refuses NaN and +-Infinity by
name.  A number, literal or string, whose exact value needs more than 4300
digits (Python's limit on int <-> str conversion) is refused before it is
built, by one rule (``_too_long``).  Each reader below takes a parsed value
and its JSON path, and raises ``InputError`` naming that path.  Labels and
annotations keep plain-parse floats.

The four dilemmas' parameter domains (``KINDS``, ``PARAMS`` and one check
per kind) live here too, with ``BudgetExceededError`` and ``_Frozen``, the
input records' base: the closed forms, the CLI and the structures read them
without loading ``games``, which re-exports the domains.
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
# the largest float, an integer
_FLOAT_MAX = int(sys.float_info.max)
# the least integer past Python's 4300-digit limit on int to str conversion
_HUGE = 10 ** 4300


class _TooLong(ValueError):
    """A number whose exact value needs more than 4300 digits."""


def _too_long(literal: str) -> bool:
    """Whether ``literal``, a decimal (``"1.5e3"``) or a rational
    (``"3/20"``), may need more than 4300 digits: in some part, its digits
    plus |exponent|, counted without building the value.  An exponent that
    ``int`` cannot read counts its length: past 4300 characters it is past
    the limit itself, and shorter text is no number (``Fraction`` refuses)."""
    if len(literal) <= 4300 and "e" not in literal and "E" not in literal:
        return False
    for part in literal.split("/"):
        mantissa, _, exponent = part.lower().partition("e")
        try:
            power = abs(int(exponent)) if exponent else 0
        except ValueError:
            power = len(exponent)
        if sum(map(str.isdecimal, mantissa)) + power > 4300:
            return True
    return False


def to_exact(x: Numeric) -> Fraction:
    """Convert a number to an exact Fraction.

    Ints and Fractions pass through, floats map to their exact binary value,
    Decimals to their exact decimal value, and strings are parsed as
    decimal/rational literals ("0.05", "3/20"); a string that needs more
    than 4300 digits raises ValueError before its value is built.
    """
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if type(x) is str and _too_long(x):
        raise _TooLong(f"the number {x} needs more than 4300 digits")
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


def exact_text(f: Fraction) -> str:
    """``str(f)``, also for a numerator or denominator past Python's
    4300-digit limit on int to str conversion, which ``decimal`` does not
    have."""
    try:
        return str(f)
    except ValueError:
        text = str(Decimal(f.numerator))
        return text if f.denominator == 1 else f"{text}/{Decimal(f.denominator)}"


def format_ratio(n: int, d: int) -> str:
    """How every report prints n / d, for integers n and d > 0, without
    building the ``Fraction``: an exact integer as its digits (past 4300
    digits through ``exact_text``), a value whose float is 0 or past the
    float range as its exact ``"n/d"`` string in lowest terms
    (``exact_text``), any other as its float to 12 significant digits.
    ``n / d`` is the correctly rounded float of the reduced fraction too."""
    if not n % d:
        q = n // d
        return str(q) if -_HUGE < q < _HUGE else exact_text(Fraction(q))
    try:
        v = n / d
    except OverflowError:  # int true division past the float range
        return exact_text(Fraction(n, d))
    return "%.12g" % v if v else exact_text(Fraction(n, d))  # %: twice f"{v:.12g}"'s speed


def format_number(x: Numeric) -> str:
    """The CSV text of ``x``: ``format_ratio`` of its exact value."""
    return format_ratio(*to_exact(x).as_integer_ratio())


def report_value(x: Numeric):
    """How every JSON report prints ``x``, by ``format_ratio``'s rule: an
    exact integer as an int (past 4300 digits, as its digit string), an
    exact ``"n/d"`` string as itself, a float's text as that float."""
    n, d = to_exact(x).as_integer_ratio()
    if d == 1 and -_HUGE < n < _HUGE:
        return n
    text = format_ratio(n, d)
    return float(text) if d != 1 and "/" not in text else text


# ---------------------------------------------------------------------------
# the input grammar


class _Frozen:
    """An immutable record: ``__init__`` sets the fields once, through
    ``__dict__``; equality and hash read the fields named in ``_compared``,
    repr those in ``_shown`` (the ``__init__`` parameters, in order), and
    ``_replace``, ``copy`` and ``pickle`` pass them to ``__init__`` for a
    checked copy without cached properties; an attribute cannot be set."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._shown])

    def _replace(self, **changes):  # an unknown field: __init__'s TypeError
        return type(self)(**{**{f: getattr(self, f) for f in self._shown}, **changes})


class InputError(ValueError):
    """An input the grammar refuses; the message starts with its file or path."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str = "profiles"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration requires {required} {what}, exceeding budget {budget}"
        )


def load_json(text: str, source: str = "$"):
    """Parse JSON ``text``, decimals as exact ``Decimal`` literals; a parse
    error, NaN, +-Infinity or a number needing over 4300 digits (Python's
    int literal limit) raises InputError naming ``source`` (a file, or $)."""
    def refuse(name: str):
        raise InputError(f"{source}: the JSON constant {name} is not allowed; "
                         "every number must be finite")

    def decimal(literal: str) -> Decimal:
        if _too_long(literal):
            raise InputError(f"{source}: the number {literal} needs more than "
                             "4300 digits")
        return Decimal(literal)
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


def field(obj, key: str, path: str):
    """``obj[key]``, where ``obj`` must be the JSON object at ``path``."""
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    if key not in obj:
        raise InputError(f"{path}.{key}: required key is missing")
    return obj[key]


def _exact(value, what: str, path: str) -> Fraction:
    try:
        return to_exact(value)
    except _TooLong as exc:
        raise InputError(f"{path}: {exc}") from None
    except (ArithmeticError, TypeError, ValueError):
        raise InputError(f"{path}: expected {what}, got {plain(value)!r}") from None


def number(value, path: str) -> Fraction:
    """A number within the float range, since ``qre`` reads its lambda,
    damping and tol as floats: an int, a decimal, or a string such as
    ``"1/3"``.  A nonzero number whose float is 0 is refused too."""
    v = _exact(value, "a number", path)
    n, d = v.as_integer_ratio()  # compared as integers: no Fraction of a float
    if abs(n) > _FLOAT_MAX * d:
        raise InputError(f"{path}: expected a number of magnitude "
                         f"at most {sys.float_info.max:.12g}")
    if n and not n / d:
        raise InputError(f"{path}: expected 0 or a number of magnitude "
                         f"above {_TINY:.12g}")
    return v


def unit(value, name: str, path: str) -> Fraction:
    """A number in [0, 1], the probability ``name`` (``alpha``, ``beta``)."""
    v = number(value, path)
    if not 0 <= v.numerator <= v.denominator:
        raise InputError(f"{path}: {name} must lie in [0, 1], got {v}")
    return v


def integer(value, path: str) -> int:
    """A number whose exact value is an integer: ``3``, ``3.0`` or ``"3"``."""
    v = number(value, path)
    if v.denominator != 1:
        raise InputError(f"{path}: expected an integer")
    return v.numerator


def index(value, size: Optional[int], what: str, path: str) -> int:
    """A JSON integer (no bool, decimal or string) below ``size``, if any."""
    if type(value) is not int:
        raise InputError(f"{path}: expected an integer index, got {plain(value)!r}")
    if size is not None and not 0 <= value < size:
        raise InputError(f"{path}: {what} index {value} is out of range 0..{size - 1}")
    return value


def probability(value, path: str) -> Fraction:
    """A finite number of any magnitude (not a bool), as an exact Fraction."""
    return _exact(value, "a finite number", path)


# ---------------------------------------------------------------------------
# parameter domains: one check per kind, shared by the factories, the closed
# forms and the equilibrium conditions.  Integer parameters accept any number
# whose exact value is an integer; each check returns the exact values.

# each kind's parameters in report order (pgg's optional grid aside)
PARAMS = {"pd": ("b", "c"), "pgg": ("n", "rho"), "bertrand": ("n", "l", "h"),
          "td": ("l", "h", "bonus")}
KINDS = tuple(PARAMS)


def pd_params(b: Numeric, c: Numeric) -> tuple:
    b, c = to_exact(b), to_exact(c)
    (bn, bd), (cn, cd) = b.as_integer_ratio(), c.as_integer_ratio()
    if not cn > 0:
        raise ValueError(f"cost must be positive, got c={c}")
    if not bn * cd > cn * bd:
        raise ValueError(f"benefit must exceed cost, got b={b} <= c={c}")
    return b, c


def pgg_params(n: int, rho: Numeric, grid: int = 100,
               allow_rho_one: bool = False) -> tuple:
    """``allow_rho_one`` admits rho = 1, where the closed forms hold for
    every type although the welfare profile is no longer unique."""
    n = to_integer(n, "n")
    if n < 2:
        raise ValueError("public goods game needs n >= 2 players")
    rho = to_exact(rho)
    rn, rd = rho.as_integer_ratio()
    if allow_rho_one:
        if not rd < n * rn <= n * rd:
            raise ValueError(f"marginal return must lie in (1/{n}, 1], got {rho}")
    elif not rd < n * rn < n * rd:
        raise ValueError(
            f"marginal return must lie strictly between 1/{n} and 1, got {rho}; "
            "at the endpoints the Nash/welfare profiles are not unique"
        )
    grid = to_integer(grid, "grid")
    if grid < 1:
        raise ValueError("grid must have at least one step")
    return n, rho, grid


def bertrand_params(n: int, l: int, h: int) -> tuple:
    n = to_integer(n, "n")
    if n < 2:
        raise ValueError("bertrand competition needs n >= 2 players")
    l, h = to_integer(l, "l"), to_integer(h, "h")
    if l < 2:
        raise ValueError(
            f"price floor must be at least 2, got {l}: with a floor of 0 or 1 "
            "the pure Nash equilibrium is not unique"
        )
    if not l < h:
        raise ValueError(f"price floor {l} must be below reservation value {h}")
    return n, l, h


def td_params(l: int, h: int, bonus: Numeric) -> tuple:
    """An int bonus stays an int: the closed forms read only its integer
    ratio, and the game factory makes it a Fraction."""
    l, h = to_integer(l, "l"), to_integer(h, "h")
    if not 0 < l < h:
        raise ValueError(f"claim bounds must satisfy 0 < l < h, got l={l}, h={h}")
    if type(bonus) is not int:
        bonus = to_exact(bonus)
    if not bonus.numerator > 0:
        raise ValueError(f"bonus must be positive, got {bonus}")
    return l, h, bonus
