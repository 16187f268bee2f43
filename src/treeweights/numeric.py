"""Number handling shared by the exact and float arithmetic modes.

Weights are plain Python numbers.  Exact mode uses :class:`fractions.Fraction`
(plain ints are accepted and stay exact); float mode uses built-in floats.
The constants below are Fractions, so ``HALF * x`` keeps a Fraction exact and
degrades to float for float input.  :func:`half` multiplies floats by 0.5
directly (bitwise the same value) rather than through ``Fraction.__mul__``.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)

MODES = ("rational", "float")

# Largest decimal magnitude (``Decimal.adjusted``, the exponent of the
# leading digit) an exact token may carry.  A Fraction of 1e4301 already has
# more digits than Python writes out by default (4300), and expanding a
# larger exponent costs time and memory that grow with it.
EXPONENT_LIMIT = 4300


def is_exact(value) -> bool:
    """True for ints and Fractions, False for floats."""
    return _exact_type(type(value))


def _exact_type(cls) -> bool:
    """:func:`is_exact`'s rule on a value's type, so that a scan over many
    values can apply it once per distinct type."""
    return issubclass(cls, (int, Fraction)) and not issubclass(cls, bool)


def exact_fraction(value) -> Fraction:
    """Convert *value* to a Fraction, reading floats via their shortest repr.

    ``exact_fraction(0.1) == Fraction(1, 10)``, which is what a human who
    typed ``0.1`` meant; use ``Fraction(value)`` directly for the exact
    binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        return parse_number(value, "rational")
    raise TypeError(f"cannot convert {value!r} to a Fraction")


def parse_number(token: str, mode: str):
    """Parse a numeric token as ``p/q``, decimal or scientific notation.

    Returns a Fraction in rational mode and a float in float mode.
    Raises ValueError on malformed tokens, a zero denominator, infinities,
    values beyond the float range in float mode, a rational-mode decimal
    magnitude beyond 10**±:data:`EXPONENT_LIMIT`, or an unknown mode.

    A float-mode decimal token is read by ``float()``: the same correctly
    rounded value as the exact route, without expanding the exponent.
    """
    if mode not in MODES:
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            value = Fraction(int(num), int(den))
        except ValueError as exc:
            raise ValueError(f"bad numeric token {token!r}") from exc
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    elif mode == "float":
        try:
            value = float(token)
        except ValueError as exc:
            raise ValueError(f"bad numeric token {token!r}") from exc
        if math.isnan(value):
            raise ValueError(f"bad numeric token {token!r}")
        if math.isinf(value):
            if token.lstrip("+-").lower() in ("inf", "infinity"):
                raise ValueError(f"non-finite numeric token {token!r}")
            raise ValueError(f"{token!r} is out of the float range")
        if value == 0 and Decimal(token).is_zero():
            return 0.0  # an exact zero has no sign; "-0" reads as 0.0
        return value
    else:
        try:
            dec = Decimal(token)
        except InvalidOperation as exc:
            raise ValueError(f"bad numeric token {token!r}") from exc
        if dec.is_zero():
            return Fraction(0)  # a zero has no magnitude to bound
        if abs(dec.adjusted()) > EXPONENT_LIMIT:
            raise ValueError(
                f"exponent of {token!r} is beyond the limit of {EXPONENT_LIMIT}"
            )
        try:
            value = Fraction(dec)
        except ValueError as exc:
            raise ValueError(f"bad numeric token {token!r}") from exc
        except OverflowError:
            raise ValueError(f"non-finite numeric token {token!r}") from None
    if mode == "rational":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{token!r} is out of the float range") from None


def format_number(value) -> str:
    """Lossless text form: ``p/q`` for Fractions, shortest repr for floats.

    Integers of any length are written out in full, also past Python's
    int-to-string digit limit (see :func:`_int_text`).
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _int_text(value.numerator)
        return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"
    return _int_text(int(value))


def _int_text(x: int) -> str:
    """``str(x)``; past the interpreter's int-to-string digit limit the
    digits come from ``decimal``, which that limit does not cover."""
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


def half(x):
    """``x / 2``: exact for ints and Fractions, ``0.5 * x`` for floats."""
    return 0.5 * x if isinstance(x, float) else HALF * x


def midrange(lo, hi):
    """Midpoint of an observed [lo, hi] spread; minimises worst-case error."""
    return half(lo + hi)
