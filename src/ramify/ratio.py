"""Exact rational helpers.

All break coordinates in this package are `fractions.Fraction` values:
arbitrary precision, always reduced, positive denominator.  These helpers
pin down the one serialization used everywhere ("num" or "num/den") and a
strict parser for it, along with the strict checks on the other scalars
and objects of the input schema.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def format_rat(value: Fraction) -> str:
    """Serialize a rational as "num" or "num/den" (reduced, den > 0)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rat(text) -> Fraction:
    """Parse "num" or "num/den" (also accepts ints for convenience).

    Decimal and scientific notation are rejected: the wire format is the
    fraction string and nothing else.
    """
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise InputError(f"not a rational: {text!r}")
    match = _RAT_RE.fullmatch(text.strip())
    if not match:  # also a signed denominator, which Fraction(str) rejects
        raise InputError(f"not a rational: {text!r}")
    try:  # int() past its digit limit, or a zero denominator
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def is_int(value) -> bool:
    """A genuine integer: bools (JSON true/false) and floats do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_posint(name: str, value) -> None:
    if not is_int(value) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")


def reject_unknown(data: dict, known, what: str) -> None:
    """Raise if the JSON object ``data`` holds keys outside ``known``."""
    extra = set(data) - set(known)
    if extra:
        raise InputError(f"unknown {what} fields: {sorted(extra)}")


def is_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def require_prime(p) -> int:
    if not is_int(p) or not is_prime(p):
        raise InputError(f"p must be a prime integer, got {p!r}")
    return p
