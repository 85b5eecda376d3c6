"""Exact rational helpers.

All break coordinates in this package are exact: `fractions.Fraction`
values (always reduced, positive denominator), or ints where a break is
integral by construction, such as a plan's lower breaks.  These helpers
pin down the one serialization used everywhere ("num" or "num/den") and a
strict parser for it.  The strict checks on the other scalars and objects
of the input schema live in `errors`, and are re-exported here.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (InputError, digit_limit_error, is_int, is_prime,  # noqa: F401
                     reject_unknown, require_posint, require_prime)

_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def format_rat(value: Fraction) -> str:
    """Serialize an int or a Fraction as "num" or "num/den" (reduced, den > 0); a float,
    a bool or any other value is not a rational."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"not a rational: {value!r}")
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # an integer past the digit limit of int-to-str conversion
        raise digit_limit_error() from None


def parse_rat(text) -> Fraction:
    """Parse "num" or "num/den" (also accepts ints for convenience).

    Decimal and scientific notation are rejected: the wire format is the
    fraction string and nothing else.  Plain ASCII digits, with at most one
    slash, skip the regex; the regex reads the rest (signs, spaces, Unicode
    digits), and both reject alike.
    """
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if not (type(text) is str and text.isascii() and num.isdigit()
                and (den.isdigit() or not slash)):  # plain ASCII digits skip the regex
            match = _RAT_RE.fullmatch(text.strip())
            if not match:  # also a signed denominator, which Fraction(str) rejects
                raise InputError(f"not a rational: {text!r}")
            num, den = match[1], match[2]
        try:  # int() past its digit limit, or a zero denominator
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {text!r}") from exc
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    raise InputError(f"not a rational: {text!r}")
