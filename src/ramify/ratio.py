"""Exact rational helpers.

All break coordinates in this package are exact: `fractions.Fraction`
values (always reduced, positive denominator), or ints where a break is
integral by construction, such as a plan's lower breaks.  These helpers
pin down the one serialization used everywhere ("num" or "num/den") and a
strict parser for it, along with the strict checks on the other scalars
and objects of the input schema.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import CapExceededError, InputError

_RAT_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def format_rat(value: Fraction) -> str:
    """Serialize a rational as "num" or "num/den" (reduced, den > 0); an int builds no Fraction."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # an integer past the digit limit of int-to-str conversion
        raise digit_limit_error() from None


def digit_limit_error() -> CapExceededError:
    """The error for output holding an integer past CPython's int-to-str digit limit."""
    return CapExceededError(f"output: an integer has more than {sys.get_int_max_str_digits()} "
                            "digits, the limit of int-to-str conversion")


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


# the prime bases of the strong-probable-prime test, and psi_12, the least
# strong pseudoprime to all of them: below it the test decides primality
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Primality, decided for every p below psi_12 (about 3.2e23).

    Raises InputError for a p at or above psi_12 that passes every base,
    where the test decides nothing.
    """
    if not isinstance(p, int) or p < 2:
        return False
    for b in _BASES:  # trial division decides every p < 37**2
        if p % b == 0:
            return p == b
    if p < 37 * 37:
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    for b in _BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # b witnesses that p is composite
    if p >= _PSI_12:
        raise InputError(f"p = {p} is a strong probable prime to the bases 2 to 37, which "
                         f"decides primality only below {_PSI_12}")
    return True


def require_prime(p) -> int:
    if not is_int(p) or not is_prime(p):
        raise InputError(f"p must be a prime integer, got {p!r}")
    return p
