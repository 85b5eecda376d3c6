"""Exception hierarchy shared by all ramify modules, and the input checks
that raise it.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.  The checks on integers and on the
keys of JSON objects live here, with the errors they raise, so that a
command on integers loads no rational arithmetic.
"""

import sys


class RamifyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RamifyError, ValueError):
    """Malformed or out-of-domain input (bad JSON, negative break, non-prime p)."""


class InfeasiblePlanError(RamifyError):
    """A tower plan violates an admissibility or feasibility condition."""


class InconsistentPresentationError(RamifyError):
    """A power-commutator presentation failed the consistency check.

    Carries the witness triple (x, y, z) with (x*y)*z != x*(y*z) when one
    is available.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapExceededError(RamifyError):
    """An enumeration would exceed the configured element cap."""


def digit_limit_error() -> CapExceededError:
    """The error for output holding an integer past CPython's int-to-str digit limit."""
    return CapExceededError(f"output: an integer has more than {sys.get_int_max_str_digits()} "
                            "digits, the limit of int-to-str conversion")


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
