"""Unit tests for the rational serialization helpers and input checks."""

import re
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramify import CapExceededError, InputError, format_rat, is_prime, parse_rat
from ramify import ratio
from ramify.ratio import reject_unknown, require_posint, require_prime


def test_format_fixtures():
    assert format_rat(F(3)) == "3"
    assert format_rat(F(-7, 2)) == "-7/2"
    assert format_rat(F(6, 4)) == "3/2"
    assert format_rat(0) == "0"


@pytest.mark.parametrize("n", [0, 1, -1, -12, 10**40, -(10**40), True, False])
def test_format_int_matches_fraction(n):
    if isinstance(n, bool):  # Fraction(True) is 1, but a bool is not a rational to format_rat
        assert format_rat(F(n)) == str(int(n))
        with pytest.raises(InputError, match=f"^not a rational: {n!r}$"):
            format_rat(n)
    else:
        assert format_rat(n) == format_rat(F(n))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
                    reason="no digit limit on int-to-str conversion")
def test_format_int_past_the_digit_limit_is_cap_exceeded():
    with pytest.raises(CapExceededError, match="^output: an integer has more than"):
        format_rat(10 ** sys.get_int_max_str_digits())  # one digit past the limit


def test_parse_fixtures():
    assert parse_rat("11/4") == F(11, 4)
    assert parse_rat("5") == F(5)
    assert parse_rat(" -3/2 ") == F(-3, 2)
    assert parse_rat("+2/4") == F(1, 2)
    assert parse_rat("-0/7") == F(0)
    assert parse_rat("07/010") == F(7, 10)
    assert parse_rat("\u0661\u0662") == F(12)  # Unicode decimal digits, as int() reads them
    assert parse_rat(7) == F(7)
    assert parse_rat(F(1, 3)) == F(1, 3)


def test_parse_rejects_garbage():
    # signed, zero and empty denominators, as Fraction(str) rejected them, and non-decimal
    # digits; format_rat prints only ints and Fractions, so it rejects them all, and floats
    for bad in ("x", "1/0", "1.5.2", None, True, False, [1], "3 / 4 / 5", 0.1, 0.5, 2.0,
                "1/-2", "+1/+2", "-1/+2", " -3/0 ", "0/00", "0/0", "1/", "\u00b2"):
        for convert in (parse_rat, format_rat):
            with pytest.raises(InputError) as exc:
                convert(bad)
            assert str(exc.value) == f"not a rational: {bad!r}"


def test_decimal_strings_rejected():
    # only "num" and "num/den" are part of the wire format
    with pytest.raises(InputError):
        parse_rat("1.5")


def test_primality():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(-5)
    assert require_prime(13) == 13
    with pytest.raises(InputError):
        require_prime(9)
    with pytest.raises(InputError):
        require_prime(True)


def _trial_division(n: int) -> bool:
    """The primality test require_prime ran before the strong-probable-prime test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_primality_agrees_with_trial_division():
    assert list(filter(is_prime, range(10**5))) == list(filter(_trial_division, range(10**5)))


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_composite(n):
    # strong pseudoprimes to the bases 2 to 7, and to the bases 2 to 23
    assert not is_prime(n)
    with pytest.raises(InputError, match=f"^p must be a prime integer, got {n}$"):
        require_prime(n)


def test_large_prime_is_answered_fast():
    p = 10**16 + 61
    start = time.perf_counter()
    assert require_prime(p) == p
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("n", [318665857834031151167461, 10**24 + 7])
def test_probable_prime_past_the_bound_is_rejected(n):
    # psi_12 = 399165290221 * 798330580441 passes all twelve bases, and so does 10^24 + 7
    with pytest.raises(InputError, match="decides primality only below 318665857834031151167461$"):
        require_prime(n)
    with pytest.raises(InputError, match="^p must be a prime integer, got "):
        require_prime(n + 1)  # even: a composite past the bound keeps the composite text


def test_require_posint():
    require_posint("k", 3)
    for bad in (0, -2, True, 2.0, "3", None):
        with pytest.raises(InputError, match=r"^k must be a positive integer, got "):
            require_posint("k", bad)
    with pytest.raises(InputError) as exc:
        require_posint("relative break", 0)
    assert str(exc.value) == "relative break must be a positive integer, got 0"


def test_reject_unknown():
    reject_unknown({"a": 1, "b": 2}, ("a", "b", "c"), "thing")
    with pytest.raises(InputError) as exc:
        reject_unknown({"a": 1, "z": 0, "y": 0}, ("a",), "thing")
    assert str(exc.value) == "unknown thing fields: ['y', 'z']"


@given(st.fractions())
def test_round_trip(x):
    assert parse_rat(format_rat(x)) == x


# -- the plain ASCII path against the regex parse --------------------------------


def _regex_parse_rat(text):
    """Reference: every string through the regex, as before the plain ASCII path."""
    if isinstance(text, bool):
        raise InputError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return F(text)
    if isinstance(text, F):
        return text
    if not isinstance(text, str):
        raise InputError(f"not a rational: {text!r}")
    match = re.fullmatch(r"([+-]?\d+)(?:/(\d+))?", text.strip())
    if not match:
        raise InputError(f"not a rational: {text!r}")
    try:
        return F(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))
    return (type(value), value)


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_FIXTURES = [" 3", "+3", "07/010", "0/0", "3/-4", "\u0661\u0662", "\u00b2", "1/", "/2", "", "3/4 ",
             "1" * (_LIMIT + 1), "1/" + "1" * (_LIMIT + 1), "1" * _LIMIT + "/7", "0" * (_LIMIT + 1)]


class _Str(str):
    pass


@pytest.mark.parametrize("text", [*_FIXTURES, _Str("3/4"), 3, True, F(2, 3), 1.5, None])
def test_plain_path_matches_the_regex_parse(text):
    assert _outcome(parse_rat, text) == _outcome(_regex_parse_rat, text)


class _RegexSpy:
    """Stands in for the wire-format regex: records each text, matches none."""

    def __init__(self):
        self.seen = []

    def fullmatch(self, text):
        self.seen.append(text)


def test_plain_ascii_skips_the_regex(monkeypatch):
    spy = _RegexSpy()
    monkeypatch.setattr(ratio, "_RAT_RE", spy)
    assert parse_rat("07/010") == F(7, 10)
    assert parse_rat("12") == F(12)
    with pytest.raises(InputError, match="not a rational: '0/0'"):
        parse_rat("0/0")
    assert spy.seen == []
    for text in (" 3", "+3", "\u0661\u0662"):  # not plain ASCII digits: read by the regex
        with pytest.raises(InputError):
            parse_rat(text)
    assert spy.seen == ["3", "+3", "\u0661\u0662"]


@example("\u0661\u0662/3")
@example("0/" + "0" * 5)
@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet="0123456789/+- \u0661\u00b2\n", max_size=12))
def test_plain_path_matches_the_regex_parse_on_drawn_text(text):
    assert _outcome(parse_rat, text) == _outcome(_regex_parse_rat, text)
