"""Exact piecewise-linear transition functions for ramification filtrations.

A `PLFunc` is a continuous, strictly increasing, piecewise-linear function
on [0, oo) with f(0) = 0, finitely many breakpoints, and exact rational
slopes.  The final slope extends indefinitely.  Instances are normalized
(no zero-length segments, adjacent slopes distinct), so `==` is structural
equality of the mathematical function.  A function read from JSON is
checked once, by `PLFunc.from_json_dict`; every builder here makes a valid
function by construction and is not checked again.

`psi_step(i, p)` is the lower-numbering transition function of a single
totally ramified degree-p cyclic step with break i: the identity up to i,
then slope p (the continuous branch px - (p-1)i beyond the break).
Composition and inversion are closed and exact, which is what makes the
tower calculus below purely rational.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from fractions import Fraction
from operator import itemgetter

from .errors import InputError, reject_unknown, require_posint, require_prime
from .ratio import format_rat, parse_rat
from .record import Record


_abscissa = itemgetter(0)


class PLFunc(Record):
    """Piecewise-linear function given by breakpoints [(x, y), ...] and slopes.

    ``slopes`` has one more entry than ``breakpoints``: slopes[0] applies on
    [0, x_1] and slopes[-1] beyond the last breakpoint.  Every coordinate is a
    Fraction.  Invariants: x strictly increasing and positive, all slopes
    positive, y-values consistent with the slopes and f(0) = 0, adjacent
    slopes distinct.  ``from_json_dict`` checks them; the builders below
    keep them by construction.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    slopes: tuple[Fraction, ...]

    # -- evaluation ----------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value at rational x >= 0."""
        x = parse_rat(x)
        if x < 0:
            raise InputError(f"argument must be >= 0, got {x}")
        # segment k runs from breakpoint k-1 (or the origin) to breakpoint k
        k = bisect_left(self.breakpoints, x, key=_abscissa)
        prev_x, prev_y = self.breakpoints[k - 1] if k else (0, 0)
        return prev_y + self.slopes[k] * (x - prev_x)

    __call__ = eval

    # -- derived data ---------------------------------------------------

    @property
    def final_slope(self) -> Fraction:
        return self.slopes[-1]

    def break_xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints)

    def break_ys(self) -> tuple[Fraction, ...]:
        return tuple(y for _, y in self.breakpoints)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [[format_rat(x), format_rat(y)] for x, y in self.breakpoints],
            "slopes": [format_rat(s) for s in self.slopes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLFunc":
        if not isinstance(data, dict):
            raise InputError("piecewise-linear function must be a JSON object")
        reject_unknown(data, ("breakpoints", "slopes"), "piecewise-linear function")
        try:
            raw_bps, raw_slopes = data.get("breakpoints", []), data["slopes"]
            if not (isinstance(raw_slopes, list) and isinstance(raw_bps, list)
                    and all(isinstance(bp, list) and len(bp) == 2 for bp in raw_bps)):
                raise TypeError("breakpoints must be a list of [x, y] and slopes a list")
            bps = tuple((parse_rat(x), parse_rat(y)) for x, y in raw_bps)
            slopes = tuple(parse_rat(s) for s in raw_slopes)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad piecewise-linear function: {exc}") from exc
        if len(slopes) != len(bps) + 1:
            raise InputError("need exactly one slope per segment")
        # the checks cross-multiply reduced pairs (denominators positive): no Fraction arithmetic
        slope_pairs = [s.as_integer_ratio() for s in slopes]
        if any(sn <= 0 for sn, _ in slope_pairs):
            raise InputError("slopes must be positive")
        px, pxd, py, pyd = 0, 1, 0, 1  # the previous breakpoint, or the origin
        for (x, y), (sn, sd) in zip(bps, slope_pairs):
            (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
            dx = xn * pxd - px * xd  # (x - x') * xd * x'd
            if dx <= 0:
                raise InputError("breakpoint abscissas must be positive and strictly increasing")
            if (yn * pyd - py * yd) * sd * xd * pxd != sn * dx * yd * pyd:  # y - y' = s(x - x')
                raise InputError("breakpoint ordinates inconsistent with slopes")
            px, pxd, py, pyd = xn, xd, yn, yd
        if any(a == b for a, b in zip(slope_pairs, slope_pairs[1:])):
            raise InputError("collinear segments must be merged (not normalized)")
        return cls(bps, slopes)


def identity_func() -> PLFunc:
    return PLFunc((), (Fraction(1),))


def psi_step(i, p) -> PLFunc:
    """Transition function of one degree-p step with integer break i >= 1.

    Identity up to the break, slope p beyond it; continuous at x = i.
    """
    p = require_prime(p)
    require_posint("break", i)
    return PLFunc(((Fraction(i), Fraction(i)),), (Fraction(1), Fraction(p)))


def compose(outer: PLFunc, inner: PLFunc) -> PLFunc:
    """Exact composition outer(inner(x)).

    Breakpoints of the result are the inner breakpoints together with the
    inner preimages of the outer breakpoints; collinear segments merge.
    One walk over both lists, ordered by the inner function's value, finds
    them in O(N + M).
    """
    if not isinstance(outer, PLFunc) or not isinstance(inner, PLFunc):
        raise InputError("compose expects two piecewise-linear functions")
    ibps, obps = inner.breakpoints, outer.breakpoints
    i = j = 0
    ix = iy = oa = ob = Fraction(0)  # last inner point (x, y), last outer point (a, b)
    bps, slopes = [], [outer.slopes[0] * inner.slopes[0]]
    while i < len(ibps) or j < len(obps):
        if j == len(obps) or (i < len(ibps) and ibps[i][1] <= obps[j][0]):
            ix, iy = ibps[i]
            i += 1
            x, z = ix, ob + outer.slopes[j] * (iy - oa)
            if j < len(obps) and obps[j][0] == iy:
                oa, ob = obps[j]
                j += 1
        else:
            oa, ob = obps[j]
            j += 1
            x, z = ix + (oa - iy) / inner.slopes[i], ob
        slope = outer.slopes[j] * inner.slopes[i]
        if slope != slopes[-1]:
            bps.append((x, z))
            slopes.append(slope)
    return PLFunc(tuple(bps), tuple(slopes))


def invert(func: PLFunc) -> PLFunc:
    """Exact inverse; swaps the roles of the two numbering axes."""
    if not isinstance(func, PLFunc):
        raise InputError("invert expects a piecewise-linear function")
    bps = tuple((y, x) for x, y in func.breakpoints)
    slopes = tuple(1 / s for s in func.slopes)
    return PLFunc(bps, slopes)


def tower_psi(relative_breaks: Iterable[int], p) -> PLFunc:
    """Compose degree-p steps with the given relative lower breaks, bottom first.

    Each new step must create an upper breakpoint strictly above the previous
    one (strictly increasing filtration), otherwise InputError is raised.
    Successive slopes are then 1, p, p^2, ... and the upper breaks of the
    tower are exactly the breakpoint abscissas of the result.

    Transition functions compose, so the result is built directly from its
    breakpoints (u_n, t_n), with u_n from `tower_upper_breaks`.  This equals
    folding ``compose(psi_step(t, p), psi)`` over the steps, in linear time.
    """
    breaks = list(relative_breaks)
    uppers = tower_upper_breaks(breaks, p)
    return PLFunc(tuple(zip(uppers, map(Fraction, breaks))),
                  tuple(Fraction(p**k) for k in range(len(breaks) + 1)))


def tower_upper_breaks(relative_breaks: Iterable[int], p) -> tuple[Fraction, ...]:
    """Upper breaks of the tower, one per step, in order.

    u_1 = t_1 and u_n = u_(n-1) + (t_n - t_(n-1))/p^(n-1), the inverse of
    the tower so far evaluated at t_n (Serre, *Local Fields*, ch. IV §3).
    Checks p and the breaks, then runs `upper_breaks_of`.  No transition
    function is built unless a break fails to increase, whose error quotes
    the upper break the inverse gives it.
    """
    p = require_prime(p)
    breaks = list(relative_breaks)
    for n, t in enumerate(breaks):
        require_posint("relative break", t)
        if n and t <= breaks[n - 1]:
            upper = invert(tower_psi(breaks[:n], p)).eval(t)
            raise InputError(f"non-increasing filtration: upper break {upper} "
                             f"does not exceed {upper_breaks_of(breaks[:n], p)[-1]}")
    return upper_breaks_of(breaks, p)


def upper_breaks_of(breaks: Iterable[int], p: int) -> tuple[Fraction, ...]:
    """`tower_upper_breaks` on a prime p and strictly increasing positive
    breaks, unchecked: the recurrence runs on one integer numerator over
    p^(n-1)."""
    uppers, num, scale, last = [], 0, 1, 0
    for t in breaks:
        num, last = num * p + t - last, t
        uppers.append(Fraction(num, scale))
        scale *= p
    return tuple(uppers)
