"""Exact piecewise-linear transition functions for ramification filtrations.

A `PLFunc` is a continuous, strictly increasing, piecewise-linear function
on [0, oo) with f(0) = 0, finitely many breakpoints, and exact rational
slopes.  The final slope extends indefinitely.  Instances are normalized
(no zero-length segments, adjacent slopes distinct), so `==` is structural
equality of the mathematical function.

`psi_step(i, p)` is the lower-numbering transition function of a single
totally ramified degree-p cyclic step with break i: the identity up to i,
then slope p (the continuous branch px - (p-1)i beyond the break).
Composition and inversion are closed and exact, which is what makes the
tower calculus below purely rational.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InputError
from .ratio import format_rat, parse_rat, reject_unknown, require_posint, require_prime
from .record import Record


def _to_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"expected an exact rational, got {x!r}")


_abscissa = itemgetter(0)


class PLFunc(Record):
    """Piecewise-linear function given by breakpoints [(x, y), ...] and slopes.

    ``slopes`` has one more entry than ``breakpoints``: slopes[0] applies on
    [0, x_1] and slopes[-1] beyond the last breakpoint.  Invariants (checked
    at construction): x strictly increasing and positive, all slopes positive,
    y-values consistent with the slopes and f(0) = 0, adjacent slopes distinct.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple((_to_rat(x), _to_rat(y)) for x, y in self.breakpoints)
        slopes = tuple(_to_rat(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", slopes)
        if len(slopes) != len(bps) + 1:
            raise InputError("need exactly one slope per segment")
        if any(s <= 0 for s in slopes):
            raise InputError("slopes must be positive")
        prev_x, prev_y = Fraction(0), Fraction(0)
        for k, (x, y) in enumerate(bps):
            if x <= prev_x:
                raise InputError("breakpoint abscissas must be positive and strictly increasing")
            if y != prev_y + slopes[k] * (x - prev_x):
                raise InputError("breakpoint ordinates inconsistent with slopes")
            prev_x, prev_y = x, y
        for a, b in zip(slopes, slopes[1:]):
            if a == b:
                raise InputError("collinear segments must be merged (not normalized)")

    # -- evaluation ----------------------------------------------------

    def eval(self, x) -> Fraction:
        """Exact value at rational x >= 0."""
        x = parse_rat(x) if isinstance(x, str) else _to_rat(x)
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
            bps = [(parse_rat(x), parse_rat(y)) for x, y in raw_bps]
            slopes = [parse_rat(s) for s in raw_slopes]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad piecewise-linear function: {exc}") from exc
        return cls(tuple(bps), tuple(slopes))


def _from_points(points: Sequence[tuple[Fraction, Fraction]], final_slope: Fraction) -> PLFunc:
    """Build a normalized PLFunc through (0,0) and the given increasing points."""
    xs, ys = [Fraction(0)], [Fraction(0)]
    for x, y in points:
        if x <= xs[-1]:
            raise InputError("points must have strictly increasing x")
        if y <= ys[-1]:
            raise InputError("points must have strictly increasing y")
        xs.append(x)
        ys.append(y)
    slopes = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)]
    slopes.append(Fraction(final_slope))
    # merge collinear segments: drop interior points where the slope does not change
    bps, kept_slopes = [], [slopes[0]]
    for k in range(1, len(xs)):
        seg_after = slopes[k]
        if seg_after == kept_slopes[-1]:
            continue
        bps.append((xs[k], ys[k]))
        kept_slopes.append(seg_after)
    return PLFunc(tuple(bps), tuple(kept_slopes))


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
    return PLFunc(tuple(zip(uppers, breaks)), tuple(p**k for k in range(len(breaks) + 1)))


def tower_upper_breaks(relative_breaks: Iterable[int], p) -> tuple[Fraction, ...]:
    """Upper breaks of the tower, one per step, in order.

    u_1 = t_1 and u_n = u_(n-1) + (t_n - t_(n-1))/p^(n-1), the inverse of
    the tower so far evaluated at t_n (Serre, *Local Fields*, ch. IV §3).
    The recurrence runs on one integer numerator over p^(n-1); no transition
    function is built unless a break fails to increase, whose error quotes
    the upper break the inverse gives it.
    """
    p = require_prime(p)
    breaks: list[int] = []
    uppers: list[Fraction] = []
    num, scale = 0, 1
    for t in relative_breaks:
        require_posint("relative break", t)
        if breaks:
            if t <= breaks[-1]:
                raise InputError(
                    f"non-increasing filtration: upper break "
                    f"{invert(tower_psi(breaks, p)).eval(t)} does not exceed {uppers[-1]}"
                )
            num, scale = num * p + (t - breaks[-1]), scale * p
        else:
            num = t
        breaks.append(t)
        uppers.append(Fraction(num, scale))
    return tuple(uppers)
