"""Ramification filtrations in lower and upper numbering on finite p-groups.

A filtration assigns every non-identity element a positive break value
(the identity sits above everything); the level set at height t holds the
identity and all elements of value >= t + 1, and must be a normal subgroup.
The filtration is thus a chain of normal subgroups, one per distinct value,
built once: validation, level sets and both numberings read it.  The upper
break of level v is phi(v - 1), phi the integral of the subgroup indices,
and as phi is strictly increasing the upper level set at u is the first
level whose upper break is >= u.  By Herbrand's theorem a quotient's upper
level sets, its chain, are the images of the ambient ones (Serre, *Local
Fields*, ch. IV §1 and §3), spanned by the images of their rows; its lower
numbering follows from their indices.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping

from .errors import InputError
# invert and identity_func stay bound in this module, unused, because the
# benchmark's span recorder (bench/spans.py) wraps both names here
from .herbrand import PLFunc, _from_points, identity_func, invert  # noqa: F401
from .pcgroup import Element, PcGroup, Subgroup, span
from .ratio import parse_rat
from .record import Record


class CosetGroup:
    """Quotient G/N on canonical coset representatives: the least element of
    each coset, the one with zeros at N's leading depths, which ``N.sift``
    clears."""

    def __init__(self, group: PcGroup, kernel: Subgroup):
        if kernel.group is not group:
            raise InputError("kernel must be a subgroup of the given group")
        if not kernel.is_normal():
            raise InputError("kernel must be a normal subgroup")
        self.ambient = group
        self.kernel = kernel
        self.p = group.p

    @property
    def order(self) -> int:
        return self.ambient.order // self.kernel.order

    def elements(self) -> list[Element]:
        """The representatives in increasing order: exponent 0 at the
        kernel's depths, anything at the others."""
        self.ambient.elements()  # the ambient group's cap bounds every quotient
        depths = set(self.kernel.depths)
        return list(itertools.product(
            *[range(1) if d in depths else range(self.p) for d in range(self.ambient.pres.n)]))

    def identity(self) -> Element:
        return self.ambient.identity()

    def project(self, x: Element) -> Element:
        return self.kernel.sift(x)

    def product(self, x: Element, y: Element) -> Element:
        return self.project(self.ambient.product(x, y))

    def inverse(self, x: Element) -> Element:
        return self.project(self.ambient.inverse(x))

    def pc_generators(self) -> list[Element]:
        images = {self.project(a) for a in self.ambient.pc_generators()}
        images.discard(self.identity())
        return sorted(images)


class ValidationReport(Record):
    ok: bool
    level: Fraction | None = None
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class RamFiltration:
    """Break-value assignment with normal-subgroup level sets.

    ``ig`` maps non-identity elements to their value; ``default`` fills any
    element not listed.  Values must be positive integers; a quotient's
    filtration (``quotient_filtration``) may carry rational values, which
    are kept exact.
    """

    def __init__(self, group, ig: Mapping[Element, object], default=None, check: bool = True):
        self.group = group
        identity = group.identity()
        members = set(group.elements())
        values: dict[Element, Fraction] = {}
        for x, v in dict(ig).items():
            x = tuple(x)
            if x == identity:
                raise InputError("the identity carries no finite value")
            if x not in members:
                raise InputError(f"element {x} does not belong to the group")
            values[x] = parse_rat(v)
        fill = None  # ``default``, parsed at the first element it fills
        for x in group.elements():
            if x == identity or x in values:
                continue
            if default is None:
                raise InputError(f"no value for element {x} and no default given")
            values[x] = fill = parse_rat(default) if fill is None else fill
        for x, v in values.items():
            if v <= 0:
                raise InputError(f"value for {x} must be positive, got {v}")
            if v.denominator != 1:
                raise InputError(f"value for {x} must be an integer, got {v}")
        self.ig = values
        if check:
            report = self.validate()
            if not report.ok:
                raise InputError(
                    f"level set at {report.level} is not a normal subgroup; "
                    f"witness {report.witness} ({report.reason})"
                )

    @classmethod
    def _from_chain(cls, group, ig: dict[Element, Fraction], levels: list) -> "RamFiltration":
        """The filtration with values ``ig`` and chain ``levels`` of (v, |S|, S),
        v increasing, valid by construction: nothing is listed, spanned or checked."""
        rf = cls.__new__(cls)
        rf.group, rf.ig, rf.levels = group, ig, levels
        return rf

    # -- level sets -------------------------------------------------------

    @functools.cached_property
    def levels(self) -> list[tuple[Fraction, int, Subgroup]]:
        """(v, |S|, span(S)) for each distinct value v, increasing, where S
        holds the identity and the elements of value >= v.  Each span extends
        the span of the level above by the elements of value exactly v."""
        exact: dict[Fraction, list[Element]] = {}
        for x, v in self.ig.items():
            exact.setdefault(v, []).append(x)
        chain, size, sub = [], 1, None
        for v in sorted(exact, reverse=True):
            size += len(exact[v])
            sub = span(self.group, exact[v], base=sub)
            chain.append((v, size, sub))
        return chain[::-1]

    def value_of(self, x: Element):
        """Break value of x; None for the identity (above every level)."""
        x = tuple(x)
        if x == self.group.identity():
            return None
        try:
            return self.ig[x]
        except KeyError:
            raise InputError(f"element {x} does not belong to the group") from None

    def distinct_values(self) -> list[Fraction]:
        return [v for v, _, _ in self.levels]

    def level_set(self, t) -> Subgroup:
        """Elements of value >= t + 1, plus the identity."""
        t = parse_rat(t)
        return next((sub for v, _, sub in self.levels if v >= t + 1), span(self.group, []))

    def lower_breaks(self) -> list[Fraction]:
        """Levels t where the level set properly drops just above t."""
        return [v - 1 for v in self.distinct_values()]

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Each level set is closed iff its span has its member count, and
        then normal iff the span is: from the smallest level up, iff its rows
        beyond the (normal) level above conjugate into it.  Only on a failure
        are the levels checked in full from G down, and the failing level's
        members listed and scanned pairwise for the witness."""
        subs = [None] + [sub for _, _, sub in self.levels[::-1]]  # from the smallest up
        if all(sub.order == size and sub.is_normal(above)
               for (_, size, sub), above in zip(self.levels[::-1], subs)):
            return ValidationReport(True)
        g = self.group
        for v, size, sub in self.levels:
            if sub.order == size and sub.is_normal():
                continue
            members = frozenset({x for x, val in self.ig.items() if val >= v} | {g.identity()})
            if sub.order != size:
                x, y = next((x, y) for x in members for y in members
                            if g.product(x, y) not in members)
                return ValidationReport(False, v - 1, (x, y), "not closed under product")
            a, x = next((a, x) for x in members for a in g.pc_generators()
                        if g.product(g.product(g.inverse(a), x), a) not in members)
            return ValidationReport(False, v - 1, (a, x), "not normal")
        return ValidationReport(True)

    # -- transition functions -----------------------------------------------

    def upper_breaks(self) -> list[Fraction]:
        """phi(v - 1) for each level v, where phi integrates 1/(G_0 : G_t):
        G_t is the level of value v for t in (the lower break below, v - 1]."""
        order, x, y, ys = self.group.order, 0, Fraction(0), []
        for v, size, _ in self.levels:
            y += Fraction(size, order) * (v - 1 - x)
            x = v - 1
            ys.append(y)
        return ys

    def herbrand_func(self) -> PLFunc:
        """Lower-to-upper transition: through (t, phi(t)) at each positive
        lower break t, with slope 1/|G| beyond the last."""
        points = [(t, u) for t, u in zip(self.lower_breaks(), self.upper_breaks()) if t > 0]
        return _from_points(points, Fraction(1, self.group.order))

    def upper_level(self, u) -> Subgroup:
        """Level set in upper numbering, the lower level at psi(u): as phi is
        strictly increasing, v - 1 >= psi(u) iff phi(v - 1) >= u."""
        u = parse_rat(u)
        if u < 0:
            raise InputError(f"upper level must be >= 0, got {u}")
        return next((sub for (_, _, sub), y in zip(self.levels, self.upper_breaks()) if y >= u),
                    span(self.group, []))


def quotient_filtration(rf: RamFiltration, kernel: Subgroup) -> RamFiltration:
    """Filtration on Q = G/N whose upper level sets are the images of G's.

    ``rf`` must be valid (the CLI loads it checked), so each level's image is
    the image below extended by the projected rows beyond the level below.
    The level of value v is G's upper level at its upper break u.  Where the
    image drops below the next one, psi_Q gains slope (Q : image) up to u,
    the image is Q's level of value psi_Q(u) + 1, and the cosets it loses
    take that value.  Q's chain is thus built, valid by construction.
    """
    group = rf.group
    if not isinstance(group, PcGroup):
        raise InputError("quotients are taken of presented groups only")
    quot = CosetGroup(group, kernel)
    images, lower = [span(quot, [])], None
    for _, _, sub in reversed(rf.levels):
        images.append(span(quot, map(quot.project, sub.rows_beyond(lower)), base=images[-1]))
        lower = sub
    images.reverse()
    ig_q: dict[Element, Fraction] = {}
    levels, prev_u, psi_u = [], Fraction(0), Fraction(0)
    for u, image, below in zip(rf.upper_breaks(), images, images[1:]):
        if image.order == below.order:
            continue
        psi_u += Fraction(quot.order, image.order) * (u - prev_u)
        prev_u = u
        v = psi_u + 1
        levels.append((v, image.order, image))
        for c in image.elements - below.elements:
            ig_q[c] = v
    return RamFiltration._from_chain(quot, ig_q, levels)
