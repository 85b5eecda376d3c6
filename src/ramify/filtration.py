"""Ramification filtrations in lower and upper numbering on finite p-groups.

A filtration assigns every non-identity element a positive break value
(the identity sits above everything); the level set at height t holds the
identity and all elements of value >= t + 1, and must be a normal subgroup.
The filtration is thus a chain of normal subgroups, one per distinct value,
built at load (from JSON by ``RamFiltration.from_json_dict``): validation,
level sets and both numberings read it.  The upper break of level v is
phi(v - 1), phi the integral of the subgroup indices, and as phi is
strictly increasing the upper level set at u is the first level whose
upper break is >= u.  By Herbrand's theorem a quotient's upper level sets
are the images of the ambient ones (Serre, *Local Fields*, ch. IV §1 and
§3) in G/N, a pc group (``pcgroup.CosetGroup``), spanned by the images of
their rows; its lower numbering follows from their indices.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from fractions import Fraction

from .errors import InputError, is_int, reject_unknown
# invert and identity_func stay bound in this module, unused, because the
# benchmark's span recorder (bench/spans.py) wraps both names here
from .herbrand import PLFunc, identity_func, invert  # noqa: F401
from .pcgroup import DEFAULT_CAP, CosetGroup, Element, PcGroup, PcPresentation, Subgroup, span
from .ratio import parse_rat
from .record import Record


def _level(raw, parsed: dict):
    """parse_rat(raw), an int if integral; ``parsed`` keeps each int or str raw's by (type, raw)."""
    key = (type(raw), raw) if type(raw) in (int, str) else None
    if key is None or key not in parsed:  # any other raw is parsed anew, kept under None
        v = parse_rat(raw)
        parsed[key] = v.numerator if v.denominator == 1 else v
    return parsed[key]


class ValidationReport(Record):
    ok: bool
    level: int | Fraction | None = None
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class RamFiltration:
    """Break-value assignment with normal-subgroup level sets.

    ``ig`` maps non-identity elements to their value; ``default`` fills any
    element not listed.  Values must be positive integers, kept as ints; a
    quotient's filtration (``quotient_filtration``) may carry rational
    values, kept as Fractions.  ``levels`` holds (v, |S|, <S>^G) for each
    distinct value v, increasing, S the identity and the elements of value
    >= v.  The constructor counts the unlisted elements and spans each
    level's normal closure from the one above: one of more than |G|/p
    members from the pc generators, others from their members.
    """

    def __init__(self, group, ig: Mapping[Element, object], default=None, check: bool = True):
        self.group = group
        group._require_cap()  # a group past the cap is refused before any entry is read
        identity, self._listed, parsed = group.identity(), {}, {}
        buckets: dict[int | Fraction, list] = {}  # listed elements by value, in input order
        for x, v in dict(ig).items():
            x = tuple(x)
            if x == identity:
                raise InputError("the identity carries no finite value")
            if x not in group:
                raise InputError(f"element {x} does not belong to the group")
            self._listed[x] = v = _level(v, parsed)
            buckets.setdefault(v, []).append(x)
        unlisted, self._fill = group.order - 1 - len(self._listed), None
        if unlisted:
            if default is None:
                x = next(self._unlisted())
                raise InputError(f"no value for element {x} and no default given")
            self._fill = fill = _level(default, parsed)
            buckets.setdefault(fill, [])
        for v, xs in buckets.items():
            must = "positive" if v <= 0 else "an integer" if v.denominator != 1 else None
            if must:
                x = xs[0] if xs else next(self._unlisted())
                raise InputError(f"value for {x} must be {must}, got {v}")
        self.levels, size, sub, pcg = [], 1, None, group.pc_generators()
        for v in sorted(buckets, reverse=True):
            size += len(buckets[v]) + (unlisted if v == self._fill else 0)
            if size * group.p > group.order:  # no proper subgroup holds S: it spans G
                gens = pcg
            else:
                gens = buckets[v] + (list(self._unlisted()) if v == self._fill else [])
            sub = span(group, gens, pcg, base=sub)
            self.levels.insert(0, (v, size, sub))
        if check:
            report = self.validate()
            if not report.ok:
                raise InputError(
                    f"level set at {report.level} is not a normal subgroup; "
                    f"witness {report.witness} ({report.reason})"
                )

    @classmethod
    def from_json_dict(cls, data, cap: int = DEFAULT_CAP, check: bool = True) -> "RamFiltration":
        """The filtration of JSON {"group", "ig", "default"}, its group loaded under ``cap``."""
        if not isinstance(data, dict):
            raise InputError("filtration JSON must be an object")
        if "group" not in data:
            raise InputError('filtration JSON needs a "group" presentation')
        group = PcGroup(PcPresentation.from_json_dict(data["group"]), cap=cap)
        entries = data.get("ig", [])
        if not isinstance(entries, list):
            raise InputError('"ig" must be a list of {"element", "value"} objects')
        ig = {}
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != {"element", "value"}:
                raise InputError('each "ig" entry needs exactly "element" and "value"')
            element = entry["element"]
            if not isinstance(element, list) or not all(map(is_int, element)):
                raise InputError('"element" must be a list of integer exponents')
            key = tuple(element)
            if key in ig:
                raise InputError(f"duplicate ig entry for element {list(key)}")
            ig[key] = entry["value"]
        default = data.get("default")
        reject_unknown(data, ("group", "ig", "default"), "filtration")
        return cls(group, ig, default=default, check=check)

    @classmethod
    def _from_chain(cls, group, ig: dict[Element, Fraction], levels: list) -> "RamFiltration":
        """The filtration with values ``ig`` and chain ``levels`` of (v, |S|, S),
        v increasing, valid by construction: nothing is listed, spanned or checked."""
        rf = cls.__new__(cls)
        rf.group, rf.ig, rf.levels = group, ig, levels
        return rf

    def _unlisted(self):
        """The unlisted elements in ``group.elements()`` order; ``any`` skips the identity."""
        return (x for x in self.group.elements() if any(x) and x not in self._listed)

    @functools.cached_property
    def ig(self) -> dict[Element, Fraction]:
        """Every value: the listed elements in input order, then the rest."""
        return {**self._listed, **dict.fromkeys(self._unlisted(), self._fill)}

    # -- level sets -------------------------------------------------------

    def value_of(self, x: Element):
        """Break value of x; None for the identity (above every level)."""
        x = tuple(x)
        if x not in self.group:
            raise InputError(f"element {x} does not belong to the group")
        return None if x == self.group.identity() else self.ig[x]

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
        """A level set is a normal subgroup iff its normal closure has its
        member count.  The largest failing level is reported, its members
        listed and scanned for the witness: it is not closed if it has more
        than |G|/p members (it is not G) or its plain span has another order."""
        failed = next(((v, size) for v, size, sub in self.levels if sub.order != size), None)
        if failed is None:
            return ValidationReport(True)
        v, size = failed
        g = self.group
        members = frozenset({x for x, val in self.ig.items() if val >= v} | {g.identity()})
        if size * g.p > g.order or span(g, members).order != size:
            x, y = next((x, y) for x in members for y in members
                        if g.product(x, y) not in members)
            return ValidationReport(False, v - 1, (x, y), "not closed under product")
        a, x = next((a, x) for x in members for a in g.pc_generators()
                    if g.conjugate(x, a) not in members)
        return ValidationReport(False, v - 1, (a, x), "not normal")

    # -- transition functions -----------------------------------------------

    def upper_breaks(self) -> list[Fraction]:
        """phi(v - 1) for each level v, where phi integrates 1/(G_0 : G_t):
        G_t is the level of value v for t in (the lower break below, v - 1]."""
        order, x, num, ys = self.group.order, 0, 0, []
        for v, size, _ in self.levels:  # num = |G| phi(x), an int on integral levels
            num += size * (v - 1 - x)
            x = v - 1
            ys.append(Fraction(num, order))
        return ys

    def herbrand_func(self) -> PLFunc:
        """Lower-to-upper transition phi: through (v - 1, phi(v - 1)) for each
        level v > 1, with slope |S_v|/|G| on the segment ending there and 1/|G|
        beyond the last.  The chain strictly descends, so adjacent slopes differ."""
        order, bps, slopes = self.group.order, [], []
        for (v, size, _), u in zip(self.levels, self.upper_breaks()):
            if v > 1:
                bps.append((Fraction(v - 1), u))
                slopes.append(Fraction(size, order))
        slopes.append(Fraction(1, order))
        return PLFunc(tuple(bps), tuple(slopes))

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
