"""Break-sequence planning for towers of degree-p steps.

A plan schedules one cyclic degree-p step per level and tracks the upper
break of the growing tower exactly.  Two families are built in:

* kind ``apf``: the two top steps are free parameters ``(i1, i)``; every
  deeper step at nesting depth m uses the largest admissible break at that
  depth minus a scheduled defect eps.  With depth-scaled levels the upper
  breaks grow like (n-1)*e0 and the plan certifies unboundedness; with the
  flat variant (constant level) they contract toward a finite limit.
* kind ``nonapf``/``custom``: an explicit strictly increasing schedule of
  relative lower breaks, pushed through the tower transition function.
  Geometrically decaying upper-break increments certify a finite bound;
  a doubling schedule (t_{n+1} = p*t_n + c) certifies constant increments.

Verdicts are only ever issued together with a certificate; finite data
without structure yields "undetermined".  Plans and merges run on integers:
lower breaks, indices, steps and ratio comparisons are ints, and a Fraction
is built only for a value that is printed (an upper break, ratio or bound).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import InfeasiblePlanError, InputError, is_int, require_posint, require_prime
# psi_step and tower_psi stay bound in this module, unused, because the benchmark's
# span recorder (bench/spans.py) wraps planner.psi_step and planner.tower_psi
from .herbrand import psi_step, tower_psi, upper_breaks_of  # noqa: F401
from .ratio import format_rat, parse_rat
from .record import Record


VERDICT_APF = "APF"
VERDICT_NON_APF = "non-APF"
VERDICT_UNDETERMINED = "undetermined"

_KINDS = ("apf", "nonapf", "custom")
_SCALINGS = ("scaled", "flat")


# ---------------------------------------------------------------------------
# admissibility and feasibility
# ---------------------------------------------------------------------------

def cyclic_break_admissible(j: int, p: int, e: int, strict: bool = True) -> bool:
    """Can j be the break of a totally ramified cyclic degree-p step over a
    base of absolute ramification index e?

    Always requires j <= p*e/(p-1).  In strict mode (default) j must also be
    prime to p unless it sits exactly at the bound.
    """
    require_prime(p)
    require_posint("break", j)
    require_posint("ramification index", e)
    return _admissible(j, p, e, strict)


def _admissible(j: int, p: int, e: int, strict: bool) -> bool:
    """The rule of `cyclic_break_admissible` on checked integers: j against
    p*e/(p-1) compared as j*(p-1) against p*e, and p | j only at the bound."""
    scaled, bound = j * (p - 1), p * e
    return scaled == bound or scaled < bound and not (strict and j % p == 0)


class FeasibilityResult(Record):
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def break_triple_feasible(i: int, j: int, s: int, p: int, e: int) -> FeasibilityResult:
    """Compatibility of a break triple (i, j, s) over a degree-p step.

    i is the break of the first step, j the upper and s the lower coordinate
    of the second break measured through that step.  Requires p coprime to
    j and s, j within the cyclic bound, the image of s under the step's
    upper-numbering map at most j, and (when i != j) s to be exactly the
    step transition function evaluated at j.
    """
    require_prime(p)
    for name, val in (("i", i), ("j", j), ("s", s), ("e", e)):
        require_posint(name, val)
    if j % p == 0:
        return FeasibilityResult(False, f"p = {p} divides j = {j}")
    if s % p == 0:
        return FeasibilityResult(False, f"p = {p} divides s = {s}")
    if not _admissible(j, p, e, False):
        bound = format_rat(Fraction(p * e, p - 1))
        return FeasibilityResult(False, f"j = {j} exceeds the cyclic bound {bound}")
    if s <= i:
        if s > j:
            return FeasibilityResult(False, f"s = {s} <= i but s > j = {j}")
    elif i * (p - 1) + s > p * j:  # the upper image i + (s - i)/p exceeds j
        img = format_rat(i + Fraction(s - i, p))
        return FeasibilityResult(False, f"upper image i + (s - i)/p = {img} exceeds j = {j}")
    if i != j and s != (want := j if j <= i else i + p * (j - i)):
        return FeasibilityResult(
            False,
            f"with i != j, s must equal the step transition at j: expected {format_rat(want)}, got {s}",
        )
    return FeasibilityResult(True, "feasible")


# ---------------------------------------------------------------------------
# plan and sequence containers
# ---------------------------------------------------------------------------

class TowerPlan(Record):
    """A finite, explicit construction schedule.

    apf kind: base pair (i1, i) sits at nesting depths (depth-1, depth);
    eps lists the defects for the deeper steps, extended by repeating the
    last entry.  nonapf/custom kinds: ``schedule`` lists relative lower
    breaks, level n living over ramification index p^(n-1)*e0.
    """

    kind: str
    p: int
    e0: int
    depth: int = 0
    eps: tuple = ()
    base_i1: int = 0
    base_i: int = 0
    schedule: tuple = ()
    scaling: str = "scaled"
    strict: bool = True
    eps_bound: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown plan kind {self.kind!r}")
        require_prime(self.p)
        require_posint("e0", self.e0)
        if self.scaling not in _SCALINGS:
            raise InputError(f"unknown scaling {self.scaling!r}")
        if not isinstance(self.strict, bool):
            raise InputError("strict must be a boolean")
        if self.kind == "apf":
            require_posint("depth", self.depth)
            require_posint("i1", self.base_i1)
            require_posint("i", self.base_i)
            for ep in self.eps:
                require_posint("eps entry", ep)
            if self.depth > 1 and not self.eps:
                raise InputError("apf plans of depth > 1 need at least one eps entry")
            if self.eps_bound is not None:
                require_posint("eps_bound", self.eps_bound)
                if self.eps and max(self.eps) > self.eps_bound:
                    raise InputError(
                        f"eps entries exceed the declared bound {self.eps_bound}"
                    )
        else:
            if not self.schedule:
                raise InputError(f"{self.kind} plans need a nonempty schedule")
            for t in self.schedule:
                require_posint("schedule entry", t)
            for a, b in itertools.pairwise(self.schedule):
                if b <= a:
                    raise InputError(
                        f"schedule must be strictly increasing, got {a} then {b}"
                    )

    # -- eps access ---------------------------------------------------------

    def eps_at(self, k: int) -> int:
        """Defect for the step feeding u_{2k+1}, k >= 2; last entry repeats."""
        if k < 2:
            raise InputError(f"eps is indexed from the u_5 step (k >= 2), got k = {k}")
        idx = min(k - 2, len(self.eps) - 1)
        return self.eps[idx]

    def step_break(self, k: int) -> int:
        """The scheduled break i_1(2k+1) for k >= 2 under this plan's scaling."""
        p, e0 = self.p, self.e0
        level = (k - 2) * e0 if self.scaling == "scaled" else 0
        num = (level - self.eps_at(k)) * (p - 1) + p * e0  # the break times p - 1
        out, rem = divmod(num, p - 1)
        if rem:
            raise InfeasiblePlanError(f"step break at level {2 * k + 1} is not an "
                                      f"integer: {format_rat(Fraction(num, p - 1))}")
        if out < 1:
            raise InfeasiblePlanError(
                f"step break at level {2 * k + 1} is not positive: {out}"
            )
        return out

    def step_index(self, k: int) -> int:
        """Ramification index at the nesting depth of the step for u_{2k+1}."""
        if self.scaling == "scaled":
            return self.p ** (k - 2) * self.e0
        return self.e0

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "p": self.p, "e0": self.e0}
        if self.kind == "apf":
            out["depth"] = self.depth
            out["eps"] = list(self.eps)
            out["base"] = {"i1": self.base_i1, "i": self.base_i}
            if self.scaling != "scaled":
                out["scaling"] = self.scaling
            if self.eps_bound is not None:
                out["eps_bound"] = self.eps_bound
        else:
            out["schedule"] = list(self.schedule)
        if not self.strict:
            out["strict"] = False
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TowerPlan":
        if not isinstance(data, Mapping):
            raise InputError("plan JSON must be an object")
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in _KINDS:
            raise InputError(f"plan kind must be one of {_KINDS}, got {kind!r}")
        p = data.pop("p", None)
        e0 = data.pop("e0", None)
        strict = data.pop("strict", True)
        kwargs = dict(kind=kind, p=p, e0=e0, strict=strict)
        if kind == "apf":
            base = data.pop("base", None)
            if not isinstance(base, Mapping) or set(base) != {"i1", "i"}:
                raise InputError('apf plans need "base": {"i1": ..., "i": ...}')
            eps = data.pop("eps", [])
            if not isinstance(eps, list):
                raise InputError("eps must be a list")
            kwargs.update(
                depth=data.pop("depth", None),
                eps=tuple(eps),
                base_i1=base["i1"],
                base_i=base["i"],
                scaling=data.pop("scaling", "scaled"),
                eps_bound=data.pop("eps_bound", None),
            )
        else:
            schedule = data.pop("schedule", None)
            if not isinstance(schedule, list):
                raise InputError(f"{kind} plans need a schedule list")
            kwargs.update(schedule=tuple(schedule))
        if data:
            raise InputError(f"unknown plan fields: {sorted(data)}")
        return cls(**kwargs)


class BreakSequence(Record):
    """Computed break data plus a certificate-backed verdict.

    ``levels`` is the reporting index per row; ``lower`` may be empty for
    merged sequences whose lower numbering is not defined.  Upper breaks of
    schedule towers strictly increase; apf recursions may dip before their
    eventual climb, so no monotonicity is imposed here.
    """

    levels: tuple
    lower: tuple
    upper: tuple
    verdict: str = VERDICT_UNDETERMINED
    limit_bound: Fraction | None = None
    certificate: str | None = None
    flags: tuple = ()
    warnings: tuple = ()

    def __post_init__(self):
        if len(self.levels) != len(self.upper):
            raise InputError("levels and upper breaks must have equal length")
        if self.lower and len(self.lower) != len(self.upper):
            raise InputError("lower breaks must be empty or match the horizon")
        if self.flags and len(self.flags) != len(self.upper):
            raise InputError("flags must be empty or match the horizon")
        if self.verdict not in (VERDICT_APF, VERDICT_NON_APF, VERDICT_UNDETERMINED):
            raise InputError(f"unknown verdict {self.verdict!r}")

    @property
    def horizon(self) -> int:
        return len(self.upper)

    def flag_at(self, k: int) -> bool:
        return bool(self.flags[k]) if self.flags else False

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "lower": [format_rat(t) for t in self.lower],
            "upper": [format_rat(u) for u in self.upper],
            "verdict": self.verdict,
            "limit_bound": None if self.limit_bound is None else format_rat(self.limit_bound),
            "certificate": self.certificate,
            "flags": [bool(f) for f in self.flags] if self.flags else [False] * len(self.upper),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BreakSequence":
        if not isinstance(data, Mapping):
            raise InputError("break sequence JSON must be an object")
        data = dict(data)
        if "upper" not in data:
            raise InputError('break sequence JSON needs an "upper" list')
        upper = tuple(parse_rat(u) for u in _pop_list(data, "upper"))
        if "levels" in data:
            levels = tuple(_pop_list(data, "levels", is_int, " of integers"))
        else:
            levels = tuple(range(1, len(upper) + 1))
        lower = tuple(parse_rat(t) for t in _pop_list(data, "lower"))
        verdict_val = data.pop("verdict", VERDICT_UNDETERMINED)
        bound = data.pop("limit_bound", None)
        bound = None if bound is None else parse_rat(bound)
        if bound is not None:
            if verdict_val == VERDICT_APF:
                raise InputError("an APF sequence cannot carry a limit_bound")
            bn, bd = bound.as_integer_ratio()
            for k, u in enumerate(upper):
                un, ud = u.as_integer_ratio()
                if un * bd > bn * ud:  # u > bound, cross-multiplied
                    raise InputError(
                        f"limit_bound {format_rat(bound)} is below upper[{k}] = {format_rat(u)}"
                    )
        certificate = data.pop("certificate", None)
        if certificate is not None and not isinstance(certificate, str):
            raise InputError(f"certificate must be a string or null, got {certificate!r}")
        flags = tuple(_pop_list(data, "flags", lambda f: isinstance(f, bool), " of booleans"))
        warnings = tuple(_pop_list(data, "warnings", lambda w: isinstance(w, str), " of strings"))
        if data:
            raise InputError(f"unknown break sequence fields: {sorted(data)}")
        return cls(levels, lower, upper, verdict_val, bound, certificate, flags, warnings)


def _pop_list(data: dict, key: str, item_ok=None, items: str = "") -> list:
    value = data.pop(key, [])
    if not isinstance(value, list) or (item_ok and not all(map(item_ok, value))):
        raise InputError(f'"{key}" must be a list{items}')
    return value


# ---------------------------------------------------------------------------
# apf plans
# ---------------------------------------------------------------------------

def apf_plan(plan: TowerPlan) -> BreakSequence:
    """Evaluate the recursive upper-break sequence u_3, u_5, ..., u_{2N+1}.

    The base pair (i1, i) is checked at nesting depths (N-1, N): i1 against
    the strict admissibility rule, i against the bound plus the conditions
    i > i1 and p coprime to i - i1.  Each deeper step must be admissible at
    its own depth and may only be applied while the running upper break
    stays at or above the step's break (the transition formula's domain).
    There a step with break b maps the running break u to the inverse of
    its transition function at u, b + (u - b)/p, run as one integer
    numerator over p^k; no function is built.
    """
    if plan.kind != "apf":
        raise InputError(f"apf_plan needs an apf plan, got kind {plan.kind!r}")
    p, e0, n_max = plan.p, plan.e0, plan.depth
    if plan.scaling == "scaled":
        e_i1 = p ** (n_max - 1) * e0
        e_top = p**n_max * e0
    else:
        e_i1 = e0
        e_top = p * e0
    i1, i = plan.base_i1, plan.base_i
    if not _admissible(i1, p, e_i1, plan.strict):
        raise InfeasiblePlanError(
            f"base break i1 = {i1} is inadmissible over index {format_rat(e_i1)}"
        )
    if not _admissible(i, p, e_top, False):
        raise InfeasiblePlanError(
            f"base break i = {i} exceeds the cyclic bound at index {format_rat(e_top)}"
        )
    if i <= i1:
        raise InfeasiblePlanError(f"base requires i > i1, got i = {i}, i1 = {i1}")
    if (i - i1) % p == 0:
        raise InfeasiblePlanError(
            f"p = {p} must not divide i - i1 = {i - i1}"
        )
    num, scale = i1 * (p - 1) + i, p  # the running break is num/scale
    upper = [Fraction(num, scale)]
    lower = [i1]
    levels = [3]
    for k in range(2, n_max + 1):
        brk = plan.step_break(k)
        e_k = plan.step_index(k)
        if not _admissible(brk, p, e_k, plan.strict):
            raise InfeasiblePlanError(f"step break {brk} at level {2 * k + 1} is "
                                      f"inadmissible over index {format_rat(e_k)}")
        if num < brk * scale:
            raise InfeasiblePlanError(
                f"transition precondition fails at level {2 * k + 1}: "
                f"running break {format_rat(upper[-1])} < step break {brk}"
            )
        num, scale = num + brk * (p - 1) * scale, scale * p
        upper.append(Fraction(num, scale))
        lower.append(brk)
        levels.append(2 * k + 1)
    if plan.scaling == "scaled":
        verdict_val = VERDICT_APF
        bound = None
        cert = (
            f"depth-scaled levels with bounded defects: upper-break increments "
            f"approach e0 = {e0} > 0, so the sequence is unbounded"
        )
    else:
        verdict_val = VERDICT_NON_APF
        bound = max(upper[0], max(lower))
        cert = (
            "flat levels: each step contracts the running break toward its own "
            f"break, so the sequence never exceeds {format_rat(bound)}"
        )
    return BreakSequence(
        levels=tuple(levels),
        lower=tuple(lower),
        upper=tuple(upper),
        verdict=verdict_val,
        limit_bound=bound,
        certificate=cert,
        flags=tuple(False for _ in upper),
    )


class ClosedFormReport(Record):
    ok: bool
    fail_level: int | None
    v: tuple
    v_diffs: tuple
    cauchy_ok: bool

    def __bool__(self) -> bool:
        return self.ok


def closed_form_check(seq: BreakSequence, plan: TowerPlan) -> ClosedFormReport:
    """Recompute each u_{2n+1} independently of the recursion and compare.

    Scaled plans use the expanded form
        u_{2n+1} = (n-1)*e0 - (p-1)/p * sum_m eps_{2(n-m)+1}/p^m + u_3/p^(n-1);
    flat plans expand the recursion geometrically.  Also emits
    v_n = (n-1)*e0 - u_{2n+1} and checks the Cauchy property: consecutive
    v-differences shrink in absolute value by a factor of at least p.
    """
    if plan.kind != "apf":
        raise InputError("closed_form_check applies to apf plans")
    p, e0 = plan.p, plan.e0
    n_max = len(seq.upper)
    if n_max < 1:
        raise InputError("empty break sequence")
    u3 = seq.upper[0]
    ok, fail_level = True, None
    for n in range(2, n_max + 1):
        if plan.scaling == "scaled":
            acc = Fraction(0)
            for m in range(0, n - 1):
                acc += Fraction(plan.eps_at(n - m), p**m)
            cf = (n - 1) * e0 - Fraction(p - 1, p) * acc + u3 / Fraction(p ** (n - 1))
        else:
            acc = Fraction(0)
            for m in range(0, n - 1):
                acc += Fraction(plan.step_break(n - m), p**m)
            cf = Fraction(p - 1, p) * acc + u3 / Fraction(p ** (n - 1))
        if cf != seq.upper[n - 1]:
            ok, fail_level = False, n
            break
    v = tuple((n - 1) * e0 - seq.upper[n - 1] for n in range(1, n_max + 1))
    v_diffs = tuple(v[k + 1] - v[k] for k in range(len(v) - 1))
    cauchy_ok = all(
        abs(v_diffs[k + 1]) * p <= abs(v_diffs[k]) for k in range(len(v_diffs) - 1)
    )
    return ClosedFormReport(ok, fail_level, v, v_diffs, cauchy_ok)


# ---------------------------------------------------------------------------
# schedule plans
# ---------------------------------------------------------------------------

def nonapf_plan(plan: TowerPlan) -> BreakSequence:
    """Evaluate an explicit schedule of relative lower breaks.

    Each break t_n must be admissible over index p^(n-1)*e0.  Levels where
    p divides t_n - t_{n-1} are reported as warnings (the construction
    needs the steps to stay non-normal over each other, but the break
    arithmetic is unaffected).  Verdicts: geometrically decaying increments
    certify a finite bound; for custom plans a doubling schedule
    t_{n+1} = p*t_n + c certifies constant increments and an APF verdict.

    The verdict is read off the integer steps d_k = t_(k+1) - t_k alone.  The
    increment u_(k+1) - u_k is d_k/p^k, so the increments are all equal iff
    d_(k+1) = p*d_k throughout, and the ratio of two consecutive ones is
    d_(k+1)/(p*d_k), compared by cross-multiplying.  Upper breaks come
    from `upper_breaks_of`, lower breaks are the schedule's ints, and the
    only other Fractions are the printed ratio, increment and bound.
    """
    if plan.kind not in ("nonapf", "custom"):
        raise InputError(f"nonapf_plan needs a schedule plan, got kind {plan.kind!r}")
    p, schedule = plan.p, plan.schedule
    warnings = []
    flags = [False] * len(schedule)
    e_n = plan.e0  # the index p^(n-1)*e0 of level n
    for n, t in enumerate(schedule, start=1):
        if not _admissible(t, p, e_n, plan.strict):
            raise InfeasiblePlanError(
                f"break {t} at level {n} is inadmissible over index {format_rat(e_n)}"
            )
        if n >= 2 and (t - schedule[n - 2]) % p == 0:
            warnings.append(
                f"level {n}: p = {p} divides the break difference "
                f"{t} - {schedule[n - 2]}; non-normality of the step is not guaranteed"
            )
            flags[n - 1] = True
        e_n *= p
    upper = upper_breaks_of(schedule, p)  # the plan has checked p and the schedule
    steps = [b - a for a, b in itertools.pairwise(schedule)]
    verdict_val, bound, cert = VERDICT_UNDETERMINED, None, None
    # increments all equal iff t_(n+2) - p*t_(n+1) = t_(n+1) - p*t_n throughout,
    # iff the schedule doubles as t_(n+1) = p*t_n + c with c = t_2 - p*t_1
    if plan.kind == "custom" and steps and all(b == p * a for a, b in itertools.pairwise(steps)):
        c = schedule[1] - p * schedule[0]
        if c >= 1:
            verdict_val = VERDICT_APF
            cert = (
                f"doubling schedule t_(n+1) = {p}*t_n + {c}: upper-break "
                f"increments are constant at {format_rat(Fraction(steps[0], p))} > 0"
            )
    if verdict_val == VERDICT_UNDETERMINED and len(steps) >= 2:
        # the largest ratio as y/(p*x), never below 1/p: the ratio of the
        # continuation that repeats the last difference
        x = y = 1
        for a, b in itertools.pairwise(steps):
            if b * x > y * a:
                x, y = a, b
        if y < p * x:
            verdict_val = VERDICT_NON_APF
            r = Fraction(y, p * x)
            # the last increment d/p^len(steps) times r/(1 - r) = y/(p*x - y)
            bound = upper[-1] + Fraction(steps[-1] * y, p ** len(steps) * (p * x - y))
            cert = (
                f"increment ratios stay at or below {format_rat(r)} < 1; geometric "
                f"tail bounds the sequence by {format_rat(bound)}"
            )
    return BreakSequence(
        levels=tuple(range(1, len(schedule) + 1)),
        lower=schedule,
        upper=upper,
        verdict=verdict_val,
        limit_bound=bound,
        certificate=cert,
        flags=tuple(flags),
        warnings=tuple(warnings),
    )


def evaluate_plan(plan: TowerPlan) -> BreakSequence:
    if plan.kind == "apf":
        return apf_plan(plan)
    return nonapf_plan(plan)


# ---------------------------------------------------------------------------
# merges and verdicts
# ---------------------------------------------------------------------------

def compositum_merge(seqs: Sequence[BreakSequence]) -> BreakSequence:
    """Index-wise maximum of equal-horizon sequences.

    A position is flagged when two inputs share the same value there (the
    merged value is then not certified).  The merged verdict is APF when
    some APF input strictly dominates every other input on a final segment,
    non-APF with the largest bound when every input is bounded, otherwise
    undetermined.
    """
    seqs = list(seqs)
    if not seqs:
        raise InputError("compositum_merge needs at least one sequence")
    horizon = seqs[0].horizon
    for s in seqs[1:]:
        if s.horizon != horizon:
            raise InputError(
                f"horizon mismatch: {s.horizon} != {horizon}"
            )
    merged, flags = [], []
    for k, vals in enumerate(zip(*(s.upper for s in seqs))):
        merged.append(max(vals))
        # equal rationals have equal reduced pairs, which hash far cheaper than Fractions
        collide = len({(v.numerator, v.denominator) for v in vals}) < len(vals)
        flags.append(collide or any(s.flag_at(k) for s in seqs))
    first = seqs[0]
    same_levels = all(s.levels == first.levels for s in seqs)
    levels = first.levels if same_levels else tuple(range(1, horizon + 1))
    lower = first.lower if all(s.lower == first.lower for s in seqs) else ()
    warnings = tuple(w for s in seqs for w in s.warnings)
    verdict_val, bound, cert = VERDICT_UNDETERMINED, None, None
    dominating = _dominating_apf_tail(seqs, merged)
    if dominating is not None:
        idx, k0 = dominating
        verdict_val = VERDICT_APF
        cert = (
            f"input {idx + 1} carries an APF certificate and strictly dominates "
            f"the merge from position {k0 + 1} on"
        )
    elif all(s.verdict == VERDICT_NON_APF and s.limit_bound is not None
             and s.certificate is not None for s in seqs):
        verdict_val = VERDICT_NON_APF
        bound = max(s.limit_bound for s in seqs)
        cert = "every input is bounded; the merge is bounded by the largest bound"
    return BreakSequence(
        levels=levels,
        lower=lower,
        upper=tuple(merged),
        verdict=verdict_val,
        limit_bound=bound,
        certificate=cert,
        flags=tuple(flags),
        warnings=warnings,
    )


def _dominating_apf_tail(seqs, merged):
    """(input index, tail start) for an APF input strictly above all others
    from some position to the end, or None.  Only an input alone at the top
    of the last position can be, so the tail is walked back for it alone."""
    tops = [idx for idx, s in enumerate(seqs) if merged and s.upper[-1] == merged[-1]]
    if len(tops) != 1 or verdict(seqs[tops[0]]) != VERDICT_APF:
        return None
    idx, k = tops[0], len(merged) - 1
    others = [s.upper for j, s in enumerate(seqs) if j != idx]
    while k and all(u[k - 1] < merged[k - 1] for u in others):
        k -= 1
    return idx, k


def repair_merge(base: BreakSequence, family_bounds: Sequence) -> BreakSequence:
    """Raise each upper break to at least a caller-supplied family bound.

    An arithmetic family (all steps equal and positive) certifies that the
    merged sequence is unbounded; an all-zero family leaves the base
    untouched.  Any other family, converging or not, is undetermined.
    """
    fam = [parse_rat(b) for b in family_bounds]
    if len(fam) != base.horizon:
        raise InputError(
            f"length mismatch: family has {len(fam)} bounds, base horizon is {base.horizon}"
        )
    for b in fam:
        if b < 0:
            raise InputError(f"family bounds must be nonnegative, got {format_rat(b)}")
    merged = tuple(max(base.upper[k], fam[k]) for k in range(base.horizon))
    steps = [b - a for a, b in itertools.pairwise(fam)]
    if base.verdict == VERDICT_APF:
        verdict_val, bound, cert = VERDICT_APF, None, base.certificate
    elif all(b == 0 for b in fam):
        verdict_val, bound, cert = base.verdict, base.limit_bound, base.certificate
    elif steps and steps[0] > 0 and steps.count(steps[0]) == len(steps):
        verdict_val, bound = VERDICT_APF, None
        cert = (
            f"family bounds strictly increase (smallest step {format_rat(steps[0])}); "
            f"the merged sequence exceeds every bound"
        )
    else:
        verdict_val, bound, cert = VERDICT_UNDETERMINED, None, None
    return BreakSequence(
        levels=base.levels,
        lower=base.lower,
        upper=merged,
        verdict=verdict_val,
        limit_bound=bound,
        certificate=cert,
        flags=base.flags,
        warnings=base.warnings,
    )


def verdict(seq: BreakSequence) -> str:
    """Final verdict under the certificate-only policy.

    Finitely many break values prove nothing by themselves: without a
    certificate the answer is always "undetermined".
    """
    if seq.certificate is None:
        return VERDICT_UNDETERMINED
    return seq.verdict
