"""Seeded job lists for the three workloads, each job paired with its oracle.

A workload is a fixed plan: a list of CLI jobs whose shapes (command,
group order, horizon, p) are the same for every seed, while the seed draws
the contents (schedules, commutator vectors, weights, generator choices).
Costs therefore vary little between seeds, so run-to-run spread stays small.
A *pass* repeats the plan, with fresh contents each round, until it holds at
least 100 jobs, so that 10 per-job latencies lie beyond the 90th percentile.
Every pass also carries the same error-path jobs and four tiny canary jobs
that touch every traced layer once, so no per-layer figure is a constant 0.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as O

# Jobs tagged with a defect fail at the revision this benchmark was written
# against (ROADMAP "Fix first": tracebacks and lax schema at the CLI):
# deep-nesting escapes as RecursionError, levels-list ("levels": [[1], 2])
# as TypeError, float-index ("j": 2.7) is truncated and accepted, and
# bool-exponent ("rhs": {"2": true}) is accepted as exponent 1.  They stay
# in every pass so that fixing them shows as fewer failures.

Check = Callable[[object, str, str], "str | None"]


@dataclass
class Job:
    argv: list
    check: Check  # (exit code or exception text, stdout, stderr) -> problem or None
    kind: str
    defect: str | None = None


def exact(want_out: str, want_rc: int = 0) -> Check:
    def check(rc, out, err):
        if rc != want_rc:
            return f"exit {rc!r}, want {want_rc}"
        return None if out == want_out else "stdout differs from the oracle"
    return check


def error(want_rc: int, code: str) -> Check:
    def check(rc, out, err):
        if rc != want_rc:
            return f"exit {rc!r}, want {want_rc}"
        if out:
            return "stdout not empty on an error"
        try:
            obj = json.loads(err)
        except ValueError:
            return "stderr is not a JSON error object"
        if not isinstance(obj, dict) or set(obj) != {"code", "error"} or obj["code"] != code:
            return f"stderr object {err.strip()!r}, want code {code!r}"
        return None
    return check


def parsed(want_rc: int, judge: Callable[[dict], "str | None"]) -> Check:
    def check(rc, out, err):
        if rc != want_rc:
            return f"exit {rc!r}, want {want_rc}"
        try:
            obj = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return judge(obj)
    return check


class JobList:
    """Collects jobs and writes their input files into the work directory."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir, self.rng, self.jobs, self.files = workdir, rng, [], 0

    def file(self, obj) -> str:
        name = f"in{self.files:04d}.json"
        self.files += 1
        text = obj if isinstance(obj, str) else json.dumps(obj)
        (self.workdir / name).write_text(text)
        return name

    def add(self, argv, check: Check, kind: str, defect: str | None = None) -> None:
        self.jobs.append(Job([str(a) for a in argv], check, kind, defect))


# ---------------------------------------------------------------------------
# schedules and plans
# ---------------------------------------------------------------------------

def coprime_start(rng, p, top=12) -> int:
    return rng.choice([t for t in range(1, top) if t % p])


def arith_schedule(rng, p, horizon):
    """t_n = t_1 + (n-1) d with p | d: bounded, limit t_1 + d/(p-1)."""
    t1, d = coprime_start(rng, p), p * rng.randint(1, 3)
    return [t1 + k * d for k in range(horizon)], t1 + d


def gaps_schedule(rng, p, horizon):
    """Random gaps: no infinite rule, so only the prefix is known."""
    t = coprime_start(rng, p)
    sched, top = [t], 6
    while len(sched) < horizon:
        t += rng.randint(1, top)
        while t % p == 0:
            t += 1
        sched.append(t)
    return sched, sched[0] + 2 * top


def doubling_schedule(rng, p, horizon):
    """t_(n+1) = p t_n + c: constant upper increments, so unbounded."""
    t1, c = coprime_start(rng, p, 8), coprime_start(rng, p, 8)
    sched = [t1]
    while len(sched) < horizon:
        sched.append(p * sched[-1] + c)
    return sched, t1 + c


SCHEDULES = {
    "arith": (arith_schedule, "nonapf", "bounded"),
    "gaps": (gaps_schedule, "nonapf", "unknown"),
    "doubling": (doubling_schedule, "custom", "unbounded"),
}


def schedule_plan(rng, shape, p, horizon):
    """(plan JSON, expected (levels, lower, upper, flags, tail, warnings))."""
    make, kind, tail = SCHEDULES[shape]
    sched, e0 = make(rng, p, horizon)
    if shape == "arith" and rng.random() < 0.5:
        kind = "custom"
    flags = O.schedule_flags(sched, p)
    want = (list(range(1, horizon + 1)), sched, O.tower_uppers(sched, p), flags, tail, sum(flags))
    return {"kind": kind, "p": p, "e0": e0, "schedule": sched}, want


def apf_plan(rng, scaling):
    for _ in range(10_000):
        p = rng.choice([2, 3])
        e0, depth = (p - 1) * rng.randint(1, 4), rng.randint(4, 14)
        eps = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        e_i1, e_top = (p ** (depth - 1) * e0, p**depth * e0) if scaling == "scaled" else (e0, p * e0)
        i1 = rng.randint(1, p * e_i1 // (p - 1))
        i = rng.randint(i1 + 1, max(i1 + 1, p * e_top // (p - 1)))
        plan = {"kind": "apf", "p": p, "e0": e0, "depth": depth, "eps": eps,
                "base": {"i1": i1, "i": i}}
        if scaling == "flat":
            plan["scaling"] = "flat"
        seq = O.apf_sequence(plan)
        if seq is not None:
            levels, lower, upper = seq
            tail = "unbounded" if scaling == "scaled" else "bounded"
            return plan, (levels, lower, upper, [False] * len(upper), tail, 0)
    raise RuntimeError("no feasible apf plan drawn")


def sequence_check(fmt_: str, want) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc!r}, want 0"
        if fmt_ == "csv":
            return O.check_sequence_csv(out, *want[:5])
        try:
            obj = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return O.check_sequence_json(obj, *want)
    return check


def sweep_check(fmt_: str, wants) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc!r}, want 0"
        if fmt_ == "json":
            try:
                results = json.loads(out)["results"]
            except (ValueError, KeyError, TypeError):
                return "stdout is not a sweep result"
            if len(results) != len(wants):
                return "wrong number of sweep results"
            for obj, want in zip(results, wants):
                problem = O.check_sequence_json(obj, *want)
                if problem:
                    return problem
            return None
        lines = out.split("\n")
        start = 0
        for want in wants:
            stop = start + len(want[2]) + 2
            problem = O.check_sequence_csv("\n".join(lines[start:stop]) + "\n", *want[:5])
            if problem:
                return problem
            start = stop
        return None if lines[start:] == [""] else "trailing sweep output"
    return check


# ---------------------------------------------------------------------------
# shared error-path and canary jobs
# ---------------------------------------------------------------------------

def add_error_paths(b: JobList) -> None:
    tiny = O.Class2(3, 1, 1, {})
    tiny_filt = O.ChainFiltration(tiny, [1, 2]).input_json()
    b.add(["filtration", "upper", "--at=-1", "--file", b.file(tiny_filt)],
          error(1, "malformed-input"), "error-exit-1")
    sweep = {"plans": [{"kind": "nonapf", "p": 2, "e0": 2, "schedule": [1, 3]},
                       {"kind": "nonapf", "p": 2, "e0": 1, "schedule": [1, 100]}]}
    b.add(["plan", "run", "--file", b.file(sweep)], error(2, "infeasible-plan"), "error-exit-2")
    trunc = {"p": 2, "n": 4, "comm": [{"j": 2, "i": 1, "rhs": {"3": 1}},
                                      {"j": 3, "i": 2, "rhs": {"4": 1}}]}
    b.add(["group", "series", "--file", b.file(trunc)],
          error(3, "inconsistent-presentation"), "error-exit-3")
    big = O.Class2(3, 4, 4, {(2, 1): (1, 0, 0, 0)}).presentation()
    b.add(["group", "check", "--exhaustive", "--file", b.file(big)],
          error(4, "cap-exceeded"), "error-exit-4")
    depth = 50_000
    b.add(["plan", "run", "--file", b.file("[" * depth + "]" * depth)],
          error(1, "malformed-input"), "error-malformed", "deep-nesting")
    levels = {"sequences": [{"upper": ["1", "2"], "levels": [[1], 2]}, {"upper": ["1", "3"]}]}
    b.add(["merge", "max", "--file", b.file(levels)],
          error(1, "malformed-input"), "error-malformed", "levels-list")
    heis = {"p": 3, "n": 3, "comm": [{"j": 2.7, "i": 1, "rhs": {"3": 1}}]}
    b.add(["group", "check", "--file", b.file(heis)],
          error(1, "malformed-input"), "error-malformed", "float-index")
    cyclic = {"group": {"p": 3, "n": 2, "power": [{"j": 1, "rhs": {"2": True}}]}, "default": 1}
    b.add(["filtration", "validate", "--file", b.file(cyclic)],
          error(1, "malformed-input"), "error-malformed", "bool-exponent")


def add_canaries(b: JobList) -> None:
    sched = [1, 3, 5]
    plan = {"kind": "nonapf", "p": 2, "e0": 2, "schedule": sched}
    flags = O.schedule_flags(sched, 2)
    want = ([1, 2, 3], sched, O.tower_uppers(sched, 2), flags, "bounded", sum(flags))
    b.add(["plan", "run", "--format", "json", "--file", b.file(plan)],
          sequence_check("json", want), "canary")
    square = O.Class2(3, 2, 0, {})
    b.add(["group", "series", "--file", b.file(square.presentation())],
          exact(O.dumps(square.series_report())), "canary")
    tiny = O.ChainFiltration(O.Class2(3, 1, 1, {}), [1, 2])
    b.add(["filtration", "quotient", "--kernel", "[[0, 1]]", "--file", b.file(tiny.input_json())],
          exact(O.dumps(tiny.quotient_report([(1,)]))), "canary")
    b.add(["herbrand", "step", "--break", 1, "--p", 2, "--eval", 3],
          exact(O.dumps({"value": "5"})), "canary")


# ---------------------------------------------------------------------------
# tower-sweep: herbrand and planner, no group work
# ---------------------------------------------------------------------------

def rational_near(rng, hi) -> Fraction:
    """A rational in [0, hi + 1] with a small denominator."""
    den = rng.choice([1, 2, 3, 7])
    return Fraction(rng.randint(0, int((hi + 1) * den)), den)


def tower_sweep(b: JobList) -> None:
    rng = b.rng
    # single plans: horizon strata fixed per pass, contents drawn per seed
    strata = [(p, h) for p in (2, 3, 5) for h in (15, 30, 45, 60, 75)] + [(3, 120)]
    for idx, (p, h) in enumerate(strata):
        shape = ("arith", "gaps")[idx % 2]
        plan, want = schedule_plan(rng, shape, p, h)
        fmt_ = ("csv", "json")[(idx // 2) % 2]
        b.add(["plan", "run", "--format", fmt_, "--file", b.file(plan)],
              sequence_check(fmt_, want), "plan-run")
    for idx, (p, h) in enumerate((p, h) for p in (2, 3, 5) for h in (10, 20, 30)):
        plan, want = schedule_plan(rng, "doubling", p, h)
        fmt_ = ("csv", "json")[idx % 2]
        b.add(["plan", "run", "--format", fmt_, "--file", b.file(plan)],
              sequence_check(fmt_, want), "plan-run")
    for idx, scaling in enumerate(("scaled", "scaled", "flat", "flat")):
        plan, want = apf_plan(rng, scaling)
        fmt_ = ("csv", "json")[idx % 2]
        b.add(["plan", "run", "--format", fmt_, "--file", b.file(plan)],
              sequence_check(fmt_, want), "plan-run")
    for fmt_ in ("csv", "json"):
        plans, wants = [], []
        for shape, p, h in (("arith", 2, 12), ("gaps", 3, 24), ("doubling", 5, 16),
                            ("gaps", 2, 36), ("arith", 5, 20)):
            plan, want = schedule_plan(rng, shape, p, h)
            plans.append(plan)
            wants.append(want)
        plan, want = apf_plan(rng, "scaled")
        plans.append(plan)
        wants.append(want)
        b.add(["plan", "run", "--format", fmt_, "--file", b.file({"plans": plans})],
              sweep_check(fmt_, wants), "plan-sweep")

    # merges of sequences computed by the recurrence
    for idx, h in enumerate((20, 30, 40, 50)):
        p = (2, 3, 5, 3)[idx]
        shapes = (("arith", "gaps"), ("arith", "arith", "gaps"), ("doubling", "arith"),
                  ("gaps", "doubling", "arith"))[idx]
        seqs, uppers, tails = [], [], []
        for shape in shapes:
            sched, _ = SCHEDULES[shape][0](rng, p, h)
            up = O.tower_uppers(sched, p)
            item = {"upper": [O.fmt(u) for u in up]}
            if shape == "arith":
                limit = Fraction(sched[0]) + Fraction(sched[1] - sched[0], p - 1)
                item.update(verdict="non-APF", limit_bound=O.fmt(limit), certificate="arithmetic schedule")
            elif shape == "doubling":
                item.update(verdict="APF", certificate="doubling schedule")
            seqs.append(item)
            uppers.append(up)
            tails.append(SCHEDULES[shape][2])
        # a copy of the first sequence's prefix forces collisions there
        cut = h // 3
        seqs.append({"upper": seqs[0]["upper"][:cut] + [O.fmt(u + 1) for u in uppers[0][cut:]]})
        uppers.append(uppers[0][:cut] + [u + 1 for u in uppers[0][cut:]])
        tails.append("unknown")
        merged = [max(col) for col in zip(*uppers)]
        flags = [len(set(col)) < len(col) for col in zip(*uppers)]
        tail = "unbounded" if "unbounded" in tails else "unknown"
        want = (list(range(1, h + 1)), [], merged, flags, tail, 0)
        fmt_ = ("csv", "json")[idx % 2]
        b.add(["merge", "max", "--format", fmt_, "--file", b.file({"sequences": seqs})],
              sequence_check(fmt_, want), "merge")
    for idx, h in enumerate((25, 45)):
        p = (2, 3)[idx]
        sched, _ = arith_schedule(rng, p, h)
        up = O.tower_uppers(sched, p)
        limit = Fraction(sched[0]) + Fraction(sched[1] - sched[0], p - 1)
        base = {"upper": [O.fmt(u) for u in up], "verdict": "non-APF",
                "limit_bound": O.fmt(limit), "certificate": "arithmetic schedule"}
        family = sorted(rng.sample(range(1, 8 * h), h))
        family = [Fraction(f, 4) for f in family]
        merged = [max(u, f) for u, f in zip(up, family)]
        want = (list(range(1, h + 1)), [], merged, [False] * h, "unknown", 0)
        fmt_ = ("csv", "json")[idx]
        body = {"base": base, "family": [O.fmt(f) for f in family]}
        b.add(["merge", "repair", "--format", fmt_, "--file", b.file(body)],
              sequence_check(fmt_, want), "merge")

    # transition functions of towers
    for idx, (p, h) in enumerate(((2, 12), (3, 24), (5, 36))):
        sched, _ = gaps_schedule(rng, p, h)
        points, slopes = O.tower_psi(sched, p)
        psi_file = b.file(O.pl_json(points, slopes))
        x = rational_near(rng, float(points[-1][0]))
        b.add(["herbrand", "eval", "--file", psi_file, "--at", O.fmt(x)],
              exact(O.dumps({"value": O.fmt(O.pl_eval(points, slopes, x))})), "herbrand")
        inv_points, inv_slopes = O.pl_inverse(points, slopes)
        b.add(["herbrand", "invert", "--file", psi_file],
              exact(O.dumps(O.pl_json(inv_points, inv_slopes))), "herbrand")
        y = rational_near(rng, float(points[-1][1]))
        b.add(["herbrand", "invert", "--file", psi_file, "--eval", O.fmt(y)],
              exact(O.dumps({"value": O.fmt(O.pl_eval(inv_points, inv_slopes, y))})), "herbrand")
        cut = rng.randint(2, h - 2)
        pair = {"outer": O.pl_json(*O.tower_psi(sched[cut:], p)),
                "inner": O.pl_json(*O.tower_psi(sched[:cut], p))}
        b.add(["herbrand", "compose", "--file", b.file(pair)],
              exact(O.dumps(O.pl_json(points, slopes))), "herbrand")
        brk = rng.randint(1, 40)
        b.add(["herbrand", "step", "--break", brk, "--p", p, "--eval", O.fmt(x)],
              exact(O.dumps({"value": O.fmt(x if x <= brk else p * x - (p - 1) * brk)})), "herbrand")

    # small admissibility and feasibility questions
    for _ in range(8):
        p, e = rng.choice([2, 3, 5, 7]), rng.randint(1, 20)
        j = rng.randint(1, p * e // (p - 1) + 3)
        flags = ["--bound-only"] if rng.random() < 0.3 else []
        ok = O.admissible(j, p, e, strict=not flags)
        b.add(["plan", "admissible", "--j", j, "--p", p, "--e", e, *flags],
              exact(O.dumps({"admissible": ok}), 0 if ok else 2), "plan-small")
    for _ in range(8):
        p, e = rng.choice([2, 3, 5]), rng.randint(2, 20)
        i, j = rng.randint(1, 30), rng.randint(1, p * e // (p - 1) + 2)
        s = j if j <= i else p * j - (p - 1) * i
        s += rng.choice([0, 0, 0, 1])
        ok = O.feasible(i, j, s, p, e)
        b.add(["plan", "feasible", "--i", i, "--j", j, "--s", s, "--p", p, "--e", e],
              parsed(0 if ok else 2, lambda obj, ok=ok: None if obj.get("feasible") is ok
                     else "wrong feasibility verdict"), "plan-small")


# ---------------------------------------------------------------------------
# group-series: collection, consistency, closures, series
# ---------------------------------------------------------------------------

def random_class2(rng, p, d, m) -> O.Class2:
    """A class-2 group of fixed isomorphism type with a seeded presentation.

    [a_j, a_i] is a nonzero multiple of the column (pair index mod m) of a
    random invertible matrix, so every subgroup order, and with it the work
    of every job, is the same for all seeds; only the exponents differ.
    """
    basis = random_basis(rng, p, m)
    comm = {}
    pairs = [(j, i) for j in range(2, d + 1) for i in range(1, j)]
    for idx, pair in enumerate(pairs):
        scale = rng.randrange(1, p)
        comm[pair] = tuple(scale * x % p for x in basis[idx % m]) if m else ()
    return O.Class2(p, d, m, comm)


def random_basis(rng, p, m) -> list[tuple]:
    while True:
        rows = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(m)]
        if len(O.echelon(rows, p)) == m:
            return rows


def central_direction(rng, group: O.Class2) -> tuple:
    """A nonzero central vector in the direction of the last commutator column."""
    pairs = [(j, i) for j in range(2, group.d + 1) for i in range(1, j)]
    base = group.c(*pairs[-1]) if pairs else (1,) + (0,) * (group.m - 1)
    scale = rng.randrange(1, group.p)
    return tuple(scale * x % group.p for x in base)


def group_job(b: JobList, group, kind: str) -> None:
    rng, pres = b.rng, b.file(group.presentation())
    n, p = group.n, group.p
    if kind == "check":
        b.add(["group", "check", "--file", pres],
              exact(O.dumps({"consistent": True, "n": n, "order": p**n, "p": p})), "group-check")
    elif kind == "check-series":
        want = {"consistent": True, "n": n, "order": p**n, "p": p, "series": group.series_report()}
        b.add(["group", "check", "--series", "--file", pres], exact(O.dumps(want)), "group-check")
    elif kind == "series":
        b.add(["group", "series", "--file", pres], exact(O.dumps(group.series_report())), "group-series")
    elif kind in ("closure", "closure-normal"):
        # fixed shape per group (how many generators of each kind), drawn contents
        d, m = group.d, group.m
        tops = list(range(1, max(1, d // 2) + 1))
        central = [central_direction(rng, group)] if m > 1 else []
        gens = [[1 if c == j - 1 else 0 for c in range(n)] for j in tops]
        gens += [[0] * d + list(z) for z in central]
        normal = kind == "closure-normal"
        want = O.elements_report(group.subgroup(tops, central, normal=normal))
        b.add(["group", "closure", *(["--normal"] if normal else []), "--gens", json.dumps(gens),
               "--file", pres], exact(O.dumps(want)), "group-closure")
    elif kind == "rank":
        k = 1 if n < 6 else 2
        b.add(["group", "rank", "--k", k, "--file", pres], exact(O.dumps(group.rank_report(k))), "group-rank")
    elif kind == "probe":
        b.add(["group", "probe", "--file", pres],
              exact(O.dumps(O.probe_report(group, list(range(1, n + 1))))), "group-probe")
    elif kind == "probe-tower":
        tower = sorted(rng.sample(range(1, n + 1), 3))
        b.add(["group", "probe", "--tower", ",".join(map(str, tower)), "--file", pres],
              exact(O.dumps(O.probe_report(group, tower))), "group-probe")
    else:
        raise ValueError(kind)


# (group, job kinds) per pass; orders on both sides of the 256-element
# table-verification threshold
GROUP_PLAN = [
    ("heis", 3, ["check-series", "probe-tower", "closure"]),
    ((3, 2, 1), None, ["series", "closure-normal", "probe"]),
    ("trunc", (3, 4), ["check-series", "probe", "rank"]),
    ((3, 2, 2), None, ["series", "closure", "rank"]),
    ((3, 3, 1), None, ["closure-normal", "check"]),
    ("heis", 5, ["series"]),
    ("heis", 7, ["probe", "closure", "series"]),
    ("trunc", (5, 4), ["check-series", "probe", "rank"]),
    ((3, 3, 3), None, ["series", "closure", "closure-normal", "rank", "probe"]),
    ((3, 4, 3), None, ["check-series", "closure", "rank", "probe"]),
    ("trunc", (7, 4), ["probe", "rank", "check"]),
    ((5, 3, 2), None, ["rank", "check", "closure"]),
    ((3, 4, 4), None, ["rank", "probe", "check"]),
]


def group_series(b: JobList) -> None:
    for shape, arg, kinds in GROUP_PLAN:
        if shape == "heis":
            group = O.Class2(arg, 2, 1, {(2, 1): (1,)})
        elif shape == "trunc":
            group = O.Truncation(*arg)
        else:
            group = random_class2(b.rng, *shape)
        for kind in kinds:
            group_job(b, group, kind)


# ---------------------------------------------------------------------------
# filtration-levels: validation, transition functions, quotients
# ---------------------------------------------------------------------------

def random_weights(rng, n) -> list[int]:
    w = [rng.randint(1, 4)]
    for _ in range(n - 1):
        w.append(w[-1] + rng.choice([0, 1, 2, 3, 5]))
    if w[-1] == w[0]:
        w[-1] += 1
    return w


def invalid_filtration(rng, group: O.Class2):
    """Level sets G >= G_(j-1) >= H = <a_j> x Z0 with H not normal."""
    p, d, m = group.p, group.d, group.m
    j = 1 if d == 1 else rng.randint(1, d)
    others = [group.c(max(j, i), min(j, i)) for i in range(1, d + 1) if i != j]
    z0 = [tuple(rng.randrange(p) for _ in range(m))] if m > 1 else []
    z0 = [z for z in z0 if any(z)]
    if all(len(O.echelon(z0 + [c], p)) == len(O.echelon(z0, p)) for c in others):
        return None  # every [a_j, a_i] lies in Z0, so H would be normal
    h = set(group.subgroup([j], z0))
    lo = rng.randint(1, 3)
    mid, hi = lo + rng.randint(1, 3), lo + rng.randint(4, 7)
    ig = []
    for x in itertools.product(range(p), repeat=d + m):
        if not any(x):
            continue
        if x in h:
            ig.append({"element": list(x), "value": hi})
        elif j > 1 and not any(x[: j - 1]):
            ig.append({"element": list(x), "value": mid})
    body = {"group": group.presentation(), "ig": ig, "default": lo}

    def judge(obj):
        if obj.get("ok") is not False or obj.get("level") != O.fmt(hi - 1):
            return f"expected a failure at level {hi - 1}"
        if obj.get("reason") != "not normal":
            return "expected a normality failure"
        a, x = (tuple(v) for v in obj["witness"])
        if sum(a) != 1 or x not in h or group.mul(group.mul(group.inv(a), x), a) in h:
            return "witness does not show a non-normal level"
        return None
    return body, judge


FILTRATION_PLAN = [
    ((3, 2, 1), 6, ["validate", "invalid", "herbrand", "upper", "quotient"]),
    ((3, 2, 2), 1, ["validate", "invalid", "herbrand", "upper", "quotient"]),
    ((3, 3, 1), 1, ["validate", "upper"]),
    ((5, 2, 1), 1, ["quotient"]),
]


def filtration_levels(b: JobList) -> None:
    rng = b.rng
    for shape, repeat, kinds in FILTRATION_PLAN:
        for _ in range(repeat):
            group = random_class2(rng, *shape)
            filt = O.ChainFiltration(group, random_weights(rng, group.n))
            body = None
            for kind in kinds:
                if kind == "invalid":
                    made = None
                    while made is None:
                        made = invalid_filtration(rng, group)
                    inv_body, judge = made
                    b.add(["filtration", "validate", "--file", b.file(inv_body)],
                          parsed(0, judge), "filtration-validate")
                    continue
                body = body or b.file(filt.input_json())
                if kind == "validate":
                    b.add(["filtration", "validate", "--file", body],
                          exact(O.dumps({"ok": True})), "filtration-validate")
                elif kind == "herbrand":
                    b.add(["filtration", "herbrand", "--file", body],
                          exact(O.dumps(O.pl_json(*filt.phi()))), "filtration-herbrand")
                elif kind == "upper":
                    points, slopes = filt.phi()
                    u = rational_near(rng, float(points[-1][1]) if points else 2.0)
                    want = O.elements_report(filt.upper_level(u))
                    b.add(["filtration", "upper", "--at", O.fmt(u), "--file", body],
                          exact(O.dumps(want)), "filtration-upper")
                elif kind == "quotient":
                    z = central_direction(rng, group)
                    kernel = [[0] * group.d + list(z)]
                    b.add(["filtration", "quotient", "--kernel", json.dumps(kernel), "--file", body],
                          exact(O.dumps(filt.quotient_report([z]))), "filtration-quotient")


WORKLOADS = {
    "tower-sweep": tower_sweep,
    "group-series": group_series,
    "filtration-levels": filtration_levels,
}


def build(name: str, seed: int, workdir: Path, min_jobs: int) -> list[Job]:
    """One pass: rounds of the workload's plan until the pass, with the shared
    error-path and canary jobs, holds at least min_jobs jobs."""
    b = JobList(workdir, random.Random(f"{name}:{seed}"))
    add_error_paths(b)
    add_canaries(b)
    shared, b.jobs = b.jobs, []
    while len(b.jobs) + len(shared) < min_jobs:
        WORKLOADS[name](b)
    return b.jobs + shared
