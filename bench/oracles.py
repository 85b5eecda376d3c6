"""Expected outputs for ramify's commands, derived without importing ramify.

Every function here computes what a command must print from the mathematics
the command implements, by a route that shares no code with the package:

* tower breaks from the recurrence u_1 = t_1,
  u_n = u_{n-1} + (t_n - t_{n-1}) / p^(n-1), and the tower transition
  function from its breakpoints (u_n, t_n) and slopes p^n;
* class-2 exponent-p groups (p odd) as F_p vector data: a product is
  (a + b, z + w + sum_{j>i} a_j b_i c_ji), so orders, series, closures and
  generator counts are ranks of commutator vectors;
* filtrations built on the pc chain G_k = <a_(k+1), ..., a_n>, whose level
  sets, transition function and quotient filtration follow from the chain
  sizes and from Herbrand's theorem |Q^w| = |G^w| / |G^w n N|.

A check returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# towers and piecewise-linear transition functions
# ---------------------------------------------------------------------------

def tower_uppers(schedule, p) -> list[Fraction]:
    uppers = [Fraction(schedule[0])]
    for n in range(1, len(schedule)):
        uppers.append(uppers[-1] + Fraction(schedule[n] - schedule[n - 1], p**n))
    return uppers


def tower_psi(schedule, p):
    """(breakpoints, slopes) of the tower's psi: points (u_n, t_n), slopes p^n."""
    points = list(zip(tower_uppers(schedule, p), (Fraction(t) for t in schedule)))
    return points, [Fraction(p**k) for k in range(len(schedule) + 1)]


def pl_json(points, slopes) -> dict:
    return {
        "breakpoints": [[fmt(x), fmt(y)] for x, y in points],
        "slopes": [fmt(s) for s in slopes],
    }


def pl_inverse(points, slopes):
    return [(y, x) for x, y in points], [1 / s for s in slopes]


def pl_eval(points, slopes, x) -> Fraction:
    px, py = Fraction(0), Fraction(0)
    for k, (bx, by) in enumerate(points):
        if x <= bx:
            return py + slopes[k] * (x - px)
        px, py = bx, by
    return py + slopes[-1] * (x - px)


def admissible(j, p, e, strict=True) -> bool:
    bound = Fraction(p * e, p - 1)
    return j <= bound and (not strict or j % p != 0 or j == bound)


def feasible(i, j, s, p, e) -> bool:
    if j % p == 0 or s % p == 0 or j > Fraction(p * e, p - 1):
        return False
    if s <= i and s > j:
        return False
    if s > i and i + Fraction(s - i, p) > j:
        return False
    step_at_j = j if j <= i else p * j - (p - 1) * i
    return i == j or s == step_at_j


def apf_sequence(plan: dict):
    """(levels, lower, upper) of an apf plan, or None when it is infeasible."""
    p, e0, depth = plan["p"], plan["e0"], plan["depth"]
    eps, i1, i = plan["eps"], plan["base"]["i1"], plan["base"]["i"]
    scaled = plan.get("scaling", "scaled") == "scaled"
    e_i1, e_top = (p ** (depth - 1) * e0, p**depth * e0) if scaled else (e0, p * e0)
    if not admissible(i1, p, e_i1) or not admissible(i, p, e_top, strict=False):
        return None
    if i <= i1 or (i - i1) % p == 0:
        return None
    head = Fraction(p * e0, p - 1)
    upper = [Fraction(i1 * (p - 1) + i, p)]
    lower, levels = [Fraction(i1)], [3]
    for k in range(2, depth + 1):
        brk = head - eps[min(k - 2, len(eps) - 1)] + ((k - 2) * e0 if scaled else 0)
        e_k = p ** (k - 2) * e0 if scaled else e0
        if brk.denominator != 1 or brk < 1 or not admissible(int(brk), p, e_k):
            return None
        if upper[-1] < brk:
            return None
        upper.append((brk * (p - 1) + upper[-1]) / p)
        lower.append(brk)
        levels.append(2 * k + 1)
    return levels, lower, upper


# ---------------------------------------------------------------------------
# verdict rules: a certificate must be consistent with what is known of the
# infinite tower; "undetermined" is never wrong
# ---------------------------------------------------------------------------

def verdict_problem(trailer: dict, upper, tail: str) -> str | None:
    """tail: "bounded" (limit known finite), "unbounded", or "unknown"."""
    verdict, bound, cert = trailer["verdict"], trailer["limit_bound"], trailer["certificate"]
    if verdict == "undetermined":
        return None if bound is None else "undetermined verdict with a bound"
    if not cert:
        return f"{verdict} verdict without a certificate"
    if verdict == "APF":
        return "APF verdict on a bounded tower" if tail == "bounded" else None
    if verdict != "non-APF":
        return f"unknown verdict {verdict!r}"
    if tail == "unbounded":
        return "non-APF verdict on an unbounded tower"
    if bound is None or Fraction(bound) < max(upper):
        return f"limit bound {bound} below a listed break"
    return None


def check_sequence_csv(text: str, levels, lower, upper, flags, tail) -> str | None:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != len(upper) + 3:
        return "wrong number of CSV lines"
    if lines[0] != "n,lower_break,upper_break,flag":
        return "wrong CSV header"
    for k in range(len(upper)):
        low = fmt(lower[k]) if lower else ""
        want = f"{levels[k]},{low},{fmt(upper[k])},{int(flags[k])}"
        if lines[k + 1] != want:
            return f"row {k + 1}: got {lines[k + 1]!r}, want {want!r}"
    return verdict_problem(json.loads(lines[-2]), upper, tail)


def check_sequence_json(obj: dict, levels, lower, upper, flags, tail, warnings) -> str | None:
    want = {
        "levels": list(levels),
        "lower": [fmt(t) for t in lower],
        "upper": [fmt(u) for u in upper],
        "flags": [bool(f) for f in flags],
    }
    for key, value in want.items():
        if obj.get(key) != value:
            return f"wrong {key}"
    if len(obj.get("warnings", ())) != warnings:
        return f"expected {warnings} warnings"
    return verdict_problem(obj, upper, tail)


def schedule_flags(schedule, p) -> list[bool]:
    return [n > 0 and (schedule[n] - schedule[n - 1]) % p == 0 for n in range(len(schedule))]


# ---------------------------------------------------------------------------
# F_p linear algebra
# ---------------------------------------------------------------------------

def echelon(vectors, p) -> list[list[int]]:
    """Reduced row echelon basis of the span, rows sorted by pivot."""
    rows: list[list[int]] = []
    for v in vectors:
        v = [x % p for x in v]
        for r in rows:
            piv = next(k for k, x in enumerate(r) if x)
            if v[piv]:
                f = v[piv]
                v = [(a - f * b) % p for a, b in zip(v, r)]
        if any(v):
            piv = next(k for k, x in enumerate(v) if x)
            inv = pow(v[piv], -1, p)
            v = [(x * inv) % p for x in v]
            for idx, r in enumerate(rows):
                if r[piv]:
                    f = r[piv]
                    rows[idx] = [(a - f * b) % p for a, b in zip(r, v)]
            rows.append(v)
    rows.sort(key=lambda r: next(k for k, x in enumerate(r) if x))
    return rows


def span(vectors, p, dim) -> list[tuple[int, ...]]:
    basis = echelon(vectors, p)
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * dim
        for c, r in zip(coeffs, basis):
            if c:
                v = [(a + c * b) % p for a, b in zip(v, r)]
        out.add(tuple(v))
    return sorted(out)


# ---------------------------------------------------------------------------
# class-2 exponent-p groups
# ---------------------------------------------------------------------------

class Class2:
    """Generators a_1..a_d on top, a_(d+1)..a_n central; [a_j, a_i] = comm[j, i]."""

    def __init__(self, p: int, d: int, m: int, comm: dict):
        self.p, self.d, self.m, self.n = p, d, m, d + m
        self.comm = {key: tuple(v) for key, v in comm.items()}  # (j, i), j > i, 1-based

    def presentation(self) -> dict:
        rows = []
        for (j, i), vec in sorted(self.comm.items()):
            rhs = {str(self.d + k + 1): e for k, e in enumerate(vec) if e}
            if rhs:
                rows.append({"j": j, "i": i, "rhs": rhs})
        return {"p": self.p, "n": self.n, "power": [], "comm": rows}

    def c(self, j: int, i: int) -> tuple:
        return self.comm.get((j, i), (0,) * self.m)

    def mul(self, x, y) -> tuple:
        p, d = self.p, self.d
        z = [(a + b) % p for a, b in zip(x[d:], y[d:])]
        for j in range(2, d + 1):
            for i in range(1, j):
                f = x[j - 1] * y[i - 1]
                if f:
                    z = [(a + f * b) % p for a, b in zip(z, self.c(j, i))]
        return tuple((a + b) % p for a, b in zip(x[:d], y[:d])) + tuple(z)

    def inv(self, x) -> tuple:
        p, d = self.p, self.d
        z = [(-a) % p for a in x[d:]]
        for j in range(2, d + 1):
            for i in range(1, j):
                f = x[j - 1] * x[i - 1]
                if f:
                    z = [(a + f * b) % p for a, b in zip(z, self.c(j, i))]
        return tuple((-a) % p for a in x[:d]) + tuple(z)

    def comm_vectors(self, tops) -> list[tuple]:
        tops = sorted(tops)
        return [self.c(j, i) for j in tops for i in tops if i < j]

    def derived_rank(self) -> int:
        return len(echelon(self.comm_vectors(range(1, self.d + 1)), self.p))

    def subgroup(self, tops, central, normal=False) -> list[tuple]:
        """Elements of <a_j (j in tops), central vectors> (normal closure if asked)."""
        if normal:
            cvecs = [self.c(max(j, i), min(j, i)) for j in tops for i in range(1, self.d + 1) if i != j]
        else:
            cvecs = self.comm_vectors(tops)
        zs = span(list(central) + cvecs, self.p, self.m)
        tops = sorted(tops)
        out = []
        for a in itertools.product(range(self.p), repeat=len(tops)):
            head = [0] * self.d
            for j, e in zip(tops, a):
                head[j - 1] = e
            out.extend(tuple(head) + z for z in zs)
        return sorted(out)

    def series_report(self) -> dict:
        p, n, r = self.p, self.n, self.derived_rank()
        orders = [p**n, p**r, 1] if r else [p**n, 1]
        return {
            "all_equal": True,
            "gamma_orders": orders,
            "gp_in_derived": True,
            "levels": [{"equal": True, "gamma_order": o, "p_order": o} for o in orders],
            "p_orders": orders,
        }

    def rank_report(self, k: int) -> dict:
        indices = list(range(2, 2 * k)) + list(range(2 * k + 1, self.n + 1))
        tops = [j for j in indices if j <= self.d]
        central = [[1 if c == j - self.d - 1 else 0 for c in range(self.m)] for j in indices if j > self.d]
        w = len(echelon(central + self.comm_vectors(tops), self.p))
        frattini = len(echelon(self.comm_vectors(tops), self.p))
        return {"indices": indices, "k": k, "order": self.p ** (len(tops) + w),
                "min_generators": len(tops) + w - frattini}

    def in_normal_closure(self, j: int, later: int) -> bool:
        if later <= self.d:
            return later == j
        unit = [1 if c == later - self.d - 1 else 0 for c in range(self.m)]
        if j > self.d:
            return later == j
        cvecs = [self.c(max(j, i), min(j, i)) for i in range(1, self.d + 1) if i != j]
        return len(echelon(cvecs + [unit], self.p)) == len(echelon(cvecs, self.p))


class Truncation:
    """Trivial-fill truncation of a_(k+1) = [a_k, a_(k-1)] at depth 3 or 4, p odd."""

    def __init__(self, p: int, depth: int):
        self.p, self.n = p, depth

    def presentation(self) -> dict:
        comm = [{"j": j, "i": j - 1, "rhs": {str(j + 1): 1}} for j in range(2, self.n)]
        return {"p": self.p, "n": self.n, "power": [], "comm": comm}

    def series_report(self) -> dict:
        orders = [self.p**self.n] + [self.p ** (self.n - k) for k in range(2, self.n + 1)]
        return {
            "all_equal": True,
            "gamma_orders": orders,
            "gp_in_derived": True,
            "levels": [{"equal": True, "gamma_order": o, "p_order": o} for o in orders],
            "p_orders": orders,
        }

    def in_normal_closure(self, j: int, later: int) -> bool:
        # conjugation by the neighbours of a_j produces a_(j+1), a_(j+2), ...
        return later == j or (later > j and later >= 3)

    def rank_report(self, k: int) -> dict:
        # only k = 1 at depth 4: <a_3, a_4> is elementary abelian of rank 2
        return {"indices": [3, 4], "k": k, "order": self.p**2, "min_generators": 2}


def probe_report(group, tower) -> dict:
    pairs, ok = [], True
    for pos, j in enumerate(tower[:-1]):
        for later_pos in range(max(pos + 1, 2), len(tower)):
            later = tower[later_pos]
            contained = group.in_normal_closure(j, later)
            ok = ok and contained
            pairs.append({"contained": contained, "generator": j, "later": later})
    return {"ok": ok, "pairs": pairs}


def elements_report(elements) -> dict:
    return {"elements": [list(x) for x in sorted(elements)], "order": len(elements)}


# ---------------------------------------------------------------------------
# filtrations on the pc chain of a class-2 group
# ---------------------------------------------------------------------------

def lead(x) -> int:
    return next(k for k, e in enumerate(x) if e)


class ChainFiltration:
    """Value w[k] on G_k minus G_(k+1), with w non-decreasing and positive."""

    def __init__(self, group: Class2, weights):
        self.g, self.w = group, list(weights)
        self.values = sorted(set(self.w))

    def input_json(self) -> dict:
        n, p = self.g.n, self.g.p
        ig = [
            {"element": list(x), "value": self.w[lead(x)]}
            for x in itertools.product(range(p), repeat=n)
            if any(x) and lead(x) > 0
        ]
        return {"group": self.g.presentation(), "ig": ig, "default": self.w[0]}

    def level_index(self, v) -> int:
        """Chain index k with {x : value(x) >= v} = G_k (n when trivial)."""
        return next((k for k, wk in enumerate(self.w) if wk >= v), self.g.n)

    def phi(self):
        order = self.g.p**self.g.n
        points, slopes = [], [Fraction(1)]
        for idx, v in enumerate(self.values):
            nxt = self.values[idx + 1] if idx + 1 < len(self.values) else None
            size = self.g.p ** (self.g.n - self.level_index(nxt)) if nxt else 1
            if v - 1 == 0:
                slopes[0] = Fraction(size, order)
                continue
            x = Fraction(v - 1)
            px, py = points[-1] if points else (Fraction(0), Fraction(0))
            points.append((x, py + slopes[-1] * (x - px)))
            slopes.append(Fraction(size, order))
        return points, slopes

    def upper_level(self, u) -> list[tuple]:
        points, slopes = pl_inverse(*self.phi())
        t = pl_eval(points, slopes, u)
        k = self.level_index(t + 1)
        return [x for x in itertools.product(range(self.g.p), repeat=self.g.n)
                if not any(x[:k])]

    def quotient_report(self, kernel_vectors) -> dict:
        """Quotient by the central subgroup spanned by kernel_vectors."""
        g, p, n, d = self.g, self.g.p, self.g.n, self.g.d
        kernel = span(kernel_vectors, p, g.m)
        kdim = len(echelon(kernel_vectors, p))
        qorder = p ** (n - kdim)
        points, slopes = self.phi()
        uppers = [pl_eval(points, slopes, Fraction(v - 1)) for v in self.values]
        # psi of the quotient at each upper break: integrate (Q : Q^w), where
        # Q^w is the image of G^w and |Q^w| = |G^w| / |G^w n N|
        psi_q, acc, prev = {}, Fraction(0), Fraction(0)
        for v, u in zip(self.values, uppers):
            k = self.level_index(v)
            cut = max(k - d, 0)
            inter = kdim - len(echelon([z[:cut] for z in kernel_vectors], p)) if cut else kdim
            size_q = p ** ((n - k) - inter)
            acc += Fraction(qorder, size_q) * (u - prev)
            psi_q[u], prev = acc, u
        best = {}
        for x in itertools.product(range(p), repeat=n):
            if not any(x):
                continue
            rep = min(x[:d] + tuple((a + b) % p for a, b in zip(x[d:], z)) for z in kernel)
            if not any(rep):
                continue
            u = uppers[self.values.index(self.w[lead(x)])]
            if rep not in best or best[rep] < u:
                best[rep] = u
        rows = [{"element": list(c), "value": fmt(psi_q[u] + 1)} for c, u in sorted(best.items())]
        return {"ig": rows, "order": qorder, "upper_breaks": [fmt(u) for u in sorted(set(best.values()))]}
