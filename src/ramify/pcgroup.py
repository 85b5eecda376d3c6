"""Finite p-groups given by power-commutator presentations.

A presentation on generators a_1 < ... < a_n over a prime p stores only
its nontrivial relations, in increasing key order: a_j^p under (j, 0) and
the commutator [a_j, a_i] = a_j^-1 a_i^-1 a_j a_i, i < j, under (j, i),
each an exponent vector over generators after a_j.  Elements are normal forms
a_1^e1 ... a_n^en with 0 <= e < p, written as plain exponent tuples.  The
product x y is computed by collection from the left (Vaughan-Lee; Leedham-
Green and Soicher): x is the collected exponent vector, y's letters go on a
stack, and each popped letter is added to the vector or moved left across
its tail, which goes back on the stack as conjugates, with power rows
pushed where an exponent reaches p.  Letters are handled in the order of
rewriting the leftmost out-of-order letter of the word x y first.

Consistency (the collected product being associative on all p^n normal
forms) is decided by the overlap tests of weight at most the class (Wamsley;
Vaughan-Lee; see ``consistency_check``), and on request again by Light's
test on the full product table.  Every failure reports the first failing
test of the full list as its witness triple.

Every subgroup (closures, normal closures, both series, the Frattini
subgroup) is grown from generators by ``span`` as an induced polycyclic
generating sequence (Holt, Eick and O'Brien, ch. 8): at most n rows, so
order, membership and equality cost polynomially many products, and the
element set is enumerated only when asked for; the group's ``cap`` bounds
every span, and a derived word is collected only if H may lack it.  Frattini
subgroups need p-th powers of generators only, as H/[H, H] is abelian; the
lower p-series is spanned from the lower central series by p-th powers alone
(``lower_p_series``).
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
from collections.abc import Iterable, Mapping, Sequence

from .errors import (CapExceededError, InconsistentPresentationError, InputError, is_int,
                     reject_unknown, require_posint, require_prime)
from .record import Record


Element = tuple[int, ...]

DEFAULT_CAP = 2**20
# the default check still reports a cap below this order as the table error
_TABLE_VERIFY_LIMIT = 256
_MAX_COLLECT_STEPS = 2_000_000
# products (and inverses) a collector keeps; a full cache starts over
_CACHE_LIMIT = 2**16


def _clean_rhs(rhs, j: int, n: int, p: int, what: str) -> tuple[tuple[int, int], ...]:
    """Validate an exponent map {k: e} with k > j, 0 < e < p; return sorted items."""
    items = []
    for k, e in sorted(dict(rhs).items()):
        if not isinstance(k, int) or k <= j or k > n:
            raise InputError(f"{what}: right-hand side index {k} must lie in ({j}, {n}]")
        if not is_int(e) or not 0 < e < p:
            raise InputError(f"{what}: exponent {e!r} for a_{k} must lie in [1, {p})")
        items.append((k, e))
    return tuple(items)


class PcPresentation(Record):
    """Power-commutator data; structurally validated, not consistency-checked."""

    p: int
    n: int
    relations: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_key", dict(self.relations))

    @classmethod
    def build(
        cls,
        p: int,
        n: int,
        power: Mapping[int, Mapping[int, int]] | None = None,
        comm: Mapping[tuple[int, int], Mapping[int, int]] | None = None,
    ) -> "PcPresentation":
        """Build from sparse maps: power[j] = {k: e}, comm[(j, i)] = {k: e}.

        Unspecified or empty right-hand sides are trivial (a_j^p = 1,
        [a_j, a_i] = 1) and are not stored.
        """
        p = require_prime(p)
        require_posint("generator count", n)
        power, comm, rows = dict(power or {}), dict(comm or {}), {}
        gens = range(1, n + 1)
        for j in sorted(int(j) for j in power if j in gens):
            rows[j, 0] = _clean_rhs(power.pop(j), j, n, p, f"power a_{j}^{p}")
        if power:
            raise InputError(f"power relations for unknown generators: {sorted(power)}")
        pairs = (key for key in comm if isinstance(key, tuple) and len(key) == 2
                 and key[0] in gens and key[1] in gens and key[1] < key[0])
        for j, i in sorted((int(j), int(i)) for j, i in pairs):
            rows[j, i] = _clean_rhs(comm.pop((j, i)), j, n, p, f"comm [a_{j}, a_{i}]")
        if comm:
            raise InputError(f"commutator relations for bad pairs: {sorted(comm)}")
        return cls(p, n, tuple((key, rhs) for key, rhs in sorted(rows.items()) if rhs))

    def power_rhs(self, j: int) -> tuple[tuple[int, int], ...]:
        return self._by_key.get((j, 0), ())

    def comm_rhs(self, j: int, i: int) -> tuple[tuple[int, int], ...]:
        if not 1 <= i < j <= self.n:
            raise InputError(f"commutator pair ({j}, {i}) out of range")
        return self._by_key.get((j, i), ())

    @property
    def order(self) -> int:
        return self.p**self.n

    def identity(self) -> Element:
        return (0,) * self.n

    def generator(self, j: int) -> Element:
        if not 1 <= j <= self.n:
            raise InputError(f"generator index {j} out of range")
        return tuple(1 if k == j - 1 else 0 for k in range(self.n))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = [(j, i, {str(k): e for k, e in rhs}) for (j, i), rhs in self.relations]
        return {
            "p": self.p,
            "n": self.n,
            "power": [{"j": j, "rhs": rhs} for j, i, rhs in rows if not i],
            "comm": [{"j": j, "i": i, "rhs": rhs} for j, i, rhs in rows if i],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PcPresentation":
        if not isinstance(data, dict):
            raise InputError("presentation must be a JSON object")
        reject_unknown(data, ("p", "n", "power", "comm"), "presentation")
        for key in ("p", "n"):
            if key not in data:
                raise InputError(f'bad presentation: top level lacks "{key}"')
        try:
            p, n = data["p"], data["n"]
            power = {j: rhs for (j,), rhs in _relations(data, "power", ("j",), "a_{}^p").items()}
            comm = _relations(data, "comm", ("j", "i"), "[a_{}, a_{}]")
        except InputError as exc:
            raise InputError(f"bad presentation: {exc}") from exc
        return cls.build(p, n, power, comm)


def _relations(data: dict, key: str, fields: tuple[str, ...], name: str) -> dict:
    """The relation list ``key`` as {(row[f] for f in fields): rhs}; a row
    repeating an earlier row's relation (``name`` of its indices) raises."""
    rows, out = data.get(key, []), {}
    if not isinstance(rows, list):
        raise InputError(f'"{key}" must be a list of rows')
    for r, row in enumerate(rows):
        where = f"{key}[{r}]"
        if not isinstance(row, dict):
            raise InputError(f"{where} must be an object")
        idx, rhs = tuple(_index(row, f, where) for f in fields), _rhs(row, where)
        if idx in out:
            raise InputError(f"{where} repeats the relation {name.format(*idx)}")
        out[idx] = rhs
    return out


def _rhs(row: dict, where: str) -> dict:
    """The row's exponent map keyed by generator index: JSON object keys
    must be plain ASCII decimals, and the exponents are checked by _clean_rhs."""
    rhs = row.get("rhs", {})
    if not isinstance(rhs, dict):
        raise InputError(f'{where} "rhs" must be an object')
    out = {}
    for k, e in rhs.items():
        try:
            if not (is_int(k) or isinstance(k, str) and k.isascii() and k.isdigit()):
                raise ValueError
            out[int(k)] = e
        except ValueError:  # also a key beyond int()'s digit limit
            raise InputError(f'{where} "rhs" key {k!r} is not a generator index') from None
    return out


def _index(row, key: str, where: str) -> int:
    try:
        value = row[key]
    except KeyError:
        raise InputError(f'{where} lacks "{key}"') from None
    if not is_int(value):
        raise InputError(f'{where} "{key}" must be an integer, got {value!r}')
    return value


class _Collector:
    """Collection from the left over an exponent vector and a letter stack.

    The collected part of the word is a normal form, kept as the exponent
    vector v; the letters (g, e) still to be multiplied on lie on a stack,
    the next one on top (generators counted from 0 here).  A popped a_g^e
    with v zero above g is added to v[g], and a_g^p is replaced by its
    power row.  Otherwise one a_g moves left across the tail a_h^v[h],
    h > g: the rest a_g^(e-1) goes back on the stack, then the tail as v[h]
    copies of a_h^(a_g) = a_h [a_h, a_g] for each h, lowest h on top, and
    the single a_g is added to v[g].  That is the trail which rewriting the
    leftmost out-of-order letter of the whole word leaves, so every product
    is that rewriting's, on inconsistent presentations too.
    """

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self._cache: dict[tuple[Element, Element], Element] = {}
        self._inv_cache: dict[Element, Element] = {}
        self._power = [()] * pres.n
        # a_h^(a_g) for g < h, looked up as _conj[g][h]; a_g shares `unit`,
        # the row of plain a_h, until a stored [a_h, a_g] needs its own copy
        unit = [((h, 1),) for h in range(pres.n)]
        self._conj = [unit] * pres.n
        self._links = [0] * pres.n  # bit h of _links[g]: a stored [a_h, a_g] or [a_g, a_h]
        for (h, g), rhs in pres.relations:
            word = tuple((k - 1, e) for k, e in reversed(rhs))  # stacked, top last
            if not g:
                self._power[h - 1] = word
                continue
            if self._conj[g - 1] is unit:
                self._conj[g - 1] = list(unit)
            self._conj[g - 1][h - 1] = word + ((h - 1, 1),)
            self._links[g - 1] |= 1 << (h - 1)
            self._links[h - 1] |= 1 << (g - 1)

    def _collect(self, v: list[int], stack: list[tuple[int, int]]) -> Element:
        """The normal form of v times the stacked letters; v is consumed."""
        p, power, conj, limit = self.pres.p, self._power, self._conj, _MAX_COLLECT_STEPS
        pop, push = stack.pop, stack.extend
        pushed = len(stack)  # every letter ever stacked, so the limit caps memory too
        top = len(v) - 1  # the last nonzero entry of v, -1 for the identity
        while top >= 0 and not v[top]:
            top -= 1
        while stack:
            g, e = pop()
            if g < top:
                if e > 1:
                    stack.append((g, e - 1))
                row = conj[g]
                for h in range(top, g, -1):
                    if v[h]:
                        trail = row[h] * v[h]
                        v[h] = 0
                        push(trail)
                        pushed += len(trail)
                e = 1
            e += v[g]
            if e >= p:
                e -= p
                push(power[g])
                pushed += len(power[g])
            v[g] = e
            top = g
            if not e:
                while top >= 0 and not v[top]:
                    top -= 1
            if pushed > limit:
                raise CapExceededError("collection step limit exceeded")
        return tuple(v)

    def commuting_supports(self, x: Element, y: Element) -> bool:
        """Whether no stored commutator relation links x's support to y's: then x, y commute."""
        reach = functools.reduce(int.__or__, itertools.compress(self._links, y), 0)
        return not any(reach >> g & 1 for g in itertools.compress(range(len(x)), x))

    def product(self, x: Element, y: Element) -> Element:
        key = (x, y)
        cached = self._cache.get(key)
        if cached is None:
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
            letters = [(g, y[g]) for g in range(len(y) - 1, -1, -1) if y[g]]
            cached = self._cache[key] = self._collect(list(x), letters)
        return cached

    def inverse(self, x: Element) -> Element:
        # kill coordinates left to right: right-multiplying by a_k^(p - e)
        # only touches coordinates >= k
        cached = self._inv_cache.get(x)
        if cached is None:
            p, n = self.pres.p, self.pres.n
            acc = cached = x  # acc is x until the first step; x = 1 if none is taken
            for k in range(n):
                if acc[k]:
                    step = tuple(p - acc[k] if j == k else 0 for j in range(n))
                    cached = step if acc is x else self.product(cached, step)  # 1 step = step
                    acc = self.product(acc, step)
            if len(self._inv_cache) >= _CACHE_LIMIT:
                self._inv_cache.clear()
            self._inv_cache[x] = cached
        return cached


class ConsistencyResult(Record):
    ok: bool
    witness: tuple[Element, Element, Element] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _weights(pres: PcPresentation) -> list[int]:
    """The weights ``consistency_check`` tests by.  The least ones the
    relations allow, w_k >= w_j + w_i for a_k in the rhs of [a_j, a_i] and
    w_k >= w_j + 1 in that of a_j^p, where they are at most 2 (no test is
    left then, in any order); else the least non-decreasing ones, w_k also
    >= w_(k-1).  Both in one ascending pass, as every rhs lies above its j
    and the rows come by ascending j."""
    least, rising, done = [1] * pres.n, [1] * pres.n, 1  # rising[:done] are final
    for (j, i), rhs in pres.relations:  # a power (i = 0) adds weight 1
        for k in range(done, j):
            rising[k] = max(rising[k], rising[k - 1])
        done = j
        for k, _ in rhs:
            for w in least, rising:
                w[k - 1] = max(w[k - 1], w[j - 1] + (w[i - 1] if i else 1))
    return least if max(least, default=0) <= 2 else list(itertools.accumulate(rising, max))


def _overlap_triples(pres: PcPresentation, weights: list[int] | None = None
                     ) -> Iterable[tuple[Element, Element, Element]]:
    """Associativity instances that decide consistency for collection.

    These are the classical overlap tests: generator triples a_k, a_j, a_i
    (k > j > i) and the power overlaps a_j^p against neighbours and itself.
    Given ``weights`` (non-decreasing where their maximum c exceeds 2), only
    the tests of weight at most c, in the same order, each loop ending at its
    first heavier test; without, all of them (zero weights pass every bound).
    """
    n, p = pres.n, pres.p
    w, c = (weights, max(weights)) if weights else ([0] * n, 1)
    if not n or weights and c <= 2:  # every test weighs at least 3 and takes a generator
        return

    def end(bound: int, hi: int) -> int:  # range(end) holds the i < hi with w_i <= bound
        return bisect.bisect_right(w, bound, 0, hi)

    m = end(c - 1 - w[0], n)  # no test takes a_j for j > m
    gen = [pres.generator(j) for j in range(1, m + 1)]  # a_j, indexed from 0
    power_word = [tuple(p - 1 if e else 0 for e in a) for a in gen]  # a_j^(p-1)
    for j in range(end((c - 1) // 2, n)):
        yield gen[j], power_word[j], gen[j]
    for j in range(1, m):
        for i in range(end(c - 1 - w[j], j)):
            yield power_word[j], gen[j], gen[i]
            yield gen[j], power_word[i], gen[i]
    for k in range(2, end(c - sum(w[:2]), n)):
        for j in range(1, end(c - w[k] - w[0], k)):
            for i in range(end(c - w[k] - w[j], j)):
                yield gen[k], gen[j], gen[i]


def consistency_check(
    pres: PcPresentation, exhaustive: bool | None = None, cap: int = DEFAULT_CAP, coll=None
) -> ConsistencyResult:
    """Decide whether collection defines a group of order p^n.

    Theorem (Vaughan-Lee, "An aspect of the nilpotent quotient algorithm",
    1984; Holt, Eick and O'Brien, ch. 9): let weights w_1 <= ... <= w_n put
    the rhs of [a_j, a_i] in weight >= w_j + w_i and that of a_j^p in weight
    >= w_j + 1, and let c = max w.  Then the presentation is consistent iff
    the overlap tests of weight at most c hold: a_k, a_j, a_i with
    w_k + w_j + w_i <= c, both power overlaps of j > i with
    w_j + w_i + 1 <= c, and a_j, a_j^(p-1), a_j with 2 w_j + 1 <= c.  For
    c <= 2 no test is left, in any order of the weights: the weight-2
    generators span a central V of exponent p holding every rhs, so the
    relations are a linear image in V of the p-multiplicator of (Z/p)^d, of
    rank d + C(d, 2), and the p-covering group of (Z/p)^d pushed out along
    it is a group of order p^n satisfying them.  Here w are ``_weights``.
    The full list runs only to name the witness, after a failing test or a
    product past the collection step limit, so verdict, witness and error
    are the full scan's.
    ``exhaustive=True`` also runs Light's test on the full product table
    (generator middles suffice, as the pc generators generate the group).
    ``coll`` lends the collector (and product cache) to use; else one is
    built at the first test, so a check with no test left builds none.
    """
    product = functools.cache(lambda: (coll or _Collector(pres)).product)

    def first_failure(triples):
        for x, y, z in triples:
            prod = product()
            if prod(prod(x, y), z) != prod(x, prod(y, z)):
                return x, y, z
        return None

    try:
        failed = first_failure(_overlap_triples(pres, _weights(pres)))
    except CapExceededError:  # the full scan meets the same limit, or a failing test first
        failed = True
    if failed:
        witness = first_failure(_overlap_triples(pres))
        return ConsistencyResult(False, witness, "overlap test failed")
    order = pres.order
    if exhaustive or (exhaustive is None and cap < order <= _TABLE_VERIFY_LIMIT):
        if order > cap or order > 2**12:
            raise CapExceededError(
                f"exhaustive verification needs a table of {order}^2 products"
            )
        elements, prod = list(itertools.product(range(pres.p), repeat=pres.n)), product()
        index = {x: k for k, x in enumerate(elements)}
        # each product once, as the index of a normal form in ``elements``
        table = [array.array("I", [index[prod(x, y)] for y in elements]) for x in elements]
        # Light's test: middles restricted to generators decide associativity
        for g in (index[pres.generator(j)] for j in range(1, pres.n + 1)):
            for a, row_a in enumerate(table):
                row_ag = table[row_a[g]]
                for b, gb in enumerate(table[g]):
                    if row_ag[b] != row_a[gb]:
                        witness = elements[a], elements[g], elements[b]
                        return ConsistencyResult(False, witness, "table verification failed")
    return ConsistencyResult(True, None, "consistent")


def _depth(x: Element) -> int:
    """Index of the first nonzero exponent of x; len(x) for the identity."""
    return next((d for d, e in enumerate(x) if e), len(x))


def _powers(group, x: Element, count: int) -> list[Element]:
    """[1, x, x^2, ..., x^(count - 1)] for count >= 2."""
    out = [group.identity(), x]
    while len(out) < count:
        out.append(group.product(out[-1], x))
    return out


class Subgroup:
    """A subgroup H held by an induced pcgs.

    The rows are elements of H, one for each depth (index of the first
    nonzero exponent) at which H has an element, scaled to leading exponent
    1.  Each element of H is r_1^e_1 ... r_m^e_m, rows in increasing depth
    and 0 <= e < p, in exactly one way, so |H| = p^m.  ``sift`` clears x
    at the rows' depths by right multiplication with powers of the rows, so
    x is in H iff it sifts to the identity.  The depth set is an invariant
    of H and fixes |H|, so subgroups of one group with equal depths are
    equal iff the rows of one lie in the other; they hash by depths.
    ``elements`` enumerates H on first use only.

    ``group`` is a ``PcGroup``, a quotient G/N too (``CosetGroup``).  H
    holds the tail G_t = <a_t, ..., a_n> for t = ``_tail``, the least depth
    with a row at every depth from it on.  As G_t is a subgroup and
    multiplying by it keeps the exponents before t (every rhs of a_j lies
    after a_j), x sifts at depths >= t to its prefix with zeros, and H lists
    as its rows' words before t times every tail vector.
    """

    def __init__(self, group: "PcGroup", powers: list):
        self.group = group
        # by depth: None, or [1, r, ..., r^(p-1)] for the row r of that depth
        self._powers = powers
        self._tail = max((d + 1 for d, pw in enumerate(powers) if not pw), default=0)
        self._elements: frozenset | None = None

    @property
    def rows(self) -> tuple:
        return tuple(pw[1] for pw in self._powers if pw)

    @property
    def depths(self) -> tuple:
        return tuple(d for d, pw in enumerate(self._powers) if pw)

    @property
    def order(self) -> int:
        return self.group.p ** len(self.rows)

    def sift(self, x: Element) -> Element:
        """x times powers of the rows, in increasing depth, so that x has
        zeros at the rows' depths.  The leading exponent is additive, so
        each step clears its depth and leaves the earlier ones.  From the
        tail on, the zeros are written at once."""
        p, powers, m = self.group.p, self._powers, self._tail
        if any(x[:m]):
            for d in range(m):
                if x[d] and powers[d]:
                    x = self.group.product(x, powers[d][p - x[d]])
        return x[:m] + (0,) * (len(x) - m)

    def __contains__(self, x) -> bool:
        # a non-identity element of H is nonzero at its depth, a row depth
        return not any(self.sift(x))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.group is other.group and self.depths == other.depths
                and all(r in self for r in other.rows))

    def __hash__(self) -> int:
        return hash(self.depths)

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            g, t, words = self.group, self._tail, [self.group.identity()]
            for pw in reversed(self._powers[:t]):
                if pw:
                    words += [g.product(r, w) for r in pw[1:] for w in words]
            tails = list(itertools.product(range(g.p), repeat=len(self._powers) - t))
            self._elements = frozenset(w[:t] + s for w in words for s in tails)
        return self._elements

    def rows_beyond(self, base: "Subgroup | None") -> list:
        """The rows at depths ``base`` lacks: with ``base`` they generate H
        if H was spanned from ``base``."""
        skip = base.depths if base else ()
        return [x for d, x in zip(self.depths, self.rows) if d not in skip]

    def is_normal(self) -> bool:
        """Whether the conjugates of the rows by the pc generators lie in H.
        Those of a row in the tail G_t lie in G_t, a normal subgroup, and a
        row whose support commutes with a's is its own conjugate: neither is
        collected."""
        g, t = self.group, self._tail
        return all(g.product(g.product(g.inverse(a), x), a) in self
                   for a in g.pc_generators() for d, x in zip(self.depths, self.rows)
                   if d < t and not g.commuting_supports(x, a))


def span(
    group: "PcGroup", gens: Iterable[Element], conj: Iterable[Element] = (),
    base: Subgroup | None = None, words: Iterable[tuple[Element, Element | None]] = (),
) -> Subgroup:
    """The subgroup generated by ``gens``, ``words`` and ``base``, normalized by ``conj``.

    Precondition: all three lie in <conj> when ``conj`` is given, and ``base``
    is closed and normalized by ``conj``.  Queued elements are sifted through
    the rows, from those of ``base`` on, and a remainder other than the
    identity becomes a row, scaled to leading exponent 1.  Its p-th power and
    conjugates (by ``conj``, else by the rows so far) are queued as pending
    words, like ``words``: (x, a) for [x, a], or x^p if a is None, collected
    when popped and only if H may lack them (README, "Words that cannot add a
    row").  The rows' normal words are then a subgroup normalized by <conj>
    (README, "One seed rule").  A subgroup of order above ``group.cap`` raises.
    ``group`` is any ``PcGroup``, a quotient G/N (``CosetGroup``) too.
    """
    p, identity = group.p, group.identity()
    prod, inv = group.product, group.inverse
    conj = [(a, _depth(a)) for a in conj]
    sub = Subgroup(group, list(base._powers) if base else [None] * len(identity))
    # entry (x, a, form, k): the word "x", "x^p", "[x,a]" or "x^a", in H once H's tail is <= k
    queue = [(x, None, "x", 0) for x in gens]
    queue += [(x, a, "x^p" if a is None else "[x,a]", max(_depth(x), _depth(a or x)) + 1)
              for x, a in words]
    for x, a, form, k in queue:  # in the given order; new words are appended while walking
        if sub._tail <= k or a and group.commuting_supports(x, a):
            continue
        if form == "x^p":
            x = _powers(group, x, p + 1)[-1]
        elif form == "[x,a]":
            x = prod(prod(prod(inv(x), inv(a)), x), a)
        elif form == "x^a":
            x = prod(prod(inv(a), x), a)
        x = sub.sift(x)
        if x == identity:
            continue
        if p ** (len(sub.rows) + 1) > group.cap:
            raise CapExceededError("subgroup closure exceeds enumeration cap")
        d = _depth(x)
        row = _powers(group, x, pow(x[d], -1, p) + 1)[-1]
        by = conj or zip(sub.rows, sub.depths)
        queue += [(row, None, "x^p", d + 1)] + [(row, a, "x^a", max(d, e) + 1) for a, e in by]
        sub._powers[d] = _powers(group, row, p)
        while sub._tail and sub._powers[sub._tail - 1]:
            sub._tail -= 1
    return sub


def _conjugates_exceed(group: "PcGroup", seed: list[Element]) -> bool:
    """Whether the conjugates of ``seed`` alone pass the cap: which limit a
    normal closure that passed the cap met first."""
    pcg = [(a, group.inverse(a)) for a in group.pc_generators()]
    seen = set(seed)
    queue = list(seen)
    for x in queue:
        for c in (group.product(group.product(a_inv, x), a) for a, a_inv in pcg):
            if c not in seen:
                if len(seen) >= group.cap:
                    return True
                seen.add(c)
                queue.append(c)
    return False


class PcGroup:
    """A consistency-checked presentation with group operations on normal forms."""

    def __init__(self, pres: PcPresentation, cap: int = DEFAULT_CAP, _checked: bool = False):
        self.pres = pres
        self.cap = cap
        self._coll = _Collector(pres)
        self.product, self.inverse = self._coll.product, self._coll.inverse
        self.commuting_supports = self._coll.commuting_supports
        self._gamma: list[Subgroup] | None = None
        self._pcg: tuple[Element, ...] | None = None
        if not _checked:
            result = consistency_check(pres, cap=cap, coll=self._coll)
            if not result.ok:
                raise InconsistentPresentationError(
                    f"inconsistent presentation: {result.detail}; witness {result.witness}",
                    witness=result.witness,
                )

    # -- basic operations -------------------------------------------------

    @property
    def p(self) -> int:
        return self.pres.p

    @property
    def order(self) -> int:
        return self.pres.order

    def identity(self) -> Element:
        return self.pres.identity()

    def pc_generators(self) -> tuple[Element, ...]:
        self._pcg = self._pcg or tuple(self.pres.generator(j) for j in range(1, self.pres.n + 1))
        return self._pcg

    def generator(self, j: int) -> Element:
        return self.pres.generator(j)

    def element(self, exponents: Sequence[int]) -> Element:
        if not isinstance(exponents, (list, tuple)):
            raise InputError(f"element must be a list of exponents, got {exponents!r}")
        exps = tuple(exponents)
        if len(exps) != self.pres.n:
            raise InputError(f"element needs {self.pres.n} exponents, got {len(exps)}")
        if any(not is_int(e) or not 0 <= e < self.p for e in exps):
            raise InputError(f"exponents must lie in [0, {self.p}), got {exps}")
        return exps

    def commutator(self, x: Element, y: Element) -> Element:
        # [x, y] = x^-1 y^-1 x y
        p = self.product
        return p(p(p(self.inverse(x), self.inverse(y)), x), y)

    def power_p(self, x: Element) -> Element:
        return _powers(self, x, self.p + 1)[-1]

    def _require_cap(self) -> None:
        if self.order > self.cap:
            raise CapExceededError(
                f"group order {self.order} exceeds enumeration cap {self.cap}"
            )

    def elements(self) -> list[Element]:
        """The normal forms, in increasing order."""
        self._require_cap()
        return list(itertools.product(range(self.p), repeat=self.pres.n))

    def __contains__(self, x) -> bool:
        """Whether ``elements()`` lists x, a tuple, without listing them."""
        return len(x) == self.pres.n and all(map(range(self.p).__contains__, x))

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, gens: Iterable[Element], normal: bool = False) -> Subgroup:
        """Subgroup generated by ``gens``; with ``normal`` its normal closure."""
        gens = [self.element(g) for g in gens]
        if not normal:
            return span(self, gens)
        try:
            return span(self, gens, self.pc_generators())
        except CapExceededError:
            if _conjugates_exceed(self, gens):
                raise CapExceededError("normal closure exceeds enumeration cap") from None
            raise

    def full_subgroup(self) -> Subgroup:
        """G, with the pc generators as rows."""
        self._require_cap()
        p, n = self.p, self.pres.n
        return Subgroup(self, [[tuple(k if i == d else 0 for i in range(n)) for k in range(p)]
                               for d in range(n)])

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, [None] * self.pres.n)

    def normal_closure(self, gens: Iterable[Element]) -> Subgroup:
        return self.subgroup(gens, normal=True)

    # -- series -------------------------------------------------------------

    def _descending_series(self) -> list[Subgroup]:
        """G = gamma_1, then gamma_(k+1) = <[x, a]>^G over gamma_k's rows x and pc generators a."""
        pcg, series = self.pc_generators(), [self.full_subgroup()]
        while series[-1].order > 1:
            series.append(span(self, [], pcg, words=[(x, a) for x in series[-1].rows for a in pcg]))
            if series[-1].order >= series[-2].order:
                raise InconsistentPresentationError("lower central series does not descend")
        return series

    def lower_central_series(self) -> list[Subgroup]:
        """G = gamma_1 >= gamma_2 = [G, G] >= ... >= 1, built on first use."""
        if self._gamma is None:
            self._gamma = self._descending_series()
        return self._gamma

    def lower_p_series(self) -> list[Subgroup]:
        """P_0 = G, P_(m+1) = P_m^p [P_m, G], down to 1.

        P_(m+1) is the normal closure of gamma_(m+2) and the p-th powers of
        P_m's rows: no commutator is needed (README, "Lower p-series from
        p-th powers").
        """
        gamma, pcg = self.lower_central_series(), self.pc_generators()
        series = [gamma[0]]
        while series[-1].order > 1:
            base = gamma[min(len(series), len(gamma) - 1)]
            series.append(span(self, [], pcg, base, [(x, None) for x in series[-1].rows]))
            if series[-1].order >= series[-2].order:
                raise InconsistentPresentationError("lower p-series does not descend")
        return series

    def series_equality_check(self) -> dict:
        """Compare the lower central series with the lower p-series levelwise.

        As P_m contains gamma_(m+1), the terms are equal iff their orders are;
        so G^p lies in [G, G], the condition under which the two series
        coincide for these groups, iff |P_1| = |gamma_2|.
        """
        gamma = [s.order for s in self.lower_central_series()]
        pser = [s.order for s in self.lower_p_series()]
        levels = [{"gamma_order": g, "p_order": q, "equal": g == q}
                  for g, q in itertools.zip_longest(gamma, pser, fillvalue=1)]
        return {"levels": levels, "all_equal": gamma == pser, "gp_in_derived": gamma[1] == pser[1],
                "gamma_orders": gamma, "p_orders": pser}

    # -- invariants of subgroups ---------------------------------------------

    def frattini_subgroup(self, h: Subgroup) -> Subgroup:
        """H^p [H, H]: the normal closure in H of x^p and [x, y] over its rows."""
        rows = h.rows
        words = [(x, None) for x in rows] + [(x, y) for i, x in enumerate(rows) for y in rows[:i]]
        return span(self, [], rows, words=words)

    def min_generators(self, h: Subgroup) -> int:
        """Minimal size of a generating set: rank(H) - rank(H^p [H, H])."""
        return len(h.rows) - len(self.frattini_subgroup(h).rows)

    def element_length(self, x: Element) -> int:
        """Largest k with x in gamma_k; the identity gets class + 1 as sentinel."""
        x = self.element(x)
        # the series descends, so x lies in exactly its first k terms
        return sum(x in term for term in self.lower_central_series())

    # -- probes ----------------------------------------------------------------

    def just_infinite_probe(self, tower_indices: Sequence[int]) -> dict:
        """For each listed generator, check its normal closure swallows the
        later commutator-generated tower elements.

        The finite shadow of being just infinite: a normal subgroup that
        contains a tower generator must contain every deeper element of the
        commutator chain.  The first two tower positions are independent
        generators, so only positions from the third on count as "later".
        Returns per-pair verdicts and the overall flag.
        """
        idx = list(tower_indices)
        if any(not is_int(j) or not 1 <= j <= self.pres.n for j in idx):
            raise InputError(f"tower indices must lie in [1, {self.pres.n}]")
        pairs, ok, pcg = [], True, self.pc_generators()
        for pos, j in enumerate(idx[:-1]):
            closure = self.normal_closure([pcg[j - 1]])
            for later_pos in range(max(pos + 1, 2), len(idx)):
                later = idx[later_pos]
                contained = pcg[later - 1] in closure
                ok = ok and contained
                pairs.append({"generator": j, "later": later, "contained": contained})
        return {"pairs": pairs, "ok": ok}

    def rank_growth_probe(self, k: int) -> dict:
        """Minimal generator count of the subgroup omitting a_1 and a_2k.

        The subgroup is generated by a_2 ... a_{2k-1} together with all
        a_{2k+1} ... a_n; requires depth n >= 2k + 2.
        """
        require_posint("k", k)
        if self.pres.n < 2 * k + 2:
            raise InputError(
                f"depth {self.pres.n} too small for k={k}; need at least {2 * k + 2}"
            )
        indices = list(range(2, 2 * k)) + list(range(2 * k + 1, self.pres.n + 1))
        sub = self.subgroup([self.pc_generators()[j - 1] for j in indices])
        return {
            "indices": indices,
            "order": sub.order,
            "min_generators": self.min_generators(sub),
        }


# -- builders -------------------------------------------------------------------


def build_heisenberg(p: int) -> PcPresentation:
    """Order p^3, two generators, central commutator: a_3 = [a_2, a_1]."""
    return PcPresentation.build(p, 3, comm={(2, 1): {3: 1}})


def build_tower_truncation(
    p: int,
    depth: int,
    policy: str = "trivial-fill",
    power: Mapping[int, Mapping[int, int]] | None = None,
    comm: Mapping[tuple[int, int], Mapping[int, int]] | None = None,
) -> PcPresentation:
    """Depth-d truncation of the iterated-commutator tower a_{k+1} = [a_k, a_{k-1}].

    With the trivial-fill policy every unspecified relation is trivial; the
    table policy lets the caller supply the remaining assignments.  The
    result is consistency-checked and the verdict surfaced: an inconsistent
    fill raises with its witness triple.
    """
    p = require_prime(p)
    if not isinstance(depth, int) or depth < 2:
        raise InputError(f"depth must be an integer >= 2, got {depth!r}")
    if policy not in ("trivial-fill", "table"):
        raise InputError(f"unknown policy {policy!r}")
    if policy == "trivial-fill" and (power or comm):
        raise InputError("trivial-fill policy does not accept assignments")
    comm_map = dict(comm or {})
    for j in range(2, depth):
        key = (j, j - 1)
        if key in comm_map:
            raise InputError(f"tower relation [a_{j}, a_{j-1}] cannot be overridden")
        comm_map[key] = {j + 1: 1}
    pres = PcPresentation.build(p, depth, power, comm_map)
    result = consistency_check(pres)
    if not result.ok:
        raise InconsistentPresentationError(
            f"{policy} truncation at p={p}, depth={depth} is inconsistent; "
            f"witness {result.witness}",
            witness=result.witness,
        )
    return pres


def shipped_truncations() -> list[tuple[int, int]]:
    """(p, depth) pairs whose trivial-fill truncation is consistent.

    The list is fixed by running the consistency oracle, not by theory:
    depth 3 passes for every listed p; depth 4 passes for every odd listed
    p (only generator p-th powers are pinned, so no exponent-p obstruction
    applies) and fails for p = 2; depth 5 fails for all of 2, 3, 5, 7.
    """
    return [(2, 3), (3, 3), (5, 3), (7, 3), (3, 4), (5, 4), (7, 4)]
