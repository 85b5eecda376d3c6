"""Unit tests for the power-commutator group engine."""

import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramify import (
    CapExceededError,
    CosetGroup,
    InconsistentPresentationError,
    InputError,
    PcGroup,
    PcPresentation,
    build_heisenberg,
    build_tower_truncation,
    consistency_check,
    shipped_truncations,
)
from ramify import pcgroup
from ramify.cli import main
from ramify.pcgroup import _Collector, _conjugacy_class, _overlap_triples, _weights, span


def _heis(p):
    return PcGroup(build_heisenberg(p))


# -- presentation and collection ---------------------------------------------


def test_presentation_validation():
    with pytest.raises(InputError):
        PcPresentation.build(4, 2)  # composite p
    with pytest.raises(InputError):
        PcPresentation.build(2, 0)  # no generators
    with pytest.raises(InputError):
        PcPresentation.build(2, 2, comm={(1, 2): {}})  # needs j > i
    with pytest.raises(InputError):
        PcPresentation.build(2, 2, power={1: {1: 1}})  # rhs not above j
    pres = build_heisenberg(3)
    for lookup, what in [(lambda: pres.comm_rhs(1, 2), "commutator pair (1, 2)"),
                         (lambda: pres.comm_rhs(4, 1), "commutator pair (4, 1)"),
                         (lambda: pres.generator(0), "generator index 0"),
                         (lambda: pres.generator(4), "generator index 4")]:
        with pytest.raises(InputError) as exc:
            lookup()
        assert str(exc.value) == f"{what} out of range"


def test_presentation_json_round_trip():
    pres = build_heisenberg(3)
    assert PcPresentation.from_json_dict(pres.to_json_dict()) == pres
    with pytest.raises(InputError):
        PcPresentation.from_json_dict({"p": 3, "n": 3, "bogus": []})


def test_presentation_stores_only_nontrivial_relations():
    pres = PcPresentation.build(3, 4, power={1: {4: 2}, 2: {}}, comm={(2, 1): {3: 1}, (3, 1): {}})
    assert pres.relations == (((1, 0), ((4, 2),)), ((2, 1), ((3, 1),)))
    assert pres.power_rhs(2) == pres.comm_rhs(3, 1) == ()
    assert pres.to_json_dict() == {"p": 3, "n": 4, "power": [{"j": 1, "rhs": {"4": 2}}],
                                   "comm": [{"j": 2, "i": 1, "rhs": {"3": 1}}]}
    assert PcPresentation.from_json_dict(pres.to_json_dict()) == pres
    # an explicit empty row is the absent row
    row = {"j": 2, "i": 1, "rhs": {}}
    explicit = PcPresentation.from_json_dict({"p": 3, "n": 3, "comm": [row]})
    absent = PcPresentation.from_json_dict({"p": 3, "n": 3})
    assert explicit == absent and hash(explicit) == hash(absent)


def test_presentation_checks_rows_before_keys():
    # power rows, then unknown generators, then commutator rows, then bad pairs
    def error(**rows):
        with pytest.raises(InputError) as exc:
            PcPresentation.build(3, 3, **rows)
        return str(exc.value)

    assert (error(power={1: {1: 1}, 5: {}})
            == "power a_1^3: right-hand side index 1 must lie in (1, 3]")
    assert (error(power={5: {}}, comm={(2, 1): {1: 1}})
            == "power relations for unknown generators: [5]")
    assert (error(comm={(2, 1): {1: 1}, (1, 2): {}})
            == "comm [a_2, a_1]: right-hand side index 1 must lie in (2, 3]")
    assert error(comm={(3, 1): {}, (1, 2): {}}) == "commutator relations for bad pairs: [(1, 2)]"


def test_commuting_generators_share_one_conjugate_row():
    rows = _Collector(PcPresentation.build(3, 5))._conj
    assert all(row is rows[0] for row in rows)
    # only a_1 is the lower index of a nontrivial commutator of the Heisenberg group
    rows = _Collector(build_heisenberg(3))._conj
    assert rows[0] is not rows[1] and rows[1] is rows[2]
    assert rows[0][1] == ((2, 1), (1, 1)) and rows[1][2] == ((2, 1),)


def test_collection_fixtures():
    g = _heis(3)
    a1, a2, a3 = g.generator(1), g.generator(2), g.generator(3)
    assert g.product(a1, a2) == (1, 1, 0)  # already in normal form
    assert g.product(a2, a1) == (1, 1, 1)  # a2 a1 = a1 a2 a3
    assert g.product(a1, g.identity()) == a1
    assert g.product(a1, g.inverse(a1)) == g.identity()
    assert g.commutator(a2, a1) == a3
    assert g.commutator(a1, a1) == g.identity()
    assert g.power_p(a1) == g.identity()
    assert g.conjugate(a1, a2) == (1, 0, 2)  # a2^-1 a1 a2 = a1 [a1, a2] = a1 a3^-1
    assert g.conjugate(a3, a1) == a3


def test_order_and_elements():
    g = _heis(3)
    assert g.order == 27
    assert len(g.elements()) == 27
    assert g.identity() == (0, 0, 0)
    with pytest.raises(InputError):
        g.element((1, 2))  # wrong arity
    with pytest.raises(InputError):
        g.element((3, 0, 0))  # exponent out of range
    with pytest.raises(InputError, match=r"^element must be a list of exponents, got '100'$"):
        g.element("100")


def test_element_length_and_sentinel():
    g = _heis(3)
    assert g.element_length(g.generator(1)) == 1
    assert g.element_length(g.generator(3)) == 2
    assert g.element_length((1, 0, 1)) == 1
    # identity reported as class + 1, never infinity
    assert g.element_length(g.identity()) == 3


def test_cap_enforced():
    with pytest.raises(CapExceededError):
        PcGroup(build_heisenberg(3), cap=10)


def test_span_is_bounded_by_its_groups_cap():
    # above DEFAULT_CAP, spans reach the cap the group was loaded with
    g = PcGroup(PcPresentation.build(2, 21), cap=2**21)
    assert span(g, g.pc_generators()).order == 2**21
    # a quotient's spans are bounded by its ambient group's cap
    g = PcGroup(PcPresentation.build(2, 22), cap=2**21)
    quot = CosetGroup(g, g.subgroup([g.generator(22)]))
    assert span(quot, quot.pc_generators()).order == 2**21
    g = PcGroup(PcPresentation.build(2, 10), cap=2**8)
    quot = CosetGroup(g, g.subgroup([g.generator(10)]))
    with pytest.raises(CapExceededError, match="subgroup closure exceeds enumeration cap"):
        span(quot, quot.pc_generators())


# -- consistency ----------------------------------------------------------------


def test_consistent_presentations_accept():
    for p in (2, 3):
        res = consistency_check(build_heisenberg(p))
        assert res.ok and res.witness is None


def test_depth_four_even_tower_rejected():
    with pytest.raises(InconsistentPresentationError) as exc:
        build_tower_truncation(2, 4)
    assert exc.value.witness == ((0, 1, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def test_consistency_witness_for_bad_variant():
    pres = PcPresentation.build(2, 4, comm={(2, 1): {3: 1}, (3, 1): {4: 1}})
    res = consistency_check(pres)
    assert not res.ok
    assert res.witness == ((0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0))
    assert res.detail == "overlap test failed"


def test_exhaustive_flag_agrees():
    pres = build_heisenberg(2)
    assert consistency_check(pres, exhaustive=True).ok
    bad = PcPresentation.build(2, 4, comm={(2, 1): {3: 1}, (3, 1): {4: 1}})
    assert not consistency_check(bad, exhaustive=True).ok


@st.composite
def _small_presentations(draw):
    """Random pc presentations of order at most 256 over p in {2, 3, 5}."""
    p, n = draw(st.sampled_from([(p, n) for p in (2, 3, 5) for n in range(1, 9) if p**n <= 256]))

    def rhs(j):  # sparse: dense random relations nearly always fail on generators
        if j == n or draw(st.booleans()):
            return {}
        return dict(draw(st.lists(st.tuples(st.integers(j + 1, n), st.integers(1, p - 1)),
                                  max_size=2)))

    power = {j: rhs(j) for j in range(1, n + 1)}
    comm = {(j, i): rhs(j) for j in range(2, n + 1) for i in range(1, j)}
    return PcPresentation.build(p, n, power, comm)


# a fixed example set: one consistent table at order 243 or 256 takes about 2 s,
# and random runs can cluster a dozen of them
@settings(max_examples=60, deadline=None, derandomize=True)
@given(pres=_small_presentations())
def test_overlap_verdict_matches_exhaustive(pres):
    # Light's test over the full table is the oracle for the overlap triples
    fast = consistency_check(pres)
    full = consistency_check(pres, exhaustive=True)
    assert fast.ok == full.ok
    if not full.ok:
        assert (fast.witness, fast.detail) == (full.witness, full.detail)


def _light_reference(pres):
    """Light's test over the collector's products, one by one."""
    prod = _Collector(pres).product
    elements = list(itertools.product(range(pres.p), repeat=pres.n))
    for g in (pres.generator(j) for j in range(1, pres.n + 1)):
        for a in elements:
            ag = prod(a, g)
            for b in elements:
                if prod(ag, b) != prod(a, prod(g, b)):
                    return False, (a, g, b), "table verification failed"
    return True, None, "consistent"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pres=_small_presentations())
def test_table_verification_matches_products(pres):
    # with no overlap test to stop it, an inconsistent presentation reaches
    # the table, which must name the same failing triple
    assume(pres.order <= 125)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("ramify.pcgroup._overlap_triples", lambda pres, weights=None: iter(()))
        res = consistency_check(pres, exhaustive=True)
    assert (res.ok, res.witness, res.detail) == _light_reference(pres)


@st.composite
def _weighted_presentations(draw):
    """Presentations of weighted class 1 to 4 over p in {2, 3, 5}, n <= 7,
    consistent or not.  Weights rise by at most 1 from w_1 = 1, and each
    generator above weight 1 gets a defining relation, so the least weights
    are the drawn ones; further rhs entries respect them.  In one draw of
    five the relations are laid on shuffled weights instead."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 7 if p < 5 else 6))
    w = [1]
    for _ in range(n - 1):
        w.append(min(4, w[-1] + draw(st.integers(0, 1))))
    shuffled = draw(st.integers(0, 4)) == 0
    if shuffled:
        w = draw(st.permutations(w))
    power = {j: {} for j in range(1, n + 1)}
    comm = {(j, i): {} for j in range(2, n + 1) for i in range(1, j)}
    rows = [(power[j], w[j - 1] + 1, j) for j in power]
    rows += [(comm[j, i], w[j - 1] + w[i - 1], j) for j, i in comm]
    for k in range(2, n + 1):
        defining = [row for row, least, j in rows if least == w[k - 1] and j < k]
        if defining and not shuffled:
            draw(st.sampled_from(defining))[k] = 1
    for row, least, j in rows:
        above = [k for k in range(j + 1, n + 1) if w[k - 1] >= least]
        if above and draw(st.integers(0, 2)) == 0:
            row[draw(st.sampled_from(above))] = draw(st.integers(1, p - 1))
    return PcPresentation.build(p, n, power, comm)


def _full_scan(pres):
    """Every overlap test in order, the first failing one as witness."""
    prod = _Collector(pres).product
    for x, y, z in _overlap_triples(pres):
        if prod(prod(x, y), z) != prod(x, prod(y, z)):
            return False, (x, y, z), "overlap test failed"
    return True, None, "consistent"


@example(pres=build_tower_truncation(3, 4))
@example(pres=PcPresentation.build(2, 4, comm={(2, 1): {3: 1}, (3, 1): {4: 1}}))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(pres=_weighted_presentations())
def test_overlap_tests_by_weight_match_full_scan(pres):
    fast = consistency_check(pres)
    assert (fast.ok, fast.witness, fast.detail) == _full_scan(pres)


def test_least_weights():
    assert _weights(build_tower_truncation(3, 4)) == [1, 1, 2, 3]
    # class 2 in any order: a_1^3 = a_2 puts a weight-2 generator before a_3
    assert _weights(PcPresentation.build(3, 3, power={1: {2: 1}})) == [1, 2, 1]
    # class 3 with a_4 of weight 1 after a_3 of weight 3: a_4 takes weight 3
    assert _weights(PcPresentation.build(3, 4, power={1: {2: 1}, 2: {3: 1}})) == [1, 2, 3, 3]
    # a_1^3 = a_2, [a_4, a_3] = a_5, [a_7, a_6] = a_8: the least weights stay
    # at most 2, where non-decreasing ones would be 1, 2, 2, 2, 4, 4, 4, 8
    pres = PcPresentation.build(3, 8, power={1: {2: 1}}, comm={(4, 3): {5: 1}, (7, 6): {8: 1}})
    assert _weights(pres) == [1, 2, 1, 1, 2, 1, 1, 2]


def _filtered_triples(pres, w, c):
    """The tests of weight at most c, filtered from the full list of overlap
    tests one by one: the reference for the bounded loops of ``_overlap_triples``."""
    n, p = pres.n, pres.p
    gen = [pres.generator(j) for j in range(1, n + 1)]
    power_word = [tuple(p - 1 if e else 0 for e in a) for a in gen]
    for j in range(n):
        if 2 * w[j] + 1 <= c:
            yield gen[j], power_word[j], gen[j]
    for j in range(1, n):
        for i in range(j):
            if w[j] + w[i] + 1 <= c:
                yield power_word[j], gen[j], gen[i]
                yield gen[j], power_word[i], gen[i]
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                if w[k] + w[j] + w[i] <= c:
                    yield gen[k], gen[j], gen[i]


# class 5 with w_2 > w_1: the middle loop's bound takes the lightest i, a_1
@example(pres=PcPresentation.build(3, 5, power={1: {2: 1}}, comm={(3, 1): {4: 1}, (4, 2): {5: 1}}))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(pres=_weighted_presentations())
def test_overlap_loops_stop_at_the_first_heavy_test(pres):
    w = _weights(pres)
    assert w == sorted(w) or max(w) <= 2
    assert list(_overlap_triples(pres, w)) == list(_filtered_triples(pres, w, max(w)))
    # zero weights under c = 1 keep every test: the full list
    assert list(_overlap_triples(pres)) == list(_filtered_triples(pres, [0] * pres.n, 1))


def test_class_2_lists_no_overlap_test(monkeypatch):
    # every test weighs at least 3, so for c <= 2 the scan builds no generator
    def no_generator(self, j):
        raise AssertionError(f"generator {j} built")

    pres = [build_heisenberg(3), PcPresentation.build(3, 5), _class2(3, 10, 40)[0]]
    weights = [_weights(q) for q in pres]
    assert [max(w) for w in weights] == [2, 1, 2]
    monkeypatch.setattr(PcPresentation, "generator", no_generator)
    for q, w in zip(pres, weights):
        assert list(_overlap_triples(q, w)) == []


def test_class_2_in_any_order_checks_at_once():
    # a_1^3 = a_2 and [a_4, a_3] = a_5, [a_7, a_6] = a_8, ...: non-decreasing
    # weights double every third generator and would leave about n^3/6 tests
    n = 101
    comm = {(k + 1, k): {k + 2: 1} for k in range(3, n - 1, 3)}
    pres = PcPresentation.build(3, n, power={1: {2: 1}}, comm=comm)
    assert max(_weights(pres)) == 2
    start = time.perf_counter()
    assert consistency_check(pres).ok
    assert time.perf_counter() - start < 0.05


def test_check_builds_a_collector_only_for_a_test(monkeypatch):
    built, init, class3 = [], _Collector.__init__, build_tower_truncation(3, 4)
    monkeypatch.setattr(_Collector, "__init__", lambda self, pres: built.append(init(self, pres)))
    # a collector holds O(n) rows, so a check with no test left builds none
    for pres in (build_heisenberg(3), PcPresentation.build(3, 5), _class2(3, 10, 40)[0]):
        assert consistency_check(pres).ok and consistency_check(pres, exhaustive=False).ok
    assert built == []
    # one for the class-3 tests, and one for the table alone of a class-2 check
    assert consistency_check(class3).ok and len(built) == 1
    assert consistency_check(build_heisenberg(3), exhaustive=True).ok and len(built) == 2


def test_order_3_40_class_2_load_is_fast():
    pres = _class2(3, 10, 40)[0]
    start = time.perf_counter()
    # the full scan ran 11,480 overlap tests in about 0.25 s; class 2 needs none
    PcGroup(pres, cap=3**40)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("power, comm", [([], []), ([{"j": 1, "rhs": {"3000": 1}}],
                                                    [{"j": 2, "i": 1, "rhs": {"3": 1}}])])
def test_wide_presentation_check_is_fast_and_small(power, comm):
    # storing all n(n-1)/2 relations took 1.6 s, and 76 MB traced, at n = 1,000
    data = {"p": 3, "n": 3000, "power": power, "comm": comm}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert consistency_check(PcPresentation.from_json_dict(data)).ok
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.3 and peak < 10 * 2**20


@pytest.mark.parametrize("n, seconds", [(100, 0.1), (200, 0.1), (3000, 0.3)])
def test_falling_least_weights_check_is_fast_and_small(n, seconds):
    # a_3 has weight 3 and a_4..a_n weight 1 by their relations alone: the full
    # scan ran then, 9.5 s and 304 MB traced at n = 100, past 2 GB at n = 200;
    # the one test left needs a_1 only, not all n generators as n-tuples
    data = {"p": 3, "n": n, "power": [{"j": 1, "rhs": {"2": 1}}, {"j": 2, "rhs": {"3": 1}}]}
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert consistency_check(PcPresentation.from_json_dict(data)).ok
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < seconds and peak < 20 * 2**20


def test_collector_caches_are_bounded(monkeypatch):
    bad = PcPresentation.build(2, 4, comm={(2, 1): {3: 1}, (3, 1): {4: 1}})
    cases = [(pres, consistency_check(pres, exhaustive=True))
             for pres in (build_tower_truncation(3, 4), bad)]
    monkeypatch.setattr("ramify.pcgroup._CACHE_LIMIT", 16)
    sizes, collect = [], _Collector._collect

    def watched(self, v, stack):  # runs just before a product is cached
        sizes.append(len(self._cache))
        return collect(self, v, stack)

    monkeypatch.setattr(_Collector, "_collect", watched)
    for pres, verdict in cases:
        assert consistency_check(pres, exhaustive=True) == verdict
    assert max(sizes) == 15
    g = PcGroup(build_tower_truncation(3, 4), _checked=True)
    for x in g.elements():
        assert g.product(x, g.inverse(x)) == g.identity()
        assert len(g._coll._inv_cache) <= 16
    assert max(sizes) == 15


def test_group_load_builds_no_product_table():
    # a class-2 load runs no overlap test (the full scan collected 26 products),
    # a class-3 load only those of weight at most 3 (the full scan collected 48)
    assert len(_heis(5)._coll._cache) == 0
    assert 0 < len(PcGroup(build_tower_truncation(3, 4))._coll._cache) < 48
    # the cap error of the retired default table remains, up to order 256 only
    with pytest.raises(CapExceededError, match="table of 125\\^2 products"):
        consistency_check(build_heisenberg(5), cap=100)
    assert consistency_check(PcPresentation.build(2, 9), cap=100).ok
    assert consistency_check(build_heisenberg(5), exhaustive=False, cap=100).ok


# -- series, subgroups, rank ------------------------------------------------------


def test_heisenberg_series():
    g = _heis(3)
    gamma = g.lower_central_series()
    pser = g.lower_p_series()
    assert [s.order for s in gamma] == [27, 3, 1]
    assert [s.order for s in pser] == [27, 3, 1]
    rep = g.series_equality_check()
    assert rep["all_equal"]
    assert rep["gp_in_derived"]


def _cyclic9():
    return PcGroup(PcPresentation.build(3, 2, power={1: {2: 1}}))


def test_cyclic_p_squared_series_differ():
    g = _cyclic9()
    assert [s.order for s in g.lower_p_series()] == [9, 3, 1]
    assert [s.order for s in g.lower_central_series()] == [9, 1]
    rep = g.series_equality_check()
    assert not rep["all_equal"]
    gamma = [lvl["gamma_order"] for lvl in rep["levels"]]
    pser = [lvl["p_order"] for lvl in rep["levels"]]
    assert gamma == [9, 1, 1]
    assert pser == [9, 3, 1]
    assert not rep["levels"][1]["equal"]


def test_p_series_reuses_the_lower_central_series(monkeypatch):
    # P_(m+1) is the normal closure of gamma_(m+2) and p-th powers: no commutator
    for g in (_heis(3), _cyclic9()):
        g.lower_central_series()
        calls = []
        commutator = g.commutator
        monkeypatch.setattr(g, "commutator", lambda x, y: calls.append(1) or commutator(x, y))
        g.lower_p_series()
        assert len(calls) == 0


def test_elementary_abelian_series():
    g = PcGroup(PcPresentation.build(5, 2))
    assert [s.order for s in g.lower_central_series()] == [25, 1]
    assert [s.order for s in g.lower_p_series()] == [25, 1]


def test_subgroup_closures():
    g = _heis(3)
    center = g.subgroup([g.generator(3)])
    assert center.order == 3
    assert center.is_normal()
    closure = g.normal_closure([g.generator(2)])
    assert closure.order == 9
    assert g.generator(3) in closure
    assert g.subgroup([]).order == 1
    off_axis = g.subgroup([g.generator(1)])
    assert off_axis.order == 3
    assert not off_axis.is_normal()


def test_min_generators_and_frattini():
    g = _heis(7)
    full = g.full_subgroup()
    assert g.frattini_subgroup(full).order == 7
    assert g.min_generators(full) == 2
    assert g.min_generators(g.trivial_subgroup()) == 0
    two_gen = g.subgroup([g.generator(2), g.generator(3)])
    assert two_gen.order == 49
    assert g.min_generators(two_gen) == 2


# -- tower truncations --------------------------------------------------------------


def test_shipped_registry_contents():
    assert shipped_truncations() == [
        (2, 3),
        (3, 3),
        (5, 3),
        (7, 3),
        (3, 4),
        (5, 4),
        (7, 4),
    ]


def test_shipped_truncations_build():
    for p, depth in shipped_truncations():
        pres = build_tower_truncation(p, depth)
        assert pres.order == p**depth


def test_depth_five_rejected_small_primes():
    for p in (2, 3, 5, 7):
        with pytest.raises(InconsistentPresentationError):
            build_tower_truncation(p, 5)


def test_truncation_policy_validation():
    with pytest.raises(InputError):
        build_tower_truncation(3, 4, policy="guess")
    with pytest.raises(InputError):
        # trivial-fill accepts no assignments
        build_tower_truncation(3, 4, comm={(3, 1): {4: 1}})
    with pytest.raises(InputError):
        # the chain relations cannot be overridden even under the table policy
        build_tower_truncation(3, 4, policy="table", comm={(3, 2): {4: 1}})
    with pytest.raises(InputError):
        build_tower_truncation(3, 1)


def test_just_infinite_probe_shape():
    g = PcGroup(build_tower_truncation(3, 4))
    rep = g.just_infinite_probe([1, 2, 3, 4])
    assert rep["ok"]
    assert all(pair["contained"] for pair in rep["pairs"])
    with pytest.raises(InputError):
        g.just_infinite_probe([0, 1])


def test_rank_growth_probe_fixture():
    g = PcGroup(build_tower_truncation(3, 4))
    rep = g.rank_growth_probe(1)
    assert rep["indices"] == [3, 4]
    assert rep["order"] == 9
    assert rep["min_generators"] == 2
    with pytest.raises(InputError):
        g.rank_growth_probe(2)  # needs depth >= 6


def test_abelianization_map_is_onto():
    # exponent sums on the first two generators give the Frattini quotient
    for p, depth in [(3, 4), (5, 4)]:
        g = PcGroup(build_tower_truncation(p, depth))
        assert g.min_generators(g.full_subgroup()) == 2
        images = {(x[0] % p, x[1] % p) for x in g.elements()}
        assert len(images) == p * p


# -- subgroups grown from generators against the element-set algorithms ---------


def test_subgroup_equality_by_elements():
    g = _heis(3)
    a1, a2, a3 = g.generator(1), g.generator(2), g.generator(3)
    assert g.subgroup([a1, a2]) == g.subgroup([a2, a1])
    assert g.normal_closure([a2]) == g.subgroup([a2, a3])
    assert g.subgroup([a1]) != g.subgroup([a2])
    assert (g.trivial_subgroup() == 1) is False


def _ref_closure(g, seed):
    """Product BFS over every element of the seed."""
    closure, queue = {g.identity()}, [g.identity()]
    while queue:
        x = queue.pop()
        for s in seed:
            y = g.product(x, s)
            if y not in closure:
                closure.add(y)
                queue.append(y)
    return frozenset(closure)


def _ref_conjugates(g, seed, by):
    """Close ``seed`` under conjugation by ``by`` (a BFS over elements)."""
    seen, queue = set(seed), list(seed)
    while queue:
        x = queue.pop()
        for a in by:
            c = g.product(g.product(g.inverse(a), x), a)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return sorted(seen)


def _ref_normal_closure(g, seed):
    return _ref_closure(g, _ref_conjugates(g, seed, g.pc_generators()))


def _ref_series(g, powers):
    """[H, G] (times H^p) from every element x of H: <[x, a], x^p>^G."""
    series = [frozenset(g.elements())]
    while len(series[-1]) > 1:
        h = sorted(series[-1])
        seed = [g.commutator(x, a) for x in h for a in g.pc_generators()]
        if powers:
            seed += [g.power_p(x) for x in h]
        series.append(_ref_normal_closure(g, seed))
    return series


def _ref_series_report(g, gamma, pser):
    depth = max(len(gamma), len(pser))
    trivial = [frozenset({g.identity()})]
    levels = [{"gamma_order": len(c), "p_order": len(q), "equal": c == q}
              for c, q in zip(gamma + trivial * (depth - len(gamma)),
                              pser + trivial * (depth - len(pser)))]
    return {
        "levels": levels,
        "all_equal": all(level["equal"] for level in levels),
        "gp_in_derived": all(g.power_p(x) in gamma[1] for x in g.elements()),
        "gamma_orders": [len(s) for s in gamma],
        "p_orders": [len(s) for s in pser],
    }


def _ref_frattini(g, h, hgens):
    """H^p [H, H] from p-th powers and commutators of every element of H."""
    seed = {g.power_p(x) for x in h} | {g.commutator(x, a) for x in h for a in hgens}
    return _ref_closure(g, _ref_conjugates(g, seed, hgens))


def _ref_is_normal(g, h):
    return all(g.product(g.product(g.inverse(a), x), a) in h
               for a in g.pc_generators() for x in h)


@st.composite
def _consistent_groups_with_gens(draw, prime=None):
    """A consistent group of order at most 243 and 0-3 random elements; with
    ``prime``, a group of order prime^n, n >= 3."""
    p, n = draw(st.sampled_from([(p, n) for p in (2, 3, 5) for n in range(1, 8) if p**n <= 243
                                 and prime in (None, p) and n >= (3 if prime else 1)]))

    def rhs(j):
        if j == n or draw(st.booleans()):
            return {}
        return dict(draw(st.lists(st.tuples(st.integers(j + 1, n), st.integers(1, p - 1)),
                                  max_size=2)))

    power = {j: rhs(j) for j in range(1, n + 1)}
    comm = {(j, i): rhs(j) for j in range(2, n + 1) for i in range(1, j)}
    pres = PcPresentation.build(p, n, power, comm)
    assume(consistency_check(pres).ok)
    element = st.tuples(*[st.integers(0, p - 1)] * n)
    return PcGroup(pres), draw(st.lists(element, max_size=3)), draw(st.booleans())


# class 3: the Frattini subgroup of <a_1, a_2> needs the conjugates of [a_2, a_1]
@example(case=(PcGroup(build_tower_truncation(3, 4)), [(1, 0, 0, 0), (0, 1, 0, 0)], False))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_consistent_groups_with_gens())
def test_span_matches_element_set_algorithms(case):
    g, gens, normal = case
    sub = g.subgroup(gens, normal=normal)
    ref = _ref_normal_closure(g, gens) if normal else _ref_closure(g, gens)
    assert sub.elements == ref
    assert sub.is_normal() == _ref_is_normal(g, ref)
    phi = _ref_frattini(g, ref, sorted(ref))
    assert g.frattini_subgroup(sub).elements == phi
    quotient, dim = len(ref) // len(phi), 0
    while quotient > 1:
        quotient //= g.p
        dim += 1
    assert g.min_generators(sub) == dim
    # both series term by term, the p-series being spanned from the gamma terms
    gamma, pser = _ref_series(g, False), _ref_series(g, True)
    assert [s.elements for s in g.lower_central_series()] == gamma
    assert [s.elements for s in g.lower_p_series()] == pser
    assert g.series_equality_check() == _ref_series_report(g, gamma, pser)


@st.composite
def _class_3_groups_with_gens(draw):
    """A consistent group of class at least 3 with a power relation, p in {2, 3, 5},
    0-3 elements and a kernel seed.  Searched from a drawn seed, as few random
    relations keep a class-3 presentation consistent: a chain [a_j, a_1] =
    a_(j+1)..., random rhs on every commutator into a_n and on powers anywhere."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    while True:
        p, n = rng.choice([(2, 4), (2, 4), (3, 4), (3, 4), (5, 4)])

        def rhs(j, lo):
            gens = range(max(lo, j + 1), n + 1) if rng.random() < 0.5 else ()
            return {k: rng.randint(1, p - 1) for k in gens if rng.random() < 0.5}

        power = {j: rhs(j, 1) for j in range(1, n + 1)}
        comm = {(j, i): rhs(j, n) for j in range(2, n + 1) for i in range(1, j)}
        for j in range(2, n):
            comm[j, 1][j + 1] = 1
        pres = PcPresentation.build(p, n, power, comm)
        if any(power.values()) and consistency_check(pres).ok:
            g = PcGroup(pres)
            pcg = g.pc_generators()  # class >= 3: a [[a, b], c] is not 1
            if any(any(g.commutator(g.commutator(a, b), c)) for a in pcg for b in pcg for c in pcg):
                break
    element = st.tuples(*[st.integers(0, p - 1)] * n)
    return g, draw(st.lists(element, max_size=3)), draw(st.lists(element, max_size=2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_class_3_groups_with_gens())
def test_skipped_words_match_element_sets(case):
    """Spans that drop pending words by the tail and support tests, against
    the element sets: closures, normal closures, Frattini subgroups, both
    series, and both spans on a quotient."""
    g, gens, kernel_seed = case
    for sub, ref in [(g.subgroup(gens), _ref_closure(g, gens)),
                     (g.normal_closure(gens), _ref_normal_closure(g, gens))]:
        assert sub.elements == ref
        # the rows generate H, as it has their p^rank normal words
        assert g.frattini_subgroup(sub).elements == _ref_frattini(g, ref, sub.rows)
    assert [s.elements for s in g.lower_central_series()] == _ref_series(g, False)
    assert [s.elements for s in g.lower_p_series()] == _ref_series(g, True)
    quot = CosetGroup(g, g.normal_closure(kernel_seed))
    images = [quot.project(x) for x in gens]
    assert span(quot, images).elements == _ref_closure(quot, images)
    assert span(quot, images, quot.pc_generators()).elements == _ref_normal_closure(quot, images)


def _class2_order_3_8():
    """Four top generators, [a_j, a_i] cycling over the four central ones."""
    pairs = [(j, i) for j in range(2, 5) for i in range(1, j)]
    return PcGroup(PcPresentation.build(3, 8, comm={
        pair: {5 + idx % 4: 1} for idx, pair in enumerate(pairs)
    }))


def test_series_collect_from_generators_only():
    g = _class2_order_3_8()
    before = len(g._coll._cache)
    rep = g.series_equality_check()
    assert rep["gamma_orders"] == rep["p_orders"] == [3**8, 3**4, 1]
    # the element-set series collected 13,835 products here, more than |G|, and
    # spans collecting every conjugate, commutator and p-th power 212, and
    # inverses collecting the identity times their first step 47
    assert len(g._coll._cache) - before == 43


# class 3, where a class needs more than one depth to descend, and class 2 with
# two rows of one value at a depth, the second made 0 by a power of the first
@example(case=(PcGroup(build_tower_truncation(3, 4)), [(1, 0, 0, 0), (0, 1, 1, 0)], False))
@example(case=(_class2_order_3_8(), [(0, 0, 1, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 1, 0, 0)], False))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_consistent_groups_with_gens())
def test_cap_message_matches_listed_conjugates(case):
    g, gens, _ = case
    pcg = g.pc_generators()
    central = g.lower_central_series()[-2].rows[-1]  # in the last nontrivial term
    # conjugate, repeated and central elements beside the drawn ones
    seed = gens + [central] + [g.conjugate(x, pcg[0]) for x in gens[:1]] + gens[:1]
    for x in set(seed):
        listed = _ref_conjugates(g, [x], pcg)
        canonical, size = _conjugacy_class(g, x)
        assert size == len(listed) and canonical in listed
        assert {_conjugacy_class(g, y)[0] for y in listed} == {canonical}
    # the rule the listing applied: the conjugates pass max(cap, distinct seed elements)
    conjugates, distinct = len(_ref_conjugates(g, seed, pcg)), len(set(seed))
    closure = len(_ref_normal_closure(g, seed))
    for cap in {1, 2, distinct - 1, distinct, conjugates - 1, conjugates, closure - 1}:
        if not 1 <= cap < closure:
            continue
        with pytest.raises(CapExceededError) as exc:
            PcGroup(g.pres, cap=cap, _checked=True).subgroup(seed, normal=True)
        which = "normal" if conjugates > max(cap, distinct) else "subgroup"
        assert str(exc.value) == f"{which} closure exceeds enumeration cap"


def test_cap_message_at_the_default_cap_is_fast_and_small(tmp_path, capsys, monkeypatch):
    # a_1 of this class-2 group on 43 generators has 2^21 conjugates; listing
    # them up to the default cap did not finish in 300 s
    k = 21
    data = {"p": 2, "n": 2 * k + 1,
            "comm": [{"j": j, "i": 1, "rhs": {str(j + k): 1}} for j in range(2, k + 2)]}
    path = tmp_path / "class2_43.json"
    path.write_text(json.dumps(data))
    monkeypatch.delenv("RAMIFY_CAP", raising=False)
    argv = ["group", "closure", "--file", str(path), "--gens", json.dumps([[1] + [0] * 2 * k]),
            "--normal"]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(argv)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and "normal closure exceeds enumeration cap" in capsys.readouterr().err
    assert elapsed < 1 and peak < 64 * 2**20


# -- induced pcgs: sifting against the element sets ------------------------------


def test_probes_reject_bools():
    g = PcGroup(build_tower_truncation(3, 4))
    with pytest.raises(InputError):
        g.just_infinite_probe([True, 2, 3])
    g = _class2_order_3_8()
    with pytest.raises(InputError):
        g.rank_growth_probe(True)


@st.composite
def _groups_with_two_spans(draw):
    """A group from _consistent_groups_with_gens, a second seed and a kernel seed."""
    g, gens, normal = draw(_consistent_groups_with_gens())
    element = st.tuples(*[st.integers(0, g.p - 1)] * g.pres.n)
    return g, gens, normal, draw(st.lists(element, max_size=3)), draw(st.lists(element, max_size=2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_groups_with_two_spans())
def test_sifting_matches_element_sets(case):
    g, gens, normal, others, kernel_seed = case
    sub = g.subgroup(gens, normal=normal)
    ref = _ref_normal_closure(g, gens) if normal else _ref_closure(g, gens)
    assert sub.order == len(ref)
    assert all((x in sub) == (x in ref) for x in g.elements())
    # another induced pcgs of the same subgroup, and subgroups with other elements
    alternative = g.subgroup(list(reversed(gens)) + [g.product(x, y) for x in gens for y in gens])
    assert alternative == g.subgroup(gens)
    _assert_equal_iff_same_elements(
        [sub, alternative, g.subgroup(others), g.subgroup(others, normal=True)])
    series = _ref_series(g, False)
    assert all(g.element_length(x) == sum(x in term for term in series) for x in g.elements())
    # the same sifting on a quotient, against a product BFS there
    quot = CosetGroup(g, g.normal_closure(kernel_seed))
    images = [quot.project(x) for x in gens]
    qsubs = [span(quot, images), span(quot, images, quot.pc_generators())]
    for qsub, qref in zip(qsubs, (_ref_closure(quot, images), _ref_normal_closure(quot, images))):
        assert qsub.elements == qref
        assert qsub.order == len(qref)
        assert all((c in qsub) == (c in qref) for c in quot.elements())
    products = [quot.product(x, y) for x in images for y in images]
    _assert_equal_iff_same_elements(
        qsubs + [span(quot, images[::-1] + products), span(quot, quot.pc_generators()),
                 span(quot, [quot.project(x) for x in others])])


def _assert_equal_iff_same_elements(subs):
    """Subgroups of one group are equal iff their element sets are, and
    equal subgroups hash equal."""
    for a in subs:
        for b in subs:
            assert (a == b) == (a.elements == b.elements)
            assert a != b or hash(a) == hash(b)


def _sift_depth_by_depth(sub, x):
    """The plain sift: x times the row's (p - x[d])-th power at every row
    depth d where x is nonzero, one product per factor."""
    g, rows = sub.group, dict(zip(sub.depths, sub.rows))
    for d in range(len(x)):
        if x[d] and d in rows:
            for _ in range(g.p - x[d]):
                x = g.product(x, rows[d])
    return x


@st.composite
def _subgroups_for_sifting(draw):
    """Subgroups of a group G and of a quotient of it, with and without a
    tail G_t = <a_t, ..., a_n>, and elements of G to sift."""
    g, gens, normal, others, kernel_seed = draw(_groups_with_two_spans())
    n = g.pres.n
    tail = [g.generator(j) for j in range(draw(st.integers(1, n + 1)), n + 1)]
    quot = CosetGroup(g, g.normal_closure(kernel_seed))
    subs = [g.subgroup(gens, normal=normal), g.subgroup(gens + tail), g.full_subgroup(),
            g.trivial_subgroup(), quot.kernel, span(quot, quot.pc_generators())]
    subs += [span(quot, [quot.project(x) for x in seed]) for seed in (gens, gens + tail)]
    return subs, others + gens + tail


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_subgroups_for_sifting())
def test_sift_matches_depth_by_depth_loop(case):
    subs, xs = case
    for sub in subs:
        n = len(sub.group.identity())
        # from the tail on, every depth has a row
        tail = min(t for t in range(n + 1) if set(range(t, n)) <= set(sub.depths))
        assert sub._tail == tail
        project = getattr(sub.group, "project", lambda x: x)
        for x in [project(x) for x in xs] + list(sub.rows):
            assert sub.sift(x) == _sift_depth_by_depth(sub, x)


@st.composite
def _quotients_with_images(draw, p):
    """A quotient of a group from _consistent_groups_with_gens of order p^n
    by a kernel at the last depth or at a middle one, and its elements."""
    g, gens, _ = draw(_consistent_groups_with_gens(p))
    # a_n is central; the normal closure of a_k, 1 < k < n, starts at a middle depth
    kernel = g.normal_closure([g.generator(draw(st.integers(2, g.pres.n)))])
    return CosetGroup(g, kernel), gens


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_tails_match_product_closure(p, data):
    """On G/N, the element sets and sifts of spans of images against a
    product BFS."""
    quot, gens = data.draw(_quotients_with_images(p))
    images = [quot.project(x) for x in gens]
    full = span(quot, quot.pc_generators())
    assert full._tail == 0 and full.elements == frozenset(quot.elements())
    for sub, ref in [(span(quot, images), _ref_closure(quot, images)),
                     (span(quot, images, quot.pc_generators()), _ref_normal_closure(quot, images))]:
        assert sub.elements == ref
        for c in quot.elements():
            s = sub.sift(c)
            assert s == _sift_depth_by_depth(sub, c)
            # the sift stays in the coset cH, and is the identity iff c is in H
            assert quot.product(quot.inverse(c), s) in ref
            assert (s == quot.identity()) == (c in ref)


def _assert_quotient_multiplies_as_ambient(quot):
    """Q's collected products, lifted, are G's products sifted through N;
    project undoes lift, |Q| |N| = |G|, and Q's presentation is consistent."""
    g, kernel = quot.ambient, quot.kernel
    assert quot.order * kernel.order == g.order
    assert consistency_check(quot.pres).ok
    for x in quot.elements():
        assert quot.project(quot.lift(x)) == x
        for y in quot.elements():
            assert quot.lift(quot.product(x, y)) == kernel.sift(
                g.product(quot.lift(x), quot.lift(y)))


# Heisenberg times C_3 modulo <a_3 a_4>: the kernel's row is no unit vector
_HEIS_C3 = PcGroup(PcPresentation.build(3, 4, comm={(2, 1): {3: 1}}))


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_product_matches_ambient_product(p, data):
    quot, _ = data.draw(_quotients_with_images(p))
    _assert_quotient_multiplies_as_ambient(quot)


def test_quotients_of_heisenberg_times_c3_multiply_as_ambient():
    g = _HEIS_C3
    diagonal = g.normal_closure([(0, 0, 1, 1)])
    assert diagonal.rows == ((0, 0, 1, 1),)
    for kernel in (diagonal, g.trivial_subgroup(), g.full_subgroup()):
        _assert_quotient_multiplies_as_ambient(CosetGroup(g, kernel))
    # the kernel of the same presentation loaded again belongs to another group
    with pytest.raises(InputError, match="^kernel must be a subgroup of the given group$"):
        CosetGroup(g, PcGroup(g.pres).trivial_subgroup())


def _is_normal_unskipped(sub):
    g = sub.group
    return all(g.product(g.product(g.inverse(a), x), a) in sub
               for a in g.pc_generators() for x in sub.rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_groups_with_two_spans())
def test_is_normal_matches_unskipped_loop(case):
    """``is_normal`` skips rows in the tail and pairs with commuting
    supports; on normal and non-normal subgroups of G and of a quotient it
    agrees with the loop over every row and pc generator."""
    g, gens, normal, others, kernel_seed = case
    quot = CosetGroup(g, g.normal_closure(kernel_seed))
    subs = [g.subgroup(gens, normal=normal), g.subgroup(others), g.subgroup(gens + others)]
    # cyclic subgroups, of which some are not normal
    subs += [g.subgroup([x]) for x in gens + others + list(g.pc_generators())]
    subs += [span(quot, [x]) for x in quot.pc_generators()]
    for sub in subs:
        assert sub.is_normal() == _is_normal_unskipped(sub)


def test_probes_collect_few_products():
    g = _class2_order_3_8()
    before = len(g._coll._cache)
    assert g.rank_growth_probe(2)["order"] == 3**6
    # the element-set span collected 3,624 products here, and spans collecting
    # every conjugate, commutator and p-th power 88, and with inverses that
    # collect the identity times their first step 21
    assert len(g._coll._cache) - before == 19
    g = _class2_order_3_8()
    before = len(g._coll._cache)
    g.just_infinite_probe(range(1, 9))
    # and 961, 168 and 66 here
    assert len(g._coll._cache) - before == 62


def _class2(p, top, n):
    """``top`` generators whose commutators [a_j, a_i] cycle over the n - top
    central ones, and the map (j, i) -> the index of [a_j, a_i]."""
    pairs = [(j, i) for j in range(2, top + 1) for i in range(1, j)]
    central = {pair: top + 1 + idx % (n - top) for idx, pair in enumerate(pairs)}
    return PcPresentation.build(p, n, comm={pair: {c: 1} for pair, c in central.items()}), central


def test_full_span_of_order_3_10_is_fast():
    g = PcGroup(_class2(3, 5, 10)[0])
    start = time.perf_counter()
    # the element-set span took 7.25 s and collected 236,488 products
    assert g.subgroup(g.pc_generators()).order == 3**10
    assert time.perf_counter() - start < 0.05


def test_cli_on_order_3_40(tmp_path, capsys, monkeypatch):
    top, n = 10, 40
    pres, central = _class2(3, top, n)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(pres.to_json_dict()))

    def run(*argv):
        code = main([*argv, "--file", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # under the default cap the whole group is a subgroup above the cap
    monkeypatch.delenv("RAMIFY_CAP", raising=False)
    code, _, err = run("group", "series")
    assert code == 4 and "exceeds enumeration cap" in err
    monkeypatch.setenv("RAMIFY_CAP", str(3**37))
    code, _, err = run("group", "rank", "--k", "2")
    assert code == 4 and "subgroup closure exceeds enumeration cap" in err

    monkeypatch.setenv("RAMIFY_CAP", str(3**40))
    code, out, _ = run("group", "series")
    assert code == 0
    # every central generator is some [a_j, a_i], and x^3 = 1 throughout
    assert json.loads(out)["gamma_orders"] == json.loads(out)["p_orders"] == [3**40, 3**30, 1]
    code, out, _ = run("group", "rank", "--k", "2")
    assert code == 0
    top_kept = {2, 3} | set(range(5, top + 1))
    phi_rank = len({c for (j, i), c in central.items() if {i, j} <= top_kept})
    assert json.loads(out) == {"indices": [2, 3, *range(5, n + 1)], "k": 2,
                               "order": 3**38, "min_generators": 38 - phi_rank}
    code, out, _ = run("group", "probe")
    assert code == 0
    # the normal closure of a_j holds a later generator only if it is some [a_j, a_i]
    for pair in json.loads(out)["pairs"]:
        j, later = pair["generator"], pair["later"]
        assert pair["contained"] == any(j in ji and c == later for ji, c in central.items())


# -- the vector-and-stack collector against word rewriting ------------------------


class _RewritingCollector:
    """Reference: the word of [gen, exp] pairs rewritten in place, always at
    its leftmost out-of-order letter (an exponent at p or above, or a
    letter not above the one before it), until it is a normal form."""

    def __init__(self, pres):
        self.pres = pres

    def _collect(self, word):
        p, pres = self.pres.p, self.pres
        pos = 0
        while True:
            if pos > 0 and (pos >= len(word) or word[pos - 1][0] >= word[pos][0]):
                pos -= 1  # re-examine the junction a rewrite may have disturbed
            k = pos
            while k < len(word):
                g, e = word[k]
                if e >= p or (k + 1 < len(word) and word[k + 1][0] <= g):
                    break
                k += 1
            else:
                break  # normal
            pos = k
            g, e = word[k]
            if e >= p:
                # a_g^e = a_g^(e-p) * (a_g^p as a word in later generators)
                rhs = [[gk, ge] for gk, ge in pres.power_rhs(g)]
                word[k : k + 1] = ([[g, e - p]] if e > p else []) + rhs
                continue
            g2, e2 = word[k + 1]
            if g2 == g:
                word[k][1] = e + e2
                del word[k + 1]
                continue
            # g > g2: peel one a_g2 to the left across one a_g
            word[k : k + 2] = (([[g, e - 1]] if e > 1 else []) + [[g2, 1], [g, 1]]
                               + [[gk, ge] for gk, ge in pres.comm_rhs(g, g2)]
                               + ([[g2, e2 - 1]] if e2 > 1 else []))
        out = [0] * pres.n
        for g, e in word:
            out[g - 1] = e
        return tuple(out)

    def product(self, x, y):
        return self._collect([[j + 1, e] for z in (x, y) for j, e in enumerate(z) if e])


@st.composite
def _presentations_with_pairs(draw):
    """Random presentations over p in {2, 3, 5}, n <= 6, consistent or not,
    and element pairs to multiply."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 6))

    def rhs(j):
        if j == n or draw(st.integers(0, 4)) < 2:
            return {}
        return dict(draw(st.lists(st.tuples(st.integers(j + 1, n), st.integers(1, p - 1)),
                                  min_size=1, max_size=3)))

    pres = PcPresentation.build(p, n, {j: rhs(j) for j in range(1, n + 1)},
                                {(j, i): rhs(j) for j in range(2, n + 1) for i in range(1, j)})
    element = st.tuples(*[st.integers(0, p - 1)] * n)
    return pres, draw(st.lists(st.tuples(element, element), min_size=1, max_size=20))


@example(case=(PcPresentation.build(2, 4, comm={(2, 1): {3: 1}, (3, 1): {4: 1}}),
               [((1, 1, 1, 1), (1, 1, 1, 1))]))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_presentations_with_pairs())
def test_collector_matches_word_rewriting(case):
    pres, pairs = case
    coll, ref = PcGroup(pres, _checked=True)._coll, _RewritingCollector(pres)
    for x, y in pairs:
        assert coll.product(x, y) == ref.product(x, y)
    fast, slow = consistency_check(pres), consistency_check(pres, coll=ref)
    assert (fast.ok, fast.witness, fast.detail) == (slow.ok, slow.witness, slow.detail)


def test_collection_step_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("ramify.pcgroup._MAX_COLLECT_STEPS", 2)
    # a class-3 load meets the limit in its overlap tests; a class-2 load
    # runs none, so its series meets it
    with pytest.raises(CapExceededError, match="^collection step limit exceeded$"):
        PcGroup(PcPresentation.build(3, 4, comm={(2, 1): {3: 1}, (3, 2): {4: 1}}))
    with pytest.raises(CapExceededError, match="^collection step limit exceeded$"):
        _heis(3).lower_central_series()
    # a class-3 load whose reduced scan passes the limit: the full scan then
    # runs for a witness and meets the limit at the same product
    stopped, collect = [], _Collector._collect

    def counting(self, v, stack):
        try:
            return collect(self, v, stack)
        except CapExceededError:
            stopped.append(v)
            raise

    monkeypatch.setattr(_Collector, "_collect", counting)
    with pytest.raises(CapExceededError, match="^collection step limit exceeded$"):
        PcGroup(PcPresentation.build(3, 4, power={1: {2: 1}, 2: {3: 1}}, comm={(2, 1): {3: 1}}))
    assert stopped == [[1, 0, 0, 0]] * 2
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(build_heisenberg(3).to_json_dict()))
    assert main(["group", "series", "--file", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"code": "cap-exceeded",
                                        "error": "collection step limit exceeded"}


def _collect_row_words(g, rows):
    """Collect each row's p-th power and its conjugate by every pc generator."""
    for x in rows:
        g.power_p(x)
        for a in g.pc_generators():
            g.conjugate(x, a)


@st.composite
def _closures_past_a_lowered_step_limit(draw):
    """A group of order p^4, p in {3, 5}, seeds and a step limit in 5-10 at which
    the seeds' normal closure finishes, while collecting every p-th power and
    pc-generator conjugate of its rows passes that limit.  Searched from a drawn
    seed; each try collects on a fresh collector, so no cached product hides one.
    About one try in twenty gives such a closure while span drops words."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(400):
        p, n = rng.choice([3, 5]), 4

        def rhs(j):
            if j == n or rng.random() < 0.5:
                return {}
            return {k: rng.randint(1, p - 1) for k in range(j + 1, n + 1) if rng.random() < 0.5}

        power = {j: rhs(j) for j in range(1, n + 1)}
        comm = {(j, i): rhs(j) for j in range(2, n + 1) for i in range(1, j)}
        pres = PcPresentation.build(p, n, power, comm)
        if not consistency_check(pres).ok:
            continue
        gens = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        with pytest.MonkeyPatch.context() as mp:
            for limit in range(5, 11):
                mp.setattr(pcgroup, "_MAX_COLLECT_STEPS", limit)
                try:
                    g = PcGroup(pres, _checked=True)
                    rows = span(g, gens, g.pc_generators()).rows
                except CapExceededError:
                    continue
                try:
                    _collect_row_words(PcGroup(pres, _checked=True), rows)
                except CapExceededError:
                    return pres, gens, limit
                break
    pytest.fail("no closure finished past a collection it skipped")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=_closures_past_a_lowered_step_limit())
def test_dropped_words_past_the_step_limit_leave_the_closure(case):
    """A normal closure whose only products past the step limit are words its
    tail and support tests drop finishes, and equals the closure at the default
    limit: same depths, same elements."""
    pres, gens, limit = case
    g = PcGroup(pres)
    ref = span(g, gens, g.pc_generators())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcgroup, "_MAX_COLLECT_STEPS", limit)
        low = PcGroup(pres, _checked=True)
        sub = span(low, gens, low.pc_generators())
        with pytest.raises(CapExceededError, match="^collection step limit exceeded$"):
            _collect_row_words(PcGroup(pres, _checked=True), sub.rows)
    assert sub.depths == ref.depths and sub.elements == ref.elements


def test_presentation_rows_name_bad_indices():
    def load(**rows):
        return PcPresentation.from_json_dict({"p": 3, "n": 3, **rows})

    with pytest.raises(InputError) as exc:
        load(comm=[{"j": "x", "i": 1, "rhs": {}}])
    assert str(exc.value) == "bad presentation: comm[0] \"j\" must be an integer, got 'x'"
    with pytest.raises(InputError) as exc:
        load(power=[{"j": 1}, {"j": 2.7}])
    assert str(exc.value) == "bad presentation: power[1] \"j\" must be an integer, got 2.7"
    # rhs keys are plain ASCII decimals (or ints from Python callers), nothing else
    for key in ("1_0", " 3", "3 ", "+3", "-3", "３", "³", True, 3.0, "9" * 5000):
        with pytest.raises(InputError, match="is not a generator index"):
            load(comm=[{"j": 2, "i": 1, "rhs": {key: 1}}])
    for key in ("3", "03", 3):
        assert load(comm=[{"j": 2, "i": 1, "rhs": {key: 1}}]) == build_heisenberg(3)


def test_presentation_rejects_repeated_rows():
    def error(**rows):
        with pytest.raises(InputError) as exc:
            PcPresentation.from_json_dict({"p": 3, "n": 3, **rows})
        return str(exc.value)

    # else the later row would replace the earlier one, and this load the abelian group
    assert (error(comm=[{"j": 2, "i": 1, "rhs": {"3": 1}}, {"j": 2, "i": 1, "rhs": {}}])
            == "bad presentation: comm[1] repeats the relation [a_2, a_1]")
    assert (error(power=[{"j": 1}, {"j": 2}, {"j": 1, "rhs": {"3": 2}}])
            == "bad presentation: power[2] repeats the relation a_1^p")
    # the repeating row's own checks come first
    assert (error(comm=[{"j": 2, "i": 1}, {"j": 2, "i": 1, "rhs": {"x": 1}}])
            == "bad presentation: comm[1] \"rhs\" key 'x' is not a generator index")
    assert error(comm=[{"j": 2, "i": 1}, {"j": 2}]) == 'bad presentation: comm[1] lacks "i"'
    # a power row and commutator rows sharing a j are different relations
    pres = PcPresentation.from_json_dict({"p": 3, "n": 3, "power": [{"j": 2}],
                                          "comm": [{"j": 2, "i": 1}, {"j": 3, "i": 2}]})
    assert pres == PcPresentation.build(3, 3)
