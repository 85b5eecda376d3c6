"""Unit tests for break filtrations and their quotient identity."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramify import (
    CosetGroup,
    InputError,
    PcGroup,
    PcPresentation,
    RamFiltration,
    ValidationReport,
    build_heisenberg,
    build_tower_truncation,
    invert,
    quotient_filtration,
)
from ramify.pcgroup import span


def _heis_standard(p=3):
    g = PcGroup(build_heisenberg(p))
    ig = {}
    for x in g.elements():
        if x == g.identity():
            continue
        ig[x] = 5 if (x[0] == 0 and x[1] == 0) else 2
    return g, RamFiltration(g, ig)


def test_construction_validation():
    g = PcGroup(build_heisenberg(3))
    with pytest.raises(InputError):
        RamFiltration(g, {g.identity(): 3}, default=2)  # identity carries no value
    with pytest.raises(InputError):
        RamFiltration(g, {g.generator(1): 0}, default=2)  # values start at 1
    with pytest.raises(InputError):
        RamFiltration(g, {(9, 9, 9): 2}, default=2)  # not an element
    with pytest.raises(InputError):
        RamFiltration(g, {g.generator(1): F(3, 2)}, default=2)  # integer required
    with pytest.raises(InputError):
        RamFiltration(g, {g.generator(1): 2})  # missing values, no default


def test_default_fills_missing():
    g = PcGroup(build_heisenberg(3))
    center = {x for x in g.elements() if x[0] == 0 and x[1] == 0}
    rf = RamFiltration(g, {x: 5 for x in center if x != g.identity()}, default=2)
    assert rf.value_of(g.generator(1)) == 2
    assert rf.value_of(g.generator(3)) == 5
    assert rf.distinct_values() == [2, 5]
    assert rf.value_of(g.identity()) is None  # identity sits above every level


def test_level_sets_standard_profile():
    _, rf = _heis_standard()
    assert rf.level_set(0).order == 27
    assert rf.level_set(1).order == 27
    assert rf.level_set(2).order == 3
    assert rf.level_set(4).order == 3
    assert rf.level_set(5).order == 1
    assert rf.level_set(F(3, 2)) == rf.level_set(2)
    assert rf.lower_breaks() == [F(1), F(4)]


def test_validation_report_detects_bad_profile():
    g = PcGroup(build_heisenberg(3))
    ig = {}
    for x in g.elements():
        if x == g.identity():
            continue
        if x == (1, 0, 0) or (x[0] == 0 and x[1] == 0):
            ig[x] = 5
        else:
            ig[x] = 2
    rf = RamFiltration(g, ig, check=False)
    rep = rf.validate()
    assert not rep.ok
    assert rep.level == 4
    assert rep.witness == ((1, 0, 0), (1, 0, 0))
    assert rep.reason == "not closed under product"
    with pytest.raises(InputError):
        RamFiltration(g, ig)  # checking constructor rejects the same profile


def test_valid_profile_passes_validation():
    _, rf = _heis_standard()
    rep = rf.validate()
    assert rep.ok and rep.level is None and rep.witness is None


def test_herbrand_func_fixture():
    _, rf = _heis_standard()
    phi = rf.herbrand_func()
    assert phi.breakpoints == ((F(1), F(1)), (F(4), F(4, 3)))
    assert phi.slopes == (F(1), F(1, 9), F(1, 27))
    assert phi.eval(4) == F(4, 3)
    assert rf.upper_breaks() == [F(1), F(4, 3)]


def test_upper_level_fixtures():
    g, rf = _heis_standard()
    assert rf.upper_level(1).order == 27  # full group
    assert rf.upper_level(F(6, 5)) == rf.level_set(4)  # the center
    assert g.generator(3) in rf.upper_level(F(6, 5))
    assert rf.upper_level(2).order == 1  # beyond the last upper break
    with pytest.raises(InputError):
        rf.upper_level(-1)


def _elementary_abelian_profile(p, low, high):
    g = PcGroup(PcPresentation.build(p, 2))
    ig = {}
    for x in g.elements():
        if x == g.identity():
            continue
        ig[x] = high if x[0] == 0 else low
    return RamFiltration(g, ig)


def test_two_nested_level_profiles():
    for p in (2, 3, 5):
        # profile {2, 4}: the order-p subgroup jumps at 4, the rest at 2
        rf = _elementary_abelian_profile(p, 2, 4)
        assert rf.herbrand_func().eval(3) == 1 + F(2, p)
        # profile {1, 3} lands lower: the first drop happens before level 1
        rf = _elementary_abelian_profile(p, 1, 3)
        assert rf.herbrand_func().eval(3) == F(2, p) + F(1, p * p)


def test_quotient_by_center_fixture():
    g, rf = _heis_standard()
    center = g.subgroup([g.generator(3)])
    qf = quotient_filtration(rf, center)
    assert qf.group.order == 9
    for c in qf.group.elements():
        if c == qf.group.identity():
            continue
        assert qf.value_of(c) == 2
    assert qf.lower_breaks() == [F(1)]
    assert qf.upper_breaks() == [F(1)]


def test_quotient_by_trivial_is_identity():
    g, rf = _heis_standard()
    qf = quotient_filtration(rf, g.trivial_subgroup())
    phi = rf.herbrand_func()
    phi_q = qf.herbrand_func()
    for x in (F(0), F(1, 2), F(1), F(2), F(3), F(4), F(9, 2), F(6)):
        assert phi.eval(x) == phi_q.eval(x)


def test_quotient_by_whole_group():
    g, rf = _heis_standard()
    qf = quotient_filtration(rf, g.full_subgroup())
    assert qf.group.order == 1
    assert qf.herbrand_func().eval(F(7, 3)) == F(7, 3)


def test_quotient_requires_normal_kernel():
    g, rf = _heis_standard()
    with pytest.raises(InputError):
        quotient_filtration(rf, g.subgroup([g.generator(1)]))


def test_upper_level_monotone_on_grid():
    _, rf = _heis_standard()
    grid = [F(0), F(1, 2), F(1), F(7, 6), F(4, 3), F(3, 2), F(2)]
    orders = [rf.upper_level(u).order for u in grid]
    assert orders == sorted(orders, reverse=True)
    prev = None
    for u in grid:
        cur = rf.upper_level(u)
        if prev is not None:
            assert cur.elements <= prev.elements  # inclusion-monotone
        prev = cur


@settings(max_examples=60, deadline=None)
@given(
    rest=st.integers(min_value=1, max_value=12),
    bump=st.integers(min_value=0, max_value=12),
)
def test_transition_function_shape_properties(rest, bump):
    # Two-tier profiles on the Heisenberg group: every non-central element
    # at value `rest`, the center at `rest + bump`.  All level sets are then
    # subgroups, so the filtration is always valid.
    g = PcGroup(build_heisenberg(3))
    center = {g.identity(), (0, 0, 1), (0, 0, 2)}
    ig = {
        x: F(rest + bump) if x in center else F(rest)
        for x in g.elements()
        if x != g.identity()
    }
    rf = RamFiltration(g, ig)
    assert rf.validate().ok

    phi = rf.herbrand_func()
    assert phi.eval(F(0)) == F(0)
    # Concavity: segment slopes never increase left to right.
    slopes = list(phi.slopes)
    assert slopes == sorted(slopes, reverse=True)
    # Each slope is a reciprocal p-power whose denominator divides |G|.
    for s in slopes:
        assert s.numerator == 1
        assert g.order % s.denominator == 0
    # The inverse transition function maps upper breaks back to lower ones.
    psi = invert(phi)
    lower = rf.lower_breaks()
    upper = rf.upper_breaks()
    assert [phi.eval(t) for t in lower] == upper
    assert [psi.eval(u) for u in upper] == lower


def _validate_all_pairs(rf):
    """The former validate: every product of two members of each level set."""
    g = rf.group
    gens = g.pc_generators()
    gen_inv = {a: g.inverse(a) for a in gens}
    for v in rf.distinct_values():
        level = v - 1
        members = frozenset({x for x, val in rf.ig.items() if val >= v} | {g.identity()})
        for x in members:
            for y in members:
                if g.product(x, y) not in members:
                    return ValidationReport(False, level, (x, y), "not closed under product")
        for x in members:
            for a in gens:
                if g.product(g.product(gen_inv[a], x), a) not in members:
                    return ValidationReport(False, level, (a, x), "not normal")
    return ValidationReport(True)


_ORACLE_GROUPS = [
    PcGroup(build_heisenberg(3)),
    PcGroup(build_tower_truncation(3, 4)),
    PcGroup(build_heisenberg(5)),
]


@st.composite
def _assignments(draw):
    """A group and values from a chain of subgroups, some values then moved.

    The chain H_1 >= H_2 >= ... is generated (or normally generated) by
    random elements; the moved values may break closure or normality.
    """
    g = draw(st.sampled_from(_ORACLE_GROUPS))
    elements = g.elements()
    element = st.sampled_from(elements)
    gens = draw(st.lists(element, min_size=1, max_size=3))
    normal = draw(st.booleans())
    chain = [g.subgroup(gens[k:], normal=normal) for k in range(len(gens))]
    ig = {x: 1 + sum(x in h for h in chain) for x in elements if x != g.identity()}
    for x, v in draw(st.lists(st.tuples(element, st.integers(1, 4)), max_size=3)):
        if x != g.identity():
            ig[x] = v
    return RamFiltration(g, ig, check=False)


@settings(max_examples=150, deadline=None)
@given(rf=_assignments())
def test_validate_matches_all_pairs_oracle(rf):
    assert rf.validate() == _validate_all_pairs(rf)


def _validate_full_loop(rf):
    """validate() without its fast path: every level's closure and
    normality, from the largest level down, then the witness scan."""
    g = rf.group
    for v, size, sub in rf.levels:
        if sub.order == size and sub.is_normal():
            continue
        members = frozenset({x for x, val in rf.ig.items() if val >= v} | {g.identity()})
        if sub.order != size:
            x, y = next((x, y) for x in members for y in members
                        if g.product(x, y) not in members)
            return ValidationReport(False, v - 1, (x, y), "not closed under product")
        a, x = next((a, x) for x in members for a in g.pc_generators()
                    if g.product(g.product(g.inverse(a), x), a) not in members)
        return ValidationReport(False, v - 1, (a, x), "not normal")
    return ValidationReport(True)


# Heisenberg times C_3: a_3 = [a_2, a_1] and a_4 central, so the normal
# subgroups <a_3 a_4> and <a_1, a_3> hold no tail of G
_HEIS_C3 = PcGroup(PcPresentation.build(3, 4, comm={(2, 1): {3: 1}}))
_CHAIN_GROUPS = [
    *_ORACLE_GROUPS,
    _HEIS_C3,
    CosetGroup(_HEIS_C3, _HEIS_C3.normal_closure([(0, 0, 1, 1)])),
    CosetGroup(_ORACLE_GROUPS[1], _ORACLE_GROUPS[1].normal_closure([(0, 0, 0, 1)])),
]


@st.composite
def _chain_assignments(draw):
    """Values from a chain of subgroups of a group or a quotient, each level
    normally closed or not, some values then moved: valid filtrations and
    levels that fail closure or normality, tails and not."""
    g = draw(st.sampled_from(_CHAIN_GROUPS))
    elements = g.elements()
    element = st.sampled_from(elements)
    gens = draw(st.lists(element, min_size=1, max_size=4))
    chain = [span(g, gens[k:], g.pc_generators() if draw(st.booleans()) else ())
             for k in range(len(gens))]
    ig = {x: 1 + sum(x in h for h in chain) for x in elements if x != g.identity()}
    for x, v in draw(st.lists(st.tuples(element, st.integers(1, 5)), max_size=2)):
        if x != g.identity():
            ig[x] = v
    return RamFiltration(g, ig, check=False)


def _non_normal_below_normal():
    """Levels G > <a_1, a_3, a_4> > <a_1 a_4> on Heisenberg times C_3: the
    lowest holds no tail and is not normal, the one above it is."""
    g = _HEIS_C3
    low, mid = g.subgroup([(1, 0, 0, 1)]), g.subgroup([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    ig = {x: 2 + (x in mid) + (x in low) for x in g.elements() if x != g.identity()}
    return RamFiltration(g, ig, check=False)


@example(rf=_non_normal_below_normal())
@settings(max_examples=200, deadline=None, derandomize=True)
@given(rf=_chain_assignments())
def test_validate_matches_full_loop(rf):
    assert rf.validate() == _validate_full_loop(rf)


def _phi(rf, t):
    """phi(t), the integral of |G_s| / |G| over [0, t], from the values alone:
    x != 1 lies in G_s for s <= v_x - 1, so it adds min(v_x - 1, t)."""
    return (t + sum(min(v - 1, t) for v in rf.ig.values())) / rf.group.order


def _quotient_by_projection(rf, kernel):
    """The former quotient: project every element, keep each coset's last
    upper level, and recount the quotient's level sizes for psi.  Returns
    the quotient's order, values, lower breaks and upper breaks."""
    quot = CosetGroup(rf.group, kernel)
    identity_coset = quot.identity()
    last_level = {}
    for x, v in rf.ig.items():
        c = quot.project(x)
        if c == identity_coset:
            continue
        u = _phi(rf, v - 1)
        if c not in last_level or last_level[c] < u:
            last_level[c] = u
    levels = sorted(set(last_level.values()))
    psi_at = {}
    prev_u, prev_psi = F(0), F(0)
    for u in levels:
        size = 1 + sum(1 for lv in last_level.values() if lv >= u)
        prev_psi = prev_psi + F(quot.order, size) * (u - prev_u)
        psi_at[u] = prev_psi
        prev_u = u
    ig_q = {c: psi_at[u] + 1 for c, u in last_level.items()}
    return quot.order, ig_q, [psi_at[u] for u in levels], levels


# the quaternion group: a_1^2 = a_2^2 = a_3 = [a_2, a_1]
_Q8 = PcGroup(PcPresentation.build(2, 3, power={1: {3: 1}, 2: {3: 1}}, comm={(2, 1): {3: 1}}))


@st.composite
def _valid_filtrations(draw):
    """A valid filtration from a chain of normal closures N_1 >= N_2 >= ...,
    with the values of the chain's steps drawn increasing, and a kernel."""
    g = draw(st.sampled_from(_ORACLE_GROUPS + [_Q8, _HEIS_C3]))
    element = st.sampled_from(g.elements())
    gens = draw(st.lists(element, min_size=1, max_size=4))
    chain = [g.subgroup(gens[k:], normal=True) for k in range(len(gens))]
    steps = draw(st.lists(st.integers(1, 3), min_size=len(gens) + 1, max_size=len(gens) + 1))
    value = list(itertools.accumulate(steps))
    ig = {x: value[sum(x in h for h in chain)] for x in g.elements() if x != g.identity()}
    kernel = g.normal_closure(draw(st.lists(element, max_size=2)))
    return RamFiltration(g, ig), kernel


def _heis_c3_chain():
    """Levels G > <a_1, a_3, a_4> > <a_3, a_4> > <a_3> on Heisenberg times C_3."""
    g = _HEIS_C3
    chain = [g.subgroup(gens) for gens in ([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                                           [(0, 0, 1, 0), (0, 0, 0, 1)], [(0, 0, 1, 0)])]
    return RamFiltration(g, {x: 1 + 2 * sum(x in h for h in chain)
                             for x in g.elements() if x != g.identity()})


def _assert_level_sets(rf):
    identity = rf.group.identity()
    for t in [F(0)] + [b + d for b in rf.lower_breaks() for d in (0, F(1, 2), 1)]:
        members = {x for x, v in rf.ig.items() if v >= t + 1} | {identity}
        assert rf.level_set(t).elements == members


# kernels that hold no tail: the central <a_3 a_4> and <a_1, a_3>
@example(case=(_heis_c3_chain(), _HEIS_C3.normal_closure([(0, 0, 1, 1)])))
@example(case=(_heis_c3_chain(), _HEIS_C3.normal_closure([(1, 0, 0, 0)])))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_valid_filtrations())
def test_quotient_matches_projection_reference(case):
    rf, kernel = case
    g = rf.group
    _assert_level_sets(rf)
    for n in (g.trivial_subgroup(), g.full_subgroup(), kernel):
        qf = quotient_filtration(rf, n)
        order, ig, lower, upper = _quotient_by_projection(rf, n)
        assert qf.group.order == order
        assert qf.ig == ig
        assert qf.lower_breaks() == lower
        assert qf.upper_breaks() == upper
        assert qf.validate().ok
        _assert_level_sets(qf)


@example(case=(_heis_c3_chain(), _HEIS_C3.normal_closure([(0, 0, 1, 1)])))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_valid_filtrations())
def test_upper_numbering_matches_psi_route(case):
    """Upper breaks and upper level sets read off the chain against phi and
    psi as piecewise-linear functions, on filtrations and their quotients."""
    rf, kernel = case
    for f in (rf, quotient_filtration(rf, kernel)):
        phi, breaks = f.herbrand_func(), f.upper_breaks()
        assert breaks == [phi.eval(t) for t in f.lower_breaks()]
        assert breaks == [_phi(f, t) for t in f.lower_breaks()]
        psi = invert(phi)
        grid = {F(0), max(breaks, default=F(0)) + 1}
        grid.update(u + d for u in breaks for d in (F(-1, 2), 0, F(1, 2)) if u + d >= 0)
        for u in sorted(grid):
            assert f.upper_level(u) == f.level_set(psi.eval(u))
