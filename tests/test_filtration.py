"""Unit tests for break filtrations and their quotient identity."""

import itertools
import json
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramify import (
    CapExceededError,
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
from ramify.cli import main
from ramify.pcgroup import Subgroup, _Collector, span
from ramify.ratio import parse_rat


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


def test_from_json_dict_reads_the_filtration_schema():
    data = {"group": build_heisenberg(3).to_json_dict(), "default": 2,
            "ig": [{"element": [0, 1, 0], "value": 5}, {"element": [0, 2, 0], "value": 5}]}
    rf = RamFiltration.from_json_dict(data, check=False)
    assert rf.group.pres == build_heisenberg(3)
    assert rf.ig == RamFiltration(rf.group, {(0, 1, 0): 5, (0, 2, 0): 5}, 2, check=False).ig
    assert not rf.validate().ok
    with pytest.raises(InputError, match="is not a normal subgroup"):
        RamFiltration.from_json_dict(data)
    with pytest.raises(InputError, match=r"unknown filtration fields: \['extra'\]"):
        RamFiltration.from_json_dict({**data, "extra": 1})
    with pytest.raises(CapExceededError):
        RamFiltration.from_json_dict(data, cap=26)


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
    """A group or quotient and values from a chain of subgroups, some values
    then moved, and in some draws a random subset left to a default.

    The chain H_1 >= H_2 >= ... is generated (or normally generated) by
    random elements; the moved values may break closure or normality.  The
    default either takes over only elements of its own value (the values
    stay) or any elements (their values change).
    """
    quotients = [q for q in _CHAIN_GROUPS if isinstance(q, CosetGroup)]
    g = draw(st.sampled_from(_ORACLE_GROUPS + quotients))
    elements = g.elements()
    element = st.sampled_from(elements)
    gens = draw(st.lists(element, min_size=1, max_size=3))
    normal = draw(st.booleans())
    chain = [span(g, gens[k:], g.pc_generators() if normal else ()) for k in range(len(gens))]
    ig = {x: 1 + sum(x in h for h in chain) for x in elements if x != g.identity()}
    for x, v in draw(st.lists(st.tuples(element, st.integers(1, 4)), max_size=3)):
        if x != g.identity():
            ig[x] = v
    if draw(st.booleans()):
        rnd, fill = draw(st.randoms(use_true_random=False)), draw(st.integers(1, 4))
        same, share = draw(st.booleans()), draw(st.sampled_from([0.3, 0.7, 1.0]))
        ig = {x: v for x, v in ig.items() if (same and v != fill) or rnd.random() >= share}
        return RamFiltration(g, ig, default=fill, check=False)
    return RamFiltration(g, ig, check=False)


@settings(max_examples=150, deadline=None)
@given(rf=_assignments())
def test_validate_matches_all_pairs_oracle(rf):
    assert rf.validate() == _validate_all_pairs(rf)


def _validate_full_loop(rf):
    """The former failure path of validate(): every level's closure and
    normality checked in full on the plain span of its members, from the
    largest level down, then the witness scan."""
    g = rf.group
    for v in sorted(set(rf.ig.values())):
        members = frozenset({x for x, val in rf.ig.items() if val >= v} | {g.identity()})
        sub = span(g, sorted(members))
        if sub.order == len(members) and sub.is_normal():
            continue
        if sub.order != len(members):
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
def _chain_values(draw):
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
    return g, ig


def _chain_assignments():
    return _chain_values().map(lambda case: RamFiltration(*case, check=False))


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_chain_values())
def test_load_and_validate_call_no_is_normal(case):
    """The levels are normal closures, so loading and validating compare
    orders: with ``is_normal`` raising, valid chains load, failing ones are
    refused with the report, and ``validate`` matches the all-pairs loop."""
    g, ig = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subgroup, "is_normal", lambda self: pytest.fail("is_normal was called"))
        rf = RamFiltration(g, ig, check=False)
        report = rf.validate()
        try:
            RamFiltration(g, ig)
            refusal = None
        except InputError as exc:
            refusal = str(exc)
    assert report == _validate_all_pairs(rf)
    assert refusal == (None if report.ok else f"level set at {report.level} is not a normal "
                       f"subgroup; witness {report.witness} ({report.reason})")


def _load_per_element(group, ig, default=None):
    """The former constructor: each value parsed, filled and checked per
    element, then grouped into levels by hashing each value.  Returns the
    values and the chain as (v, |S|, <S>^G)."""
    identity = group.identity()
    members = set(group.elements())
    values = {}
    for x, v in dict(ig).items():
        x = tuple(x)
        if x == identity:
            raise InputError("the identity carries no finite value")
        if x not in members:
            raise InputError(f"element {x} does not belong to the group")
        values[x] = parse_rat(v)
    fill = None
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
    exact = {}
    for x, v in values.items():
        exact.setdefault(v, []).append(x)
    chain, size, sub = [], 1, None
    for v in sorted(exact, reverse=True):
        size += len(exact[v])
        sub = span(group, exact[v], group.pc_generators(), base=sub)
        chain.append((v, size, sub))
    return list(values.items()), chain[::-1]


def _load_by_buckets(group, ig, default=None):
    rf = RamFiltration(group, ig, default=default, check=False)
    return list(rf.ig.items()), rf.levels


def _outcome(load, *args):
    try:
        return load(*args)
    except InputError as exc:
        return type(exc), str(exc)


_BAD_VALUES = [0, -1, "-2", "3/2", F(1, 3), "x"]


@st.composite
def _raw_assignments(draw):
    """A group or quotient, raw listed values and a default: mostly a
    chain's values, as ints or strings, some listed ones then replaced by bad
    values, the identity or a non-member (on a quotient also an element of
    the ambient group, a tuple of its length), and the default absent,
    valid or bad."""
    g = draw(st.sampled_from(_CHAIN_GROUPS))
    elements = g.elements()
    identity = g.identity()
    gens = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
    chain = [span(g, gens[k:]) for k in range(len(gens))]
    value = {x: 1 + sum(x in h for h in chain) for x in elements if x != identity}
    listed = draw(st.lists(st.sampled_from(elements[1:]), unique=True, max_size=len(elements)))
    ig = {x: draw(st.sampled_from([value[x], str(value[x])])) for x in listed}
    outsiders = [identity, tuple([g.p] * len(identity))]
    if isinstance(g, CosetGroup):
        members = set(elements)
        outsiders.append(next(x for x in g.ambient.elements() if x not in members))
    for x in draw(st.lists(st.sampled_from(elements[1:]) | st.sampled_from(outsiders), max_size=2)):
        ig[x] = draw(st.sampled_from([value.get(x, 2)] + _BAD_VALUES))
    default = draw(st.sampled_from([1, "2", 5, None] + _BAD_VALUES))
    return g, ig, default


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_raw_assignments())
def test_constructor_matches_per_element_reference(case):
    """Values, levels, and the first load error with its text, against the
    per-element constructor, on groups and quotients."""
    assert _outcome(_load_by_buckets, *case) == _outcome(_load_per_element, *case)


def _phi(rf, t):
    """phi(t), the integral of |G_s| / |G| over [0, t], from the values alone:
    x != 1 lies in G_s for s <= v_x - 1, so it adds min(v_x - 1, t).  Integral
    values are ints, so the quotient is taken as a Fraction."""
    return F(t + sum(min(v - 1, t) for v in rf.ig.values()), rf.group.order)


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


# -- the default taken by count -------------------------------------------------


@pytest.mark.parametrize("n, cap", [(12, None), (13, "2000000")])
def test_default_only_filtration_is_fast_and_small(n, cap, tmp_path, monkeypatch, capsys):
    # one level holding all of G, spanned from the n pc generators: listing the
    # group took 1.0 s and 163 MB ru_maxrss at n = 12, 2.4 s and 504 MB at n = 13
    if cap:
        monkeypatch.setenv("RAMIFY_CAP", cap)
    path = tmp_path / "filt.json"
    path.write_text(json.dumps({"group": {"p": 3, "n": n}, "default": 1}))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["filtration", "validate", "--file", str(path)])
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, '{"ok": true}\n')
    assert elapsed < 0.1 and peak < 20 * 2**20


def test_default_only_quotient_lists_its_image_without_collection(monkeypatch):
    g = PcGroup(PcPresentation.from_json_dict({"p": 3, "n": 10}))
    rf = RamFiltration(g, {}, default=1)
    kernel = g.subgroup([g.generator(10)], normal=True)
    collections, collect = [], _Collector._collect

    def counting(self, v, stack):
        collections.append(v)
        return collect(self, v, stack)

    monkeypatch.setattr(_Collector, "_collect", counting)
    quot = quotient_filtration(rf, kernel)
    assert (quot.group.order, len(quot.ig), set(quot.ig.values())) == (3**9, 3**9 - 1, {1})
    # the image of G mod a_10 was listed by products while a_10's depth held no
    # row: 19,731 collections
    assert len(collections) <= 64


def test_levels_above_a_pth_of_the_group_list_nothing(monkeypatch):
    g = PcGroup(PcPresentation.build(3, 12))
    monkeypatch.setattr(PcGroup, "elements", lambda self: pytest.fail("G was listed"))
    rf = RamFiltration(g, {}, default=1)
    assert [(v, size, sub.order) for v, size, sub in rf.levels] == [(1, 3**12, 3**12)]
    # a small listed level is spanned from its members, the default level from G's generators
    center = {(0,) * 11 + (1,): 4, (0,) * 11 + (2,): 4}
    rf = RamFiltration(g, center, default=2)
    assert rf.validate().ok
    assert [(v, size, sub.order) for v, size, sub in rf.levels] == [(2, 3**12, 3**12), (4, 3, 3)]
    assert "ig" not in vars(rf)  # no per-element map was built


def test_cap_error_comes_before_any_entry():
    g = PcGroup(PcPresentation.build(3, 6), cap=100)
    for group in (g, CosetGroup(g, g.subgroup([g.generator(6)]))):
        with pytest.raises(CapExceededError, match="^group order 729 exceeds enumeration cap 100$"):
            RamFiltration(group, {group.identity(): 1})


def test_small_default_level_lists_its_unlisted_members():
    g = PcGroup(build_heisenberg(3))
    outside = {x: 2 for x in g.elements() if x[:2] != (0, 0)}
    rf = RamFiltration(g, outside, default=5)
    assert [(v, size, sub.order) for v, size, sub in rf.levels] == [(2, 27, 27), (5, 3, 3)]
    assert list(rf.ig.items())[-2:] == [((0, 0, 1), 5), ((0, 0, 2), 5)]


@pytest.mark.parametrize("g", _CHAIN_GROUPS, ids=lambda g: f"{type(g).__name__}-{g.order}")
def test_membership_matches_the_listing(g):
    """Wrong lengths and exponents out of range belong exactly when
    ``elements()`` lists them, for ``in`` and for the constructor; ``in``
    compares exponents by value."""
    n, listed, identity = len(g.identity()), set(g.elements()), g.identity()
    for x in [(1.0,) + identity[1:], (True,) + identity[1:], (F(2),) + identity[1:],
              ("1",) + identity[1:]]:
        assert (x in g) == (x in listed), x
    for x in [(), identity[1:], identity + (0,), *itertools.product(range(-1, g.p + 1), repeat=n)]:
        assert (x in g) == (x in listed), x
        if x == identity:
            continue
        try:
            RamFiltration(g, {x: 2}, default=1, check=False)
            refused = False
        except InputError as exc:
            assert str(exc) == f"element {x} does not belong to the group"
            refused = True
        assert refused == (x not in listed), x
