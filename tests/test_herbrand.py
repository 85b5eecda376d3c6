"""Unit and property tests for the piecewise-linear transition calculus."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramify import (
    InputError,
    PcGroup,
    PcPresentation,
    PLFunc,
    RamFiltration,
    build_heisenberg,
    build_tower_truncation,
    compose,
    identity_func,
    invert,
    psi_step,
    quotient_filtration,
    tower_psi,
    tower_upper_breaks,
)
from ramify.cli import main
from ramify.herbrand import upper_breaks_of
from ramify.ratio import format_rat, parse_rat, require_prime

# -- construction and invariants -------------------------------------------


def test_psi_step_shape():
    f = psi_step(1, 2)
    assert f.breakpoints == ((F(1), F(1)),)
    assert f.slopes == (F(1), F(2))


def test_psi_step_rejects_bad_input():
    with pytest.raises(InputError):
        psi_step(0, 2)
    with pytest.raises(InputError):
        psi_step(-3, 2)
    with pytest.raises(InputError):
        psi_step(1, 4)
    with pytest.raises(InputError):
        psi_step(1, 1)


def _json(bps, slopes):
    return {"breakpoints": [[x, y] for x, y in bps], "slopes": slopes}


def test_plfunc_invariants_enforced():
    cases = [
        (_json([("2", "2"), ("1", "1")], ["1", "1", "2"]), "abscissas must be positive and strictly"),
        (_json([("1", "1")], ["1", "-2"]), "slopes must be positive"),
        (_json([("1", "2")], ["1", "2"]), "ordinates inconsistent with slopes"),  # discontinuous
        (_json([("1", "1")], ["1", "1"]), "collinear segments must be merged"),
        (_json([("1", "1")], ["1"]), "need exactly one slope per segment"),
        # the slope count is checked before the signs
        (_json([("1", "1")], ["-1"]), "need exactly one slope per segment"),
    ]
    for data, text in cases:
        with pytest.raises(InputError, match=text):
            PLFunc.from_json_dict(data)


def test_eval_below_and_above_break():
    f = psi_step(1, 2)
    assert f.eval(F(1, 2)) == F(1, 2)
    assert f.eval(1) == 1  # continuity at the break
    assert f.eval(3) == 5
    assert psi_step(2, 3).eval(4) == 8
    assert psi_step(2, 3).eval(2) == 2
    assert psi_step(2, 3).eval(F(7, 2)) == F(13, 2)
    assert identity_func().eval(F(9, 4)) == F(9, 4)
    with pytest.raises(InputError):
        f.eval(-1)


def test_compose_fixture():
    c = compose(psi_step(5, 2), psi_step(1, 2))
    assert c.break_xs() == (F(1), F(3))
    assert c.break_ys() == (F(1), F(5))
    assert c.slopes == (F(1), F(2), F(4))
    assert c.eval(4) == 9


def test_compose_identity():
    f = compose(psi_step(5, 2), psi_step(1, 2))
    assert compose(f, identity_func()) == f
    assert compose(identity_func(), f) == f


def test_invert_fixtures():
    assert invert(psi_step(1, 2)).eval(5) == 3
    assert invert(identity_func()) == identity_func()
    assert invert(psi_step(2, 3)).eval(8) == 4
    f = compose(psi_step(5, 2), psi_step(1, 2))
    assert invert(invert(f)) == f


def test_tower_psi_fixtures():
    assert tower_upper_breaks([1, 5], 2) == (F(1), F(3))
    assert tower_upper_breaks([1, 3, 7], 2) == (F(1), F(2), F(3))
    assert tower_upper_breaks([1, 3, 5, 7], 2) == (F(1), F(2), F(5, 2), F(11, 4))
    assert tower_psi([3], 5) == psi_step(3, 5)
    assert tower_psi([], 2) == identity_func()


def test_tower_psi_slopes_are_p_powers():
    psi = tower_psi([1, 3, 5, 7], 2)
    assert psi.slopes == (F(1), F(2), F(4), F(8), F(16))


def test_tower_psi_rejects_non_increasing_filtration():
    with pytest.raises(InputError, match="non-increasing filtration"):
        tower_psi([3, 3], 2)
    with pytest.raises(InputError, match="non-increasing filtration"):
        tower_psi([5, 2], 2)
    with pytest.raises(InputError):
        tower_psi([0, 1], 2)


def test_json_round_trip():
    f = compose(psi_step(5, 2), psi_step(1, 2))
    data = f.to_json_dict()
    assert data == {
        "breakpoints": [["1", "1"], ["3", "5"]],
        "slopes": ["1", "2", "4"],
    }
    assert PLFunc.from_json_dict(data) == f
    assert PLFunc.from_json_dict({"slopes": ["1"]}) == identity_func()
    with pytest.raises(InputError):
        PLFunc.from_json_dict({})  # slopes are mandatory
    with pytest.raises(InputError):
        PLFunc.from_json_dict({"slopes": ["1", "x"]})


# -- properties --------------------------------------------------------------

steps = st.tuples(st.integers(min_value=1, max_value=50), st.sampled_from([2, 3, 5]))


def _build(chain):
    f = identity_func()
    for i, p in chain:
        f = compose(psi_step(i, p), f)
    return f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(steps, min_size=1, max_size=4),
    st.fractions(min_value=0, max_value=100),
)
def test_inverse_identity_property(chain, x):
    f = _build(chain)
    assert invert(f).eval(f.eval(x)) == x
    assert f.eval(invert(f).eval(x)) == x


@settings(max_examples=40, deadline=None)
@given(st.lists(steps, min_size=3, max_size=3), st.fractions(min_value=0, max_value=60))
def test_compose_associative(chain, x):
    (i1, p1), (i2, p2), (i3, p3) = chain
    a, b, c = psi_step(i1, p1), psi_step(i2, p2), psi_step(i3, p3)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left == right  # structural equality after normalization
    assert left.eval(x) == a.eval(b.eval(c.eval(x)))


@settings(max_examples=60, deadline=None)
@given(steps)
def test_step_continuity_at_break(step):
    i, p = step
    f = psi_step(i, p)
    assert f.eval(i) == i
    assert f.eval(F(i) + F(1, 7)) == i + p * F(1, 7)


# -- tower_psi against the per-step fold ----------------------------------------


def _fold_tower_psi(relative_breaks, p):
    """Reference: compose one step at a time, checking monotonicity through
    the inverse of the tower built so far."""
    p = require_prime(p)
    psi, last_upper = identity_func(), None
    for t in relative_breaks:
        if not isinstance(t, int) or isinstance(t, bool) or t < 1:
            raise InputError(f"relative break must be a positive integer, got {t!r}")
        upper = invert(psi).eval(F(t))
        if last_upper is not None and upper <= last_upper:
            raise InputError(
                f"non-increasing filtration: upper break {upper} does not exceed {last_upper}"
            )
        last_upper = upper
        psi = compose(psi_step(t, p), psi)
    return psi


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


# schedules as a start plus increments: mostly increasing, sometimes not,
# sometimes starting at or below zero
schedules = st.builds(
    lambda start, deltas: [start + sum(deltas[:k]) for k in range(len(deltas) + 1)],
    st.integers(min_value=-1, max_value=30),
    st.lists(st.integers(min_value=-2, max_value=40), max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(schedules, st.just([])), st.sampled_from([2, 3, 5, 7]))
def test_tower_psi_matches_step_fold(schedule, p):
    assert _outcome(tower_psi, schedule, p) == _outcome(_fold_tower_psi, schedule, p)


def test_tower_upper_breaks_recurrence_at_horizon_400():
    schedule = range(1, 800, 2)
    uppers = [F(1)]
    for n in range(2, 401):
        uppers.append(uppers[-1] + F(2, 3 ** (n - 1)))
    assert tower_upper_breaks(schedule, 3) == tuple(uppers)
    assert tower_psi(schedule, 3).slopes == tuple(F(3**n) for n in range(401))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(schedules, st.just([])), st.sampled_from([2, 3, 5, 7]))
def test_tower_upper_breaks_match_tower_psi_and_step_fold(schedule, p):
    expected = _outcome(lambda: tower_psi(schedule, p).break_xs())
    assert _outcome(tower_upper_breaks, schedule, p) == expected
    assert expected == _outcome(lambda: _fold_tower_psi(schedule, p).break_xs())
    if all(type(u) is F for u in expected):  # a checked schedule: the unchecked core agrees
        assert upper_breaks_of(schedule, p) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
       st.sampled_from([2, 3, 5]))
def test_non_increasing_break_quotes_the_inverse_of_the_tower_below(steps, p):
    # every t up to the last break, each on its own segment of the tower's inverse
    prefix = list(itertools.accumulate(steps))
    last = tower_upper_breaks(prefix, p)[-1]
    for t in range(1, prefix[-1] + 1):
        upper = invert(tower_psi(prefix, p)).eval(t)
        with pytest.raises(InputError) as info:
            tower_upper_breaks(prefix + [t], p)
        assert str(info.value) == (f"non-increasing filtration: upper break {upper} "
                                   f"does not exceed {last}")


# -- compose and eval against the pointwise forms --------------------------------


def _linear_eval(func, x):
    """Reference: scan the breakpoints in order."""
    prev_x, prev_y = F(0), F(0)
    for k, (bx, by) in enumerate(func.breakpoints):
        if x <= bx:
            return prev_y + func.slopes[k] * (x - prev_x)
        prev_x, prev_y = bx, by
    return prev_y + func.slopes[-1] * (x - prev_x)


def _from_points(points, final_slope):
    """Reference: the normalized PLFunc through (0, 0) and the given points,
    increasing in both coordinates, with segments merged where the slope
    does not change."""
    xs, ys = [F(0)], [F(0)]
    for x, y in points:
        assert x > xs[-1] and y > ys[-1]
        xs.append(x)
        ys.append(y)
    slopes = [(ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)]
    slopes.append(F(final_slope))
    bps, kept = [], [slopes[0]]
    for k in range(1, len(xs)):
        if slopes[k] != kept[-1]:
            bps.append((xs[k], ys[k]))
            kept.append(slopes[k])
    return PLFunc(tuple(bps), tuple(kept))


def _pointwise_compose(outer, inner):
    """Reference: evaluate at the inner breakpoints and the inner preimages
    of the outer breakpoints, then merge collinear segments."""
    if not isinstance(outer, PLFunc) or not isinstance(inner, PLFunc):
        raise InputError("compose expects two piecewise-linear functions")
    inner_inv = invert(inner)
    xs = set(inner.break_xs())
    xs.update(_linear_eval(inner_inv, x) for x in outer.break_xs())
    points = [(x, _linear_eval(outer, _linear_eval(inner, x))) for x in sorted(xs)]
    return _from_points(points, outer.final_slope * inner.final_slope)


@st.composite
def plfuncs(draw):
    """Arbitrary normalized functions, p-power towers, and single steps."""
    kind = draw(st.sampled_from(["points", "tower", "step"]))
    if kind == "tower":
        start = draw(st.integers(min_value=1, max_value=9))
        deltas = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=8))
        return tower_psi([start + sum(deltas[:k]) for k in range(len(deltas) + 1)],
                         draw(st.sampled_from([2, 3, 5])))
    if kind == "step":
        return psi_step(draw(st.integers(min_value=1, max_value=30)), draw(st.sampled_from([2, 3])))
    positive = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
    dxs = draw(st.lists(positive, max_size=6))
    slopes = draw(st.lists(positive, min_size=len(dxs) + 1, max_size=len(dxs) + 1))
    points, x, y = [], F(0), F(0)
    for dx, slope in zip(dxs, slopes):
        x, y = x + dx, y + slope * dx
        points.append((x, y))
    return _from_points(points, slopes[-1])


compose_args = st.one_of(plfuncs(), plfuncs(), plfuncs(), st.just(None), st.just(F(1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(compose_args, compose_args, st.fractions(min_value=0, max_value=200))
def test_compose_matches_pointwise_compose(outer, inner, x):
    result = _outcome(compose, outer, inner)
    assert result == _outcome(_pointwise_compose, outer, inner)
    if isinstance(result, PLFunc):
        assert result.eval(x) == _linear_eval(result, x) == outer.eval(inner.eval(x))
        # every segment of a function against its inverse is collinear
        assert compose(outer, invert(outer)) == identity_func()
        assert compose(invert(inner), inner) == identity_func()
        for bx in result.break_xs():
            assert result.eval(bx) == _linear_eval(result, bx)


# -- every builder's output passes the checks of a function read from JSON ------


def _assert_valid(f):
    """f is exact and passes ``from_json_dict`` unchanged."""
    assert all(type(c) is F for bp in f.breakpoints for c in bp)
    assert all(type(s) is F for s in f.slopes)
    assert PLFunc.from_json_dict(f.to_json_dict()) == f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plfuncs(), plfuncs(), st.one_of(schedules, st.just([])), steps)
def test_builders_pass_the_json_checks(outer, inner, schedule, step):
    for f in (outer, inner, compose(outer, inner), compose(outer, invert(outer)), invert(inner),
              identity_func(), psi_step(*step)):
        _assert_valid(f)
    if isinstance(psi := _outcome(tower_psi, schedule, step[1]), PLFunc):
        _assert_valid(psi)


# -- the integer reader against the Fraction-arithmetic reader ------------------


def _fraction_from_json_dict(data):
    """Reference: the checks of a function read from JSON in Fraction arithmetic."""
    if not isinstance(data, dict):
        raise InputError("piecewise-linear function must be a JSON object")
    bps = tuple((parse_rat(x), parse_rat(y)) for x, y in data.get("breakpoints", []))
    slopes = tuple(parse_rat(s) for s in data["slopes"])
    if len(slopes) != len(bps) + 1:
        raise InputError("need exactly one slope per segment")
    if any(s <= 0 for s in slopes):
        raise InputError("slopes must be positive")
    prev_x, prev_y = F(0), F(0)
    for k, (x, y) in enumerate(bps):
        if x <= prev_x:
            raise InputError("breakpoint abscissas must be positive and strictly increasing")
        if y != prev_y + slopes[k] * (x - prev_x):
            raise InputError("breakpoint ordinates inconsistent with slopes")
        prev_x, prev_y = x, y
    for a, b in zip(slopes, slopes[1:]):
        if a == b:
            raise InputError("collinear segments must be merged (not normalized)")
    return PLFunc(bps, slopes)


@st.composite
def mutated_funcs(draw):
    """A function's JSON with one coordinate or slope replaced: by another
    value of the same function (a neighbour's makes equal slopes or
    abscissas), or by a small rational of either sign."""
    data = draw(plfuncs()).to_json_dict()
    values = [c for bp in data["breakpoints"] for c in bp] + data["slopes"]
    small = st.fractions(min_value=-4, max_value=40, max_denominator=12).map(format_rat)
    new = draw(st.one_of(st.sampled_from(values), small))
    k = draw(st.integers(0, len(values) - 1))
    if k < 2 * len(data["breakpoints"]):
        data["breakpoints"][k // 2][k % 2] = new
    else:
        data["slopes"][k - 2 * len(data["breakpoints"])] = new
    return data


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_funcs())
def test_integer_reader_matches_fraction_reader(data):
    assert _outcome(PLFunc.from_json_dict, data) == _outcome(_fraction_from_json_dict, data)


def test_herbrand_eval_builds_a_fraction_per_number_read(tmp_path, capsys, monkeypatch):
    # one Fraction per number read (2N coordinates and N + 1 slopes), three for
    # the evaluation and one for --at
    n = 200
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(tower_psi(range(1, 2 * n, 2), 2).to_json_dict()))
    argv = ["herbrand", "eval", "--file", str(path), "--at", "3"]
    assert main(argv) == 0  # loads the layers before counting
    capsys.readouterr()
    built, new = [], F.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert main(argv) == 0
    monkeypatch.undo()
    # psi runs with slope 2^n past u_n = 3 - 2^(2-n), so psi(3) = t_n + 4
    assert capsys.readouterr().out == f'{{"value": "{2 * n - 1 + 4}"}}\n'
    assert len(built) <= 3 * n + 5


def test_herbrand_compose_builds_fractions_linear_in_breakpoints(tmp_path, capsys, monkeypatch):
    # two tower psi's of N breakpoints each: 6N + 2 Fractions read (3N + 1 per
    # function), 8N - 2 in the walk for the 2N - 1 breakpoints of the result
    n = 200
    path = tmp_path / "compose.json"
    path.write_text(json.dumps({"outer": tower_psi(range(1, 2 * n, 2), 2).to_json_dict(),
                                "inner": tower_psi(range(2, 2 * n + 1, 2), 2).to_json_dict()}))
    argv = ["herbrand", "compose", "--file", str(path)]
    assert main(argv) == 0  # loads the layers before counting
    capsys.readouterr()
    built, new = [], F.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert main(argv) == 0
    monkeypatch.undo()
    assert len(json.loads(capsys.readouterr().out)["breakpoints"]) == 2 * n - 1
    assert len(built) <= 14 * n


# the quaternion group: a_1^2 = a_2^2 = a_3 = [a_2, a_1]
_FILTRATION_GROUPS = [
    PcGroup(build_heisenberg(3)),
    PcGroup(build_tower_truncation(3, 4)),
    PcGroup(PcPresentation.build(2, 3, power={1: {3: 1}, 2: {3: 1}}, comm={(2, 1): {3: 1}})),
]


@st.composite
def filtrations(draw):
    """A valid filtration on a chain of normal closures, values increasing
    along it from 1, 2 or 3, and a kernel to take a quotient by."""
    g = draw(st.sampled_from(_FILTRATION_GROUPS))
    element = st.sampled_from(g.elements())
    gens = draw(st.lists(element, min_size=1, max_size=4))
    chain = [g.subgroup(gens[k:], normal=True) for k in range(len(gens))]
    rises = draw(st.lists(st.integers(1, 3), min_size=len(gens) + 1, max_size=len(gens) + 1))
    value = list(itertools.accumulate(rises))
    ig = {x: value[sum(x in h for h in chain)] for x in g.elements() if x != g.identity()}
    return RamFiltration(g, ig), g.normal_closure(draw(st.lists(element, max_size=2)))


def _points_herbrand_func(rf):
    """Reference: phi through (t, phi(t)) at each positive lower break."""
    points = [(t, u) for t, u in zip(rf.lower_breaks(), rf.upper_breaks()) if t > 0]
    return _from_points(points, F(1, rf.group.order))


@example(case=(RamFiltration(_FILTRATION_GROUPS[0], {}, default=1),
               _FILTRATION_GROUPS[0].trivial_subgroup()))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=filtrations())
def test_herbrand_func_matches_points_route(case):
    rf, kernel = case
    g = rf.group
    for f in (rf, *(quotient_filtration(rf, n) for n in (g.full_subgroup(), kernel))):
        phi = f.herbrand_func()
        _assert_valid(phi)
        assert phi == _points_herbrand_func(f)
