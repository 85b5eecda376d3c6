"""Unit and property tests for the piecewise-linear transition calculus."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (
    InputError,
    PLFunc,
    compose,
    identity_func,
    invert,
    psi_step,
    tower_psi,
    tower_upper_breaks,
)
from ramify.ratio import require_prime

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


def test_plfunc_invariants_enforced():
    with pytest.raises(InputError):
        PLFunc(((F(2), F(2)), (F(1), F(1))), (F(1), F(1), F(2)))  # x not increasing
    with pytest.raises(InputError):
        PLFunc(((F(1), F(1)),), (F(1), F(-2)))  # negative slope
    with pytest.raises(InputError):
        PLFunc(((F(1), F(2)),), (F(1), F(2)))  # discontinuous at the break
    with pytest.raises(InputError):
        PLFunc(((F(1), F(1)),), (F(1), F(1)))  # collinear segments not merged
    with pytest.raises(InputError):
        PLFunc(((F(1), F(1)),), (F(1),))  # slope count mismatch


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
