"""Unit tests for tower planning, break sequences, and merges."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (
    BreakSequence,
    FeasibilityResult,
    InfeasiblePlanError,
    InputError,
    TowerPlan,
    apf_plan,
    closed_form_check,
    compositum_merge,
    cyclic_break_admissible,
    evaluate_plan,
    break_triple_feasible,
    nonapf_plan,
    repair_merge,
    tower_upper_breaks,
    verdict,
)

# -- admissibility and feasibility -------------------------------------------


def test_cyclic_break_admissible():
    # bound is p*e/(p-1); strict mode also requires p not dividing j
    assert cyclic_break_admissible(3, 2, 2)
    assert not cyclic_break_admissible(5, 2, 2)
    assert not cyclic_break_admissible(2, 2, 2, strict=True)
    assert cyclic_break_admissible(2, 2, 2, strict=False)
    # a p-divisible break sitting exactly on the bound stays admissible
    assert cyclic_break_admissible(4, 2, 2, strict=True)


def test_break_triple_fixtures():
    assert break_triple_feasible(1, 3, 5, 2, 2).ok
    assert not break_triple_feasible(1, 1, 3, 2, 2).ok
    res = break_triple_feasible(2, 3, 5, 2, 2)
    assert isinstance(res, FeasibilityResult) and not res.ok  # p | i branch


def test_break_triple_diagonal_scan():
    hits = [s for s in range(1, 21) if break_triple_feasible(1, 1, s, 2, 2).ok]
    assert hits == [1]


def test_break_triple_off_diagonal_matches_transition():
    from ramify import psi_step

    for i in range(1, 21):
        for j in range(1, 21):
            if i == j:
                continue
            for s in range(1, 21):
                res = break_triple_feasible(i, j, s, 2, 12)
                if res.ok:
                    assert F(s) == psi_step(i, 2).eval(F(j))


# -- plan containers -----------------------------------------------------------


def test_plan_validation():
    with pytest.raises(InputError):
        TowerPlan("weird", 2, 2)
    with pytest.raises(InputError):
        TowerPlan("apf", 4, 2, depth=2, eps=(1,), base_i1=5, base_i=16)
    with pytest.raises(InputError):
        TowerPlan("nonapf", 2, 2)  # empty schedule
    with pytest.raises(InputError):
        TowerPlan("apf", 2, 2, depth=3, base_i1=5, base_i=16)  # missing eps


def test_plan_json_round_trip():
    plan = TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16)
    data = plan.to_json_dict()
    assert TowerPlan.from_json_dict(data) == plan
    plan2 = TowerPlan("nonapf", 2, 2, schedule=(1, 3, 5))
    assert TowerPlan.from_json_dict(plan2.to_json_dict()) == plan2
    with pytest.raises(InputError):
        TowerPlan.from_json_dict({"kind": "apf", "p": 2, "e0": 2, "bogus": 1})


def test_break_sequence_round_trip():
    seq = BreakSequence((1, 2), (F(1), F(3)), (F(1), F(2)), "non-APF", F(3), "geom")
    # JSON form normalizes empty flags to all-False; round trip is stable
    data = seq.to_json_dict()
    back = BreakSequence.from_json_dict(data)
    assert back.to_json_dict() == data
    assert back.upper == seq.upper and back.verdict == seq.verdict
    assert [back.flag_at(k) for k in range(2)] == [seq.flag_at(k) for k in range(2)]
    with pytest.raises(InputError):
        BreakSequence((1,), (), (F(1), F(2)))


# -- apf recursion ---------------------------------------------------------------


def test_apf_single_step():
    plan = TowerPlan("apf", 3, 2, depth=1, base_i1=2, base_i=4)
    seq = apf_plan(plan)
    assert seq.upper == (F(8, 3),)
    assert seq.levels == (3,)


def test_apf_two_and_three_levels():
    plan2 = TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=5, base_i=16)
    assert apf_plan(plan2).upper == (F(21, 2), F(27, 4))
    plan3 = TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16)
    seq3 = apf_plan(plan3)
    assert seq3.upper == (F(21, 2), F(27, 4), F(47, 8))
    assert seq3.levels == (3, 5, 7)


def test_apf_depth_four_infeasible():
    plan = TowerPlan("apf", 2, 2, depth=4, eps=(1,), base_i1=5, base_i=16)
    with pytest.raises(InfeasiblePlanError, match="running break 47/8 < step break 7"):
        apf_plan(plan)


def test_apf_base_admissibility_enforced():
    # i1 must avoid the prime in strict mode
    with pytest.raises(InfeasiblePlanError):
        apf_plan(TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=4, base_i=16))
    # i must not exceed its level bound
    with pytest.raises(InfeasiblePlanError):
        apf_plan(TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=5, base_i=64))
    # p | (i - i1) rejected
    with pytest.raises(InfeasiblePlanError):
        apf_plan(TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=5, base_i=15))
    # i must exceed i1
    with pytest.raises(InfeasiblePlanError):
        apf_plan(TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=5, base_i=4))


def test_apf_horizon_15_closed_form():
    plan = TowerPlan(
        "apf", 2, 2, depth=15, eps=(1,), base_i1=5, base_i=2**17
    )
    seq = apf_plan(plan)
    assert seq.horizon == 15
    assert seq.upper[0] == F(5, 2) + 2**16
    assert seq.upper[-1] == F(1015815, 32768)
    rep = closed_form_check(seq, plan)
    assert rep.ok and rep.cauchy_ok
    diffs = rep.v_diffs
    for a, b in zip(diffs, diffs[1:]):
        assert abs(b) * plan.p <= abs(a)
    assert seq.verdict == "APF"
    assert seq.certificate is not None


def test_flat_variant_regression():
    plan = TowerPlan(
        "apf", 2, 2, depth=2, eps=(1,), base_i1=4, base_i=5,
        scaling="flat", strict=False,
    )
    seq = apf_plan(plan)
    assert seq.upper == (F(9, 2), F(15, 4))
    rep = closed_form_check(seq, plan)
    assert rep.ok
    assert rep.v[1] == F(-7, 4)
    assert seq.verdict == "non-APF"
    assert seq.limit_bound == F(9, 2)


def test_closed_form_detects_perturbation():
    plan = TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16)
    seq = apf_plan(plan)
    tampered = BreakSequence(
        seq.levels,
        seq.lower,
        (seq.upper[0], seq.upper[1] + F(1, 8), seq.upper[2]),
        seq.verdict,
        seq.limit_bound,
        seq.certificate,
    )
    rep = closed_form_check(tampered, plan)
    assert not rep.ok
    assert rep.fail_level == 2


# -- schedule towers --------------------------------------------------------------


def test_nonapf_odd_schedule():
    plan = TowerPlan("nonapf", 2, 2, schedule=tuple(range(1, 40, 2)))
    seq = nonapf_plan(plan)
    assert seq.upper == tuple(F(3) - F(2) ** (2 - n) for n in range(1, 21))
    assert seq.verdict == "non-APF"
    assert seq.limit_bound == F(3)


@pytest.mark.parametrize(
    "p, e0, sched, bound",
    [(2, 8, (1, 11, 15, 17), F(15, 2)), (3, 10, (1, 14, 20, 23), F(37, 6))],
)
def test_nonapf_bound_is_limit_of_repeating_the_last_difference(p, e0, sched, bound):
    # every increment ratio of these prefixes is below 1/p
    seq = nonapf_plan(TowerPlan("nonapf", p, e0, schedule=sched))
    assert seq.verdict == "non-APF" and seq.limit_bound == bound
    last_diff = seq.upper[-1] - seq.upper[-2]
    step = sched[-1] - sched[-2]
    for extra in range(1, 10):
        longer = sched + tuple(sched[-1] + step * k for k in range(1, extra + 1))
        # the tail beyond level N + extra sums to last_diff / (p^extra (p - 1))
        assert bound - tower_upper_breaks(longer, p)[-1] == last_diff / (p**extra * (p - 1))


def test_custom_doubling_schedule():
    sched = [1]
    while len(sched) < 8:
        sched.append(2 * sched[-1] + 1)
    plan = TowerPlan("custom", 2, 2, schedule=tuple(sched))
    seq = evaluate_plan(plan)
    assert seq.upper == tuple(F(n) for n in range(1, 9))
    assert seq.verdict == "APF"


def test_nonapf_kind_never_claims_apf():
    sched = (1, 3, 7, 15)
    seq = nonapf_plan(TowerPlan("nonapf", 2, 2, schedule=sched))
    assert seq.upper == (F(1), F(2), F(3), F(4))
    assert seq.verdict == "undetermined"


def test_schedule_admissibility():
    with pytest.raises(InfeasiblePlanError):
        nonapf_plan(TowerPlan("nonapf", 2, 2, schedule=(1, 2)))
    with pytest.raises(InputError):
        TowerPlan("nonapf", 2, 2, schedule=(3, 1))


def test_divisible_increment_warns_not_fails():
    # p = 3, differences 4 and 2: nothing to flag
    seq = nonapf_plan(TowerPlan("nonapf", 3, 2, schedule=(1, 5, 7)))
    assert not any(seq.flags)
    assert not seq.warnings
    # p = 3, first difference 3: flagged and warned about, never fatal
    seq2 = nonapf_plan(TowerPlan("nonapf", 3, 2, schedule=(1, 4, 5)))
    assert tuple(seq2.flags) == (False, True, False)
    assert seq2.warnings
    # the odd p = 2 ladder flags every step past the first, yet still runs
    seq3 = nonapf_plan(TowerPlan("nonapf", 2, 2, schedule=(1, 3, 5)))
    assert tuple(seq3.flags) == (False, True, True)
    assert seq3.verdict == "non-APF"


# -- merges ------------------------------------------------------------------------


def _seq(vals, verdict_val="undetermined", bound=None, cert=None):
    ups = tuple(F(v) for v in vals)
    return BreakSequence(
        tuple(range(1, len(ups) + 1)), (), ups, verdict_val, bound, cert
    )


def test_merge_fixture():
    a = _seq([1, 2, F(5, 2)])
    b = _seq([1, 2, 3])
    merged = compositum_merge([a, b])
    assert merged.upper == (F(1), F(2), F(3))
    assert merged.flags == (True, True, False)


def test_merge_single_input_identity():
    a = _seq([1, 2, 4])
    merged = compositum_merge([a])
    assert merged.upper == a.upper
    assert not any(merged.flags)


def test_merge_horizon_mismatch():
    with pytest.raises(InputError):
        compositum_merge([_seq([1, 2]), _seq([1, 2, 3])])


def test_merge_apf_dominating_tail():
    bounded = _seq([F(1), F(2), F(5, 2), F(11, 4)], "non-APF", F(3), "geom")
    growing = _seq([1, 2, 3, 4], "APF", None, "unit increments")
    merged = compositum_merge([bounded, growing])
    assert merged.upper == (F(1), F(2), F(3), F(4))
    assert merged.verdict == "APF"
    # flags inherited where inputs collide
    assert merged.flags == (True, True, False, False)


def test_merge_all_bounded():
    a = _seq([1, F(3, 2), F(7, 4)], "non-APF", F(2), "geom")
    b = _seq([1, 2, F(5, 2)], "non-APF", F(3), "geom")
    merged = compositum_merge([a, b])
    assert merged.verdict == "non-APF"
    assert merged.limit_bound == F(3)


def test_repair_merge_fixtures():
    base = nonapf_plan(TowerPlan("nonapf", 2, 2, schedule=tuple(range(1, 9, 2))))
    upgraded = repair_merge(base, [k for k in range(1, 5)])
    assert upgraded.verdict == "APF"
    assert upgraded.upper == (F(1), F(2), F(3), F(4))
    unchanged = repair_merge(base, [0, 0, 0, 0])
    assert unchanged.upper == base.upper
    assert unchanged.verdict == base.verdict
    with pytest.raises(InputError):
        repair_merge(base, [1, 2])


def test_repair_base_already_apf():
    base = _seq([1, 2, 3], "APF", None, "unit increments")
    out = repair_merge(base, [0, 0, 0])
    assert out.verdict == "APF"


def test_verdict_policy():
    certified = _seq([1, 2, 3], "APF", None, "unit increments")
    raw = _seq([1, 2, 3], "APF", None, None)
    assert verdict(certified) == "APF"
    assert verdict(raw) == "undetermined"
    with pytest.raises(InputError):
        verdict(certified, rule="optimistic")


# -- merge properties ----------------------------------------------------------------

vals = st.lists(
    st.fractions(min_value=0, max_value=20), min_size=1, max_size=6
)


@st.composite
def _equal_length_rows(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=2, max_value=4))
    row = st.lists(
        st.fractions(min_value=0, max_value=20), min_size=n, max_size=n
    )
    return [draw(row) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(_equal_length_rows())
def test_merge_commutative_associative(rows):
    seqs = [_seq(v) for v in rows]
    forward = compositum_merge(seqs)
    backward = compositum_merge(list(reversed(seqs)))
    assert forward.upper == backward.upper
    assert forward.flags == backward.flags
    nested = compositum_merge([compositum_merge(seqs[:2])] + seqs[2:])
    assert nested.upper == forward.upper


@settings(max_examples=60, deadline=None)
@given(vals)
def test_merge_idempotent(row):
    s = _seq(row)
    merged = compositum_merge([s, s])
    assert merged.upper == s.upper
    assert all(merged.flags)  # identical inputs collide everywhere
    again = compositum_merge([merged, merged])
    assert again.upper == merged.upper
