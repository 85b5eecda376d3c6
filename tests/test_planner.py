"""Unit tests for tower planning, break sequences, and merges."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify import (
    BreakSequence,
    ClosedFormReport,
    ConsistencyResult,
    FeasibilityResult,
    InfeasiblePlanError,
    InputError,
    PLFunc,
    TowerPlan,
    ValidationReport,
    apf_plan,
    closed_form_check,
    compositum_merge,
    cyclic_break_admissible,
    evaluate_plan,
    break_triple_feasible,
    nonapf_plan,
    repair_merge,
    tower_psi,
    tower_upper_breaks,
    verdict,
)
from ramify.cli import main
from ramify.herbrand import invert, psi_step
from ramify.planner import _dominating_apf_tail

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
    # the expected s in a rejection is the transition function's value at j
    for p in (3, 5):
        for i in range(1, 8):
            for j in range(1, 8):
                reason = break_triple_feasible(i, j, 1, p, 12).reason
                if "expected" in reason:
                    assert f"expected {psi_step(i, p).eval(F(j))}, got 1" in reason


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
    with pytest.raises(InputError, match="^strict must be a boolean$"):
        TowerPlan("nonapf", 2, 2, schedule=(1, 3), strict=1)
    with pytest.raises(InputError, match=r"^eps is indexed from the u_5 step \(k >= 2\), got k = 1$"):
        TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16).eps_at(1)
    with pytest.raises(InputError, match="^eps must be a list$"):
        TowerPlan.from_json_dict({"kind": "apf", "p": 2, "e0": 2, "depth": 2, "eps": 1,
                                  "base": {"i1": 5, "i": 16}})


def test_plan_json_round_trip():
    plan = TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16)
    data = plan.to_json_dict()
    assert TowerPlan.from_json_dict(data) == plan
    plan2 = TowerPlan("nonapf", 2, 2, schedule=(1, 3, 5))
    assert TowerPlan.from_json_dict(plan2.to_json_dict()) == plan2
    with pytest.raises(InputError):
        TowerPlan.from_json_dict({"kind": "apf", "p": 2, "e0": 2, "bogus": 1})


def test_plan_json_round_trips_optional_fields():
    # eps_bound, a flat scaling and strict = false are written only when set
    apf = {"kind": "apf", "p": 3, "e0": 4, "depth": 3, "eps": [1, 2], "base": {"i1": 5, "i": 7},
           "scaling": "flat", "eps_bound": 2, "strict": False}
    nonapf = {"kind": "nonapf", "p": 2, "e0": 2, "schedule": [1, 3], "strict": False}
    for data in (apf, nonapf):
        plan = TowerPlan.from_json_dict(data)
        assert plan.to_json_dict() == data and TowerPlan.from_json_dict(plan.to_json_dict()) == plan
    plan = TowerPlan.from_json_dict(apf)
    assert (plan.scaling, plan.eps_bound, plan.strict) == ("flat", 2, False)
    with pytest.raises(InputError, match="^eps entries exceed the declared bound 1$"):
        TowerPlan.from_json_dict({**apf, "eps_bound": 1})


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
    with pytest.raises(InputError, match="^lower breaks must be empty or match the horizon$"):
        BreakSequence((1, 2), (F(1),), (F(1), F(2)))
    with pytest.raises(InputError, match="^flags must be empty or match the horizon$"):
        BreakSequence((1, 2), (), (F(1), F(2)), flags=(True,))
    # a bound that the sequence's own breaks exceed certifies nothing
    data["limit_bound"] = "3/2"
    with pytest.raises(InputError, match=r"limit_bound 3/2 is below upper\[1\] = 2"):
        BreakSequence.from_json_dict(data)
    # an APF sequence has no limit to bound
    data.update(limit_bound="3", verdict="APF")
    with pytest.raises(InputError, match="an APF sequence cannot carry a limit_bound"):
        BreakSequence.from_json_dict(data)


def test_records_are_frozen_values():
    import pickle

    plan = TowerPlan("apf", 2, 2, depth=3, eps=(1,), base_i1=5, base_i=16)
    same = TowerPlan(kind="apf", p=2, e0=2, depth=3, eps=(1,), base_i1=5, base_i=16)
    assert plan == same and hash(plan) == hash(same) and plan != plan.to_json_dict()
    assert repr(FeasibilityResult(True)) == "FeasibilityResult(ok=True, reason='')"
    assert pickle.loads(pickle.dumps(plan)) == plan
    with pytest.raises(AttributeError):
        plan.depth = 4
    with pytest.raises(TypeError, match="missing field 'e0'"):
        TowerPlan("apf", 2)
    with pytest.raises(TypeError, match="unknown or repeated field 'p'"):
        TowerPlan("apf", 2, 2, p=3)
    with pytest.raises(TypeError, match="^TowerPlan takes 11 fields, got 12$"):
        TowerPlan(*range(12))
    with pytest.raises(AttributeError, match="^cannot delete field 'depth' of a TowerPlan$"):
        del plan.depth
    # a result is true iff its ok field is
    results = [ConsistencyResult, FeasibilityResult, ValidationReport,
               lambda ok: ClosedFormReport(ok, None, (), (), True)]
    assert [(bool(make(True)), bool(make(False))) for make in results] == [(True, False)] * 4


# -- apf recursion ---------------------------------------------------------------


def test_apf_single_step():
    plan = TowerPlan("apf", 3, 2, depth=1, base_i1=2, base_i=4)
    seq = apf_plan(plan)
    assert seq.upper == (F(8, 3),)
    assert seq.levels == (3,)
    with pytest.raises(InputError, match="^apf_plan needs an apf plan, got kind 'nonapf'$"):
        apf_plan(TowerPlan("nonapf", 2, 2, schedule=(1, 3)))


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
    with pytest.raises(InputError, match="^closed_form_check applies to apf plans$"):
        closed_form_check(seq, TowerPlan("nonapf", 2, 2, schedule=(1, 3, 5)))
    with pytest.raises(InputError, match="^empty break sequence$"):
        closed_form_check(BreakSequence((), (), ()), plan)


# -- schedule towers --------------------------------------------------------------


def test_nonapf_odd_schedule():
    plan = TowerPlan("nonapf", 2, 2, schedule=tuple(range(1, 40, 2)))
    seq = nonapf_plan(plan)
    assert seq.upper == tuple(F(3) - F(2) ** (2 - n) for n in range(1, 21))
    assert seq.verdict == "non-APF"
    assert seq.limit_bound == F(3)
    with pytest.raises(InputError, match="^nonapf_plan needs a schedule plan, got kind 'apf'$"):
        nonapf_plan(TowerPlan("apf", 3, 2, depth=1, base_i1=2, base_i=4))


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


def test_merge_flags_equal_values_only():
    # a collision is an equal value, however written; a shared numerator or
    # denominator alone is not one
    a = BreakSequence.from_json_dict({"upper": ["1/2", "1/3", "1/3", "2"]})
    b = BreakSequence.from_json_dict({"upper": ["2/4", "1/5", "2/3", "4/2"]})
    assert compositum_merge([a, b]).flags == (True, False, False, True)


def test_merge_single_input_identity():
    a = _seq([1, 2, 4])
    merged = compositum_merge([a])
    assert merged.upper == a.upper
    assert not any(merged.flags)


def test_merge_horizon_mismatch():
    with pytest.raises(InputError):
        compositum_merge([_seq([1, 2]), _seq([1, 2, 3])])
    with pytest.raises(InputError, match="^compositum_merge needs at least one sequence$"):
        compositum_merge([])


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
    # a bound without a certificate proves nothing
    uncertified = _seq([1, 2, F(5, 2)], "non-APF", F(3))
    merged = compositum_merge([a, uncertified])
    assert (merged.verdict, merged.limit_bound, merged.certificate) == ("undetermined", None, None)


def test_repair_merge_fixtures():
    base = nonapf_plan(TowerPlan("nonapf", 2, 2, schedule=tuple(range(1, 9, 2))))
    upgraded = repair_merge(base, [k for k in range(1, 5)])
    assert upgraded.verdict == "APF"
    assert upgraded.upper == (F(1), F(2), F(3), F(4))
    unchanged = repair_merge(base, [0, 0, 0, 0])
    assert unchanged.upper == base.upper
    assert unchanged.verdict == base.verdict
    # only equal positive steps certify growth: a converging or a doubling
    # family says nothing about the tail
    for family in ([1, F(3, 2), F(7, 4), F(15, 8)], [1, 2, 4, 8], [1, 2, 3, 3]):
        assert repair_merge(base, family).verdict == "undetermined"
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


def _dominating_apf_tail_pairwise(seqs, merged):
    """The former merge walk: every certified APF input walked back against
    all the others, the earliest tail start kept."""
    best = None
    for idx, s in enumerate(seqs):
        if s.verdict != "APF" or s.certificate is None:
            continue
        k0 = None
        for k in range(len(merged) - 1, -1, -1):
            others = [t.upper[k] for j, t in enumerate(seqs) if j != idx]
            if s.upper[k] == merged[k] and all(v < s.upper[k] for v in others):
                k0 = k
            else:
                break
        if k0 is None:
            continue
        if best is None or k0 < best[1]:
            best = (idx, k0)
    return best


def _merge_inputs(rnd):
    """1-4 inputs of one horizon 0-5 with values 0-3, so ties are common,
    random verdicts and certificates, and some inputs the same object."""
    horizon, seqs = rnd.randint(0, 5), []
    for _ in range(rnd.randint(1, 4)):
        if seqs and rnd.random() < 0.2:
            seqs.append(rnd.choice(seqs))
        else:
            seqs.append(_seq([rnd.randint(0, 3) for _ in range(horizon)],
                             rnd.choice(["APF", "APF", "non-APF", "undetermined"]), None,
                             rnd.choice([None, "certified", "certified"])))
    return seqs


def test_dominating_tail_matches_pairwise_walk():
    rnd, found = random.Random(22), set()
    for _ in range(5000):
        seqs = _merge_inputs(rnd)
        merged = [max(vals) for vals in zip(*(s.upper for s in seqs))]
        want = _dominating_apf_tail_pairwise(seqs, merged)
        assert _dominating_apf_tail(seqs, merged) == want
        found.add(want and (len(seqs) > 1, want[1]))
    # a lone input dominates from the start; with others, tails of every start were found
    assert found >= {None, (False, 0), *((True, k) for k in range(5))}


# -- integer break arithmetic against the PLFunc-based forms ---------------------


def _fraction_admissible(j, p, e, strict=True):
    """Reference: j against the Fraction bound p*e/(p-1)."""
    bound = F(p * e, p - 1)
    if j > bound:
        return False
    return not (strict and j % p == 0 and j != bound)


def test_cyclic_break_admissible_matches_fraction_bound():
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 41):
            for j in range(1, p * e // (p - 1) + 4):
                for strict in (True, False):
                    assert cyclic_break_admissible(j, p, e, strict) == _fraction_admissible(
                        j, p, e, strict
                    )


def _plfunc_apf_plan(plan):
    """Reference: apf_plan stepping through invert(psi_step(b, p))."""
    p, e0, n_max = plan.p, plan.e0, plan.depth
    if plan.scaling == "scaled":
        e_i1, e_top = p ** (n_max - 1) * e0, p**n_max * e0
    else:
        e_i1, e_top = e0, p * e0
    i1, i = plan.base_i1, plan.base_i
    if not _fraction_admissible(i1, p, e_i1, strict=plan.strict):
        raise InfeasiblePlanError(f"base break i1 = {i1} is inadmissible over index {e_i1}")
    if not _fraction_admissible(i, p, e_top, strict=False):
        raise InfeasiblePlanError(f"base break i = {i} exceeds the cyclic bound at index {e_top}")
    if i <= i1:
        raise InfeasiblePlanError(f"base requires i > i1, got i = {i}, i1 = {i1}")
    if (i - i1) % p == 0:
        raise InfeasiblePlanError(f"p = {p} must not divide i - i1 = {i - i1}")
    upper, lower, levels = [invert(psi_step(i1, p)).eval(F(i))], [F(i1)], [3]
    for k in range(2, n_max + 1):
        brk, e_k = plan.step_break(k), plan.step_index(k)
        if not _fraction_admissible(brk, p, e_k, strict=plan.strict):
            raise InfeasiblePlanError(
                f"step break {brk} at level {2 * k + 1} is inadmissible over index {e_k}"
            )
        if upper[-1] < brk:
            raise InfeasiblePlanError(
                f"transition precondition fails at level {2 * k + 1}: "
                f"running break {upper[-1]} < step break {brk}"
            )
        upper.append(invert(psi_step(brk, p)).eval(upper[-1]))
        lower.append(F(brk))
        levels.append(2 * k + 1)
    if plan.scaling == "scaled":
        verdict_val, bound = "APF", None
        cert = (
            f"depth-scaled levels with bounded defects: upper-break increments "
            f"approach e0 = {e0} > 0, so the sequence is unbounded"
        )
    else:
        verdict_val, bound = "non-APF", max(upper[0], max(lower))
        cert = (
            "flat levels: each step contracts the running break toward its own "
            f"break, so the sequence never exceeds {bound}"
        )
    return BreakSequence(tuple(levels), tuple(lower), tuple(upper), verdict_val, bound, cert,
                         tuple(False for _ in upper))


def _doubling_constant(schedule, p):
    """Reference: c when the schedule runs t_(n+1) = p*t_n + c with c >= 1."""
    if len(schedule) < 2:
        return None
    c = schedule[1] - p * schedule[0]
    if c < 1 or any(b != p * a + c for a, b in zip(schedule, schedule[1:])):
        return None
    return c


def _plfunc_nonapf_plan(plan):
    """Reference: nonapf_plan reading the upper breaks off tower_psi and
    dividing consecutive differences of them."""
    p, e0 = plan.p, plan.e0
    schedule = list(plan.schedule)
    warnings, flags = [], [False] * len(schedule)
    for n, t in enumerate(schedule, start=1):
        e_n = p ** (n - 1) * e0
        if not _fraction_admissible(t, p, e_n, strict=plan.strict):
            raise InfeasiblePlanError(f"break {t} at level {n} is inadmissible over index {e_n}")
        if n >= 2 and (t - schedule[n - 2]) % p == 0:
            warnings.append(
                f"level {n}: p = {p} divides the break difference "
                f"{t} - {schedule[n - 2]}; non-normality of the step is not guaranteed"
            )
            flags[n - 1] = True
    upper = list(tower_psi(schedule, p).break_xs())
    diffs = [upper[k + 1] - upper[k] for k in range(len(upper) - 1)]
    verdict_val, bound, cert = "undetermined", None, None
    if plan.kind == "custom":
        doubling_c = _doubling_constant(schedule, p)
        if doubling_c is not None and diffs and all(d == diffs[0] for d in diffs):
            verdict_val = "APF"
            cert = (
                f"doubling schedule t_(n+1) = {p}*t_n + {doubling_c}: upper-break "
                f"increments are constant at {diffs[0]} > 0"
            )
    if verdict_val == "undetermined" and len(diffs) >= 2:
        ratios = [F(diffs[k + 1], 1) / diffs[k] for k in range(len(diffs) - 1)]
        r = max(ratios + [F(1, p)])
        if r < 1:
            verdict_val = "non-APF"
            bound = upper[-1] + diffs[-1] * r / (1 - r)
            cert = (
                f"increment ratios stay at or below {r} < 1; geometric "
                f"tail bounds the sequence by {bound}"
            )
    return BreakSequence(tuple(range(1, len(schedule) + 1)), tuple(F(t) for t in schedule),
                         tuple(upper), verdict_val, bound, cert, tuple(flags), tuple(warnings))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def _assert_same_outcome(fn, reference, plan):
    """Equal records, and equal printed bytes in both output formats."""
    got, want = _outcome(fn, plan), _outcome(reference, plan)
    assert got == want
    if isinstance(want, BreakSequence):
        assert got.to_json_dict() == want.to_json_dict()
        assert got.to_csv() == want.to_csv()


_primes = st.sampled_from([2, 3, 5, 7])

_increasing = st.builds(
    lambda start, deltas: tuple(start + sum(deltas[:k]) for k in range(len(deltas) + 1)),
    st.integers(min_value=1, max_value=20),
    st.lists(st.integers(min_value=1, max_value=30), max_size=14),
)


@st.composite
def _schedule_plans(draw):
    p = draw(_primes)
    if draw(st.booleans()):
        schedule = draw(_increasing)
    else:  # doubling: t_(n+1) = p*t_n + c, the custom kind's APF case
        t, c = draw(st.integers(min_value=1, max_value=10)), draw(st.integers(1, 5))
        schedule = [t]
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            schedule.append(p * schedule[-1] + c)
    return TowerPlan(draw(st.sampled_from(["nonapf", "custom"])), p,
                     draw(st.integers(min_value=1, max_value=40)),
                     schedule=tuple(schedule), strict=draw(st.booleans()))


@st.composite
def _apf_plans(draw):
    # e0 a multiple of p - 1 keeps the step breaks integral, and bases drawn
    # up to just past their cyclic bounds are mostly feasible
    p, m = draw(_primes), draw(st.integers(min_value=1, max_value=4))
    e0, depth = draw(st.sampled_from([(p - 1) * m, m])), draw(st.integers(1, 8))
    scaling = draw(st.sampled_from(["scaled", "flat"]))
    top = p * (p**depth * e0 if scaling == "scaled" else p * e0) // (p - 1)
    i1 = draw(st.integers(min_value=1, max_value=top // p + 1))
    return TowerPlan(
        "apf", p, e0, depth=depth,
        eps=tuple(draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))),
        base_i1=i1, base_i=draw(st.integers(min_value=i1 + 1, max_value=top + 1)),
        scaling=scaling, strict=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_schedule_plans())
def test_nonapf_plan_matches_plfunc_form(plan):
    _assert_same_outcome(nonapf_plan, _plfunc_nonapf_plan, plan)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_apf_plans())
def test_apf_plan_matches_plfunc_form(plan):
    _assert_same_outcome(apf_plan, _plfunc_apf_plan, plan)


def test_plans_build_no_transition_function(monkeypatch):
    built = []
    post_init = PLFunc.__post_init__
    monkeypatch.setattr(PLFunc, "__post_init__", lambda self: built.append(post_init(self)))
    plans = [
        TowerPlan("nonapf", 3, 10, schedule=tuple(range(1, 240, 2)), strict=False),
        TowerPlan("custom", 2, 2, schedule=(1, 3, 7, 15, 31)),
        TowerPlan("apf", 2, 2, depth=15, eps=(1,), base_i1=5, base_i=2**17),
        TowerPlan("apf", 2, 2, depth=2, eps=(1,), base_i1=4, base_i=5, scaling="flat",
                  strict=False),
    ]
    for plan in plans:
        evaluate_plan(plan)
    assert built == []
    tower_psi([1, 3], 2)
    assert len(built) == 1  # the counter sees every construction


def _seeded_schedule(shape, p, horizon, seed=20):
    rng = random.Random(seed)
    sched = [rng.randint(1, 5)]
    while len(sched) < horizon:
        last = sched[-1]
        sched.append({"random": last + rng.randint(1, 9), "arith": last + 2,
                      "doubling": p * last + 1}[shape])
    return sched


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("kind, shape, verdict_", [
    ("nonapf", "random", "undetermined"),
    ("nonapf", "arith", "non-APF"),
    ("custom", "doubling", "APF"),
])
def test_plan_run_builds_a_fraction_per_upper_break(kind, shape, verdict_, fmt, tmp_path,
                                                    capsys, monkeypatch):
    # only the printed rationals are Fractions: the upper breaks, plus the ratio,
    # increment or bound the certificate quotes; lower breaks stay the schedule's ints
    horizon, p = 120, 3
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": kind, "p": p, "e0": 10, "strict": False,
                                "schedule": _seeded_schedule(shape, p, horizon)}))
    argv = ["plan", "run", "--format", fmt, "--file", str(path)]
    assert main(argv) == 0  # loads the layers before counting
    capsys.readouterr()
    built, new = [], F.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    assert main(argv) == 0
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert f'"verdict": "{verdict_}"' in out
    assert len(built) <= horizon + 4
