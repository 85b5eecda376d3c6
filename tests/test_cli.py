"""End-to-end tests for the command line: schemas, exit codes, determinism."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import ramify
from ramify import build_heisenberg, build_tower_truncation, psi_step
from ramify.cli import main


def run_cli(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def heis3_file(tmp_path):
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(build_heisenberg(3).to_json_dict()))
    return str(path)


@pytest.fixture
def filt_file(tmp_path):
    data = {
        "group": build_heisenberg(3).to_json_dict(),
        "ig": [
            {"element": [0, 0, 1], "value": 5},
            {"element": [0, 0, 2], "value": 5},
        ],
        "default": 2,
    }
    path = tmp_path / "filt.json"
    path.write_text(json.dumps(data))
    return str(path)


# -- herbrand ---------------------------------------------------------------


def test_herbrand_step_eval(capsys):
    code, out, _ = run_cli(
        ["herbrand", "step", "--break", "1", "--p", "2", "--eval", "3"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"value": "5"}


def test_herbrand_step_function_json(capsys):
    code, out, _ = run_cli(["herbrand", "step", "--break", "2", "--p", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "breakpoints": [["2", "2"]],
        "slopes": ["1", "3"],
    }


def test_herbrand_compose_invert_eval(tmp_path, capsys):
    comp = tmp_path / "comp.json"
    comp.write_text(
        json.dumps(
            {
                "outer": psi_step(5, 2).to_json_dict(),
                "inner": psi_step(1, 2).to_json_dict(),
            }
        )
    )
    code, out, _ = run_cli(
        ["herbrand", "compose", "--file", str(comp), "--eval", "4"], capsys
    )
    assert code == 0 and json.loads(out) == {"value": "9"}

    func = tmp_path / "func.json"
    code, out, _ = run_cli(["herbrand", "compose", "--file", str(comp)], capsys)
    func.write_text(out)
    code, out, _ = run_cli(
        ["herbrand", "invert", "--file", str(func), "--eval", "9"], capsys
    )
    assert code == 0 and json.loads(out) == {"value": "4"}
    code, out, _ = run_cli(["herbrand", "eval", "--file", str(func), "--at", "4"], capsys)
    assert code == 0 and json.loads(out) == {"value": "9"}


def test_malformed_flag_exits_one(capsys):
    code, out, err = run_cli(["herbrand", "step", "--break", "1"], capsys)
    assert code == 1
    assert json.loads(err)["code"] == "malformed-input"
    code, _, err = run_cli(["herbrand", "step", "--break", "0", "--p", "2"], capsys)
    assert code == 1
    code, _, err = run_cli(["herbrand", "eval", "--file", "/nonexistent", "--at", "1"], capsys)
    assert code == 1
    assert "cannot read" in json.loads(err)["error"]
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        # past the digit limit of text-to-int conversion: the scanner defers, argparse refuses
        code, out, err = run_cli(["herbrand", "step", "--break", _HUGE, "--p", "2"], capsys)
        assert (code, out, json.loads(err)["code"]) == (1, "", "malformed-input")


# -- group --------------------------------------------------------------------


def test_group_check(heis3_file, capsys):
    code, out, _ = run_cli(["group", "check", "--file", heis3_file], capsys)
    assert code == 0
    assert json.loads(out) == {"consistent": True, "n": 3, "order": 27, "p": 3}


def test_group_check_series(heis3_file, capsys):
    code, out, _ = run_cli(
        ["group", "check", "--file", heis3_file, "--series"], capsys
    )
    assert code == 0
    series = json.loads(out)["series"]
    assert series["gamma_orders"] == [27, 3, 1]
    assert series["p_orders"] == [27, 3, 1]
    assert series["all_equal"] and series["gp_in_derived"]


def test_group_check_inconsistent_exits_three(tmp_path, capsys):
    data = {
        "p": 2,
        "n": 4,
        "power": [],
        "comm": [
            {"j": 2, "i": 1, "rhs": {"3": 1}},
            {"j": 3, "i": 1, "rhs": {"4": 1}},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["group", "check", "--file", str(path)], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["consistent"] is False
    assert report["witness"] == [[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]


def test_group_closure(heis3_file, capsys):
    code, out, _ = run_cli(
        ["group", "closure", "--file", heis3_file, "--gens", "[[0,1,0]]", "--normal"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 9
    assert [0, 0, 1] in report["elements"]
    code, out, _ = run_cli(
        ["group", "closure", "--file", heis3_file, "--gens", "[[0,1,0]]"], capsys
    )
    assert json.loads(out)["order"] == 3


def test_group_rank_and_probe(tmp_path, capsys):
    path = tmp_path / "trunc34.json"
    path.write_text(json.dumps(build_tower_truncation(3, 4).to_json_dict()))
    code, out, _ = run_cli(["group", "rank", "--file", str(path), "--k", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "indices": [3, 4],
        "k": 1,
        "min_generators": 2,
        "order": 9,
    }
    code, out, _ = run_cli(["group", "probe", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run_cli(
        ["group", "probe", "--file", str(path), "--tower", "1,2,3"], capsys
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_cap_env_var(heis3_file, capsys, monkeypatch):
    monkeypatch.setenv("RAMIFY_CAP", "10")
    code, _, err = run_cli(["group", "check", "--file", heis3_file], capsys)
    assert code == 4
    assert json.loads(err)["code"] == "cap-exceeded"
    monkeypatch.setenv("RAMIFY_CAP", "frogs")
    code, _, err = run_cli(["group", "check", "--file", heis3_file], capsys)
    assert code == 1


# -- filtration ------------------------------------------------------------------


def test_filtration_validate_ok(filt_file, capsys):
    code, out, _ = run_cli(["filtration", "validate", "--file", filt_file], capsys)
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_filtration_validate_reports_failure(tmp_path, capsys):
    data = {
        "group": build_heisenberg(3).to_json_dict(),
        "ig": [
            {"element": [0, 0, 1], "value": 5},
            {"element": [0, 0, 2], "value": 5},
            {"element": [1, 0, 0], "value": 5},
        ],
        "default": 2,
    }
    path = tmp_path / "bad_filt.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["filtration", "validate", "--file", str(path)], capsys)
    assert code == 0  # a query about validity, not a failure of the tool
    report = json.loads(out)
    assert report["ok"] is False
    assert report["level"] == "4"
    assert report["witness"] == [[1, 0, 0], [1, 0, 0]]


def test_filtration_herbrand(filt_file, capsys):
    code, out, _ = run_cli(["filtration", "herbrand", "--file", filt_file], capsys)
    assert code == 0
    assert json.loads(out) == {
        "breakpoints": [["1", "1"], ["4", "4/3"]],
        "slopes": ["1", "1/9", "1/27"],
    }


def test_filtration_upper(filt_file, capsys):
    code, out, _ = run_cli(
        ["filtration", "upper", "--file", filt_file, "--at", "6/5"], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "elements": [[0, 0, 0], [0, 0, 1], [0, 0, 2]],
        "order": 3,
    }


def test_filtration_quotient(filt_file, capsys):
    code, out, _ = run_cli(
        ["filtration", "quotient", "--file", filt_file, "--kernel", "[[0,0,1]]"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 9
    assert report["upper_breaks"] == ["1"]
    assert all(row["value"] == "2" for row in report["ig"])
    assert len(report["ig"]) == 8


# -- plan --------------------------------------------------------------------------


def test_plan_feasible_exit_codes(capsys):
    ok = ["plan", "feasible", "--i", "1", "--j", "3", "--s", "5", "--p", "2", "--e", "2"]
    code, out, _ = run_cli(ok, capsys)
    assert code == 0 and json.loads(out)["feasible"] is True
    bad = ["plan", "feasible", "--i", "1", "--j", "1", "--s", "3", "--p", "2", "--e", "2"]
    code, out, _ = run_cli(bad, capsys)
    assert code == 2 and json.loads(out)["feasible"] is False


def test_plan_admissible_exit_codes(capsys):
    base = ["plan", "admissible", "--j", "2", "--p", "2", "--e", "2"]
    code, out, _ = run_cli(base, capsys)
    assert code == 2 and json.loads(out) == {"admissible": False}
    code, out, _ = run_cli(base + ["--bound-only"], capsys)
    assert code == 0 and json.loads(out) == {"admissible": True}


def test_plan_run_nonapf_csv(tmp_path, capsys):
    plan = {"kind": "nonapf", "p": 2, "e0": 2, "schedule": [1, 3, 5, 7]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    code, out, _ = run_cli(["plan", "run", "--file", str(path)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,lower_break,upper_break,flag"
    assert lines[4].split(",")[2] == "11/4"
    trailer = json.loads(lines[5])
    assert trailer["verdict"] == "non-APF"
    assert trailer["limit_bound"] == "3"


def test_plan_run_apf_json(tmp_path, capsys):
    plan = {
        "kind": "apf",
        "p": 2,
        "e0": 2,
        "eps": [1],
        "base": {"i1": 5, "i": 16},
        "depth": 3,
    }
    path = tmp_path / "apf.json"
    path.write_text(json.dumps(plan))
    code, out, _ = run_cli(
        ["plan", "run", "--file", str(path), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["upper"] == ["21/2", "27/4", "47/8"]
    assert report["levels"] == [3, 5, 7]


def test_plan_run_infeasible_exits_two(tmp_path, capsys):
    plan = {
        "kind": "apf",
        "p": 2,
        "e0": 2,
        "eps": [1],
        "base": {"i1": 5, "i": 16},
        "depth": 4,
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(plan))
    code, _, err = run_cli(["plan", "run", "--file", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["code"] == "infeasible-plan"


def test_plan_sweep_jobs_match(tmp_path, capsys):
    sweep = {
        "plans": [
            {"kind": "nonapf", "p": 2, "e0": 2, "schedule": [1, 3, 5, 7]},
            {"kind": "custom", "p": 2, "e0": 2, "schedule": [1, 3, 7, 15]},
        ]
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    base = ["plan", "run", "--file", str(path), "--format", "json"]
    code, seq_out, _ = run_cli(base, capsys)
    assert code == 0
    code, par_out, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert code == 0
    assert seq_out == par_out  # input order preserved under parallel evaluation
    results = json.loads(seq_out)["results"]
    assert results[0]["verdict"] == "non-APF"
    assert results[1]["verdict"] == "APF"


# -- merge --------------------------------------------------------------------------


def _seq_json(vals, **kw):
    data = {"upper": vals}
    data.update(kw)
    return data


def test_merge_max(tmp_path, capsys):
    data = {
        "sequences": [
            _seq_json(["1", "2", "5/2"]),
            _seq_json(["1", "2", "3"]),
        ]
    }
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["merge", "max", "--file", str(path), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["upper"] == ["1", "2", "3"]
    assert report["flags"] == [True, True, False]


def test_merge_repair(tmp_path, capsys):
    base = _seq_json(
        ["1", "2", "5/2", "11/4"],
        verdict="non-APF",
        limit_bound="3",
        certificate="geometric increments",
    )
    data = {"base": base, "family": ["1", "2", "3", "4"]}
    path = tmp_path / "repair.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["merge", "repair", "--file", str(path), "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["upper"] == ["1", "2", "3", "4"]
    assert report["verdict"] == "APF"


def test_merge_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "bad_merge.json"
    path.write_text(json.dumps({"sequences": [_seq_json(["1"])], "extra": 1}))
    code, _, err = run_cli(["merge", "max", "--file", str(path)], capsys)
    assert code == 1
    assert "unknown merge fields" in json.loads(err)["error"]


# -- strict schema at the boundary -----------------------------------------------

_DEEP = "[" * 50_000 + "]" * 50_000
_HEIS3 = build_heisenberg(3).to_json_dict()


def _merge_input(**fields):
    return {"sequences": [dict({"upper": ["1", "2"]}, **fields), {"upper": ["1", "3"]}]}


def _filtration_input(*elements):
    ig = [{"element": x, "value": 5} for x in elements]
    return {"group": _HEIS3, "ig": ig, "default": 2}


@pytest.mark.parametrize(
    "argv, data",
    [
        (["plan", "run"], _DEEP),
        (["group", "closure", "--gens", _DEEP], _HEIS3),
        (["filtration", "quotient", "--kernel", _DEEP], _filtration_input([0, 0, 1], [0, 0, 2])),
        (["merge", "max"], _merge_input(levels=[[1], 2])),
        (["merge", "max"], _merge_input(upper=5)),
        (["merge", "max"], _merge_input(flags=3)),
        (["group", "check"], {"p": 3, "n": 3, "comm": [{"j": 2.7, "i": 1, "rhs": {"3": 1}}]}),
        (["group", "check"], {"p": 3, "n": 2, "power": [{"j": 1, "rhs": {"2": True}}]}),
        (["group", "check"], {"p": 3, "n": 2, "power": [{"j": 1, "rhs": {"2": "1"}}]}),
        (["filtration", "validate"], _filtration_input(5)),
        (["filtration", "validate"], _filtration_input([True, 0, 0])),
        (["herbrand", "eval", "--at", "1"], {"breakpoints": [["1", "1"]], "slopes": "12"}),
        (["herbrand", "eval", "--at", "1"], {"slopes": ["1"], "junk": 1}),
    ],
    ids=[
        "deep-file", "deep-gens", "deep-kernel", "levels-list", "upper-scalar",
        "flags-scalar", "float-index", "bool-exponent", "string-exponent",
        "element-scalar", "element-bool", "slopes-string", "pl-unknown-field",
    ],
)
def test_malformed_input_exits_one(argv, data, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run_cli(argv + ["--file", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["code"] == "malformed-input"


_HUGE = "1" * 5000  # past CPython's 4,300-digit limit on converting an int


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this CPython converts integers of any length")
@pytest.mark.parametrize(
    "argv, data, named",
    [
        (["group", "check"], '{"p": %s, "n": 3}' % _HUGE, None),
        (["group", "closure", "--gens", "[[%s, 0, 0]]" % _HUGE], _HEIS3, "--gens"),
        (["filtration", "quotient", "--kernel", "[[%s, 0, 0]]" % _HUGE],
         _filtration_input([0, 0, 1], [0, 0, 2]), "--kernel"),
    ],
    ids=["file", "gens", "kernel"],
)
def test_oversized_json_integer_exits_one(argv, data, named, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run_cli(argv + ["--file", str(path)], capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "malformed-input"
    assert error["error"].startswith(f"{named or path} is not valid JSON: ")


# -- sweep worker count ------------------------------------------------------------


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def sweep3_file(tmp_path):
    plan = {"kind": "nonapf", "p": 2, "e0": 2, "schedule": [1, 3, 5, 7]}
    path = tmp_path / "sweep3.json"
    path.write_text(json.dumps({"plans": [plan] * 3}))
    return str(path)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(16, 8, 3), (2, 8, 2), (3, 2, 2), (4, 1, None), (4, None, None), (1, 8, None)],
)
def test_sweep_worker_count(jobs, cpus, workers, sweep3_file, capsys, monkeypatch):
    import ramify.cli

    # the pool class where the deferred import in the sweep branch looks it up
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(ramify.cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "created", [])
    argv = ["plan", "run", "--file", sweep3_file]
    code, out, _ = run_cli(argv + ["--jobs", str(jobs)], capsys)
    assert code == 0
    assert _RecordingPool.created == ([] if workers is None else [workers])
    assert out == run_cli(argv, capsys)[1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(jobs, sweep3_file, capsys):
    code, out, err = run_cli(["plan", "run", "--file", sweep3_file, "--jobs", jobs], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "code": "malformed-input",
        "error": f"--jobs must be at least 1, got {jobs}",
    }


# -- output plumbing ---------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, heis3_file, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["group", "check", "--file", heis3_file, "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    on_disk = target.read_text()
    code, stdout_run, _ = run_cli(["group", "check", "--file", heis3_file], capsys)
    assert on_disk == stdout_run


def test_out_flag_into_missing_directory_exits_one(tmp_path, heis3_file, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        ["group", "check", "--file", heis3_file, "--out", str(target)], capsys
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "malformed-input"
    assert json.loads(err)["error"].startswith(f"cannot write {target}: ")
    assert not target.parent.exists()


def test_repeated_runs_identical(filt_file, capsys):
    argv = ["filtration", "quotient", "--file", filt_file, "--kernel", "[[0,0,1]]"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
                    reason="no digit limit on int-to-str conversion")
def test_output_past_the_digit_limit_is_cap_exceeded(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    want = {"code": "cap-exceeded",
            "error": f"output: an integer has more than {limit} digits, the limit of int-to-str "
                     "conversion"}
    # psi(x) = 1 + 3(x - 1) is a rational of limit + 1 digits, printed by format_rat
    argv = ["herbrand", "step", "--break", "1", "--p", "3", "--eval", "9" * limit]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, json.loads(err)) == (4, "", want)
    # an order p^n of more than limit digits, printed by json.dumps
    p = 10**16 + 61
    pres = tmp_path / "big.json"
    pres.write_text(json.dumps({"p": p, "n": limit // 16 + 1}))
    code, out, err = run_cli(["group", "check", "--file", str(pres)], capsys)
    assert (code, out, json.loads(err)) == (4, "", want)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits(),
                    reason="no digit limit on int-to-str conversion")
@pytest.mark.parametrize("plan", [
    {"kind": "nonapf", "schedule": [1, 22]},
    {"kind": "apf", "depth": 2, "eps": [1], "base": {"i1": 11, "i": 13}},
], ids=["nonapf-e_n", "apf-e_i1"])
def test_plan_error_quoting_an_index_past_the_digit_limit_is_cap_exceeded(plan, tmp_path, capsys):
    # e0 has exactly limit digits, so it parses, but the level-2 index 11*e0 that
    # the inadmissibility text quotes does not print
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({**plan, "p": 11, "e0": 10**limit - 1}))
    code, out, err = run_cli(["plan", "run", "--file", str(path)], capsys)
    assert (code, out, json.loads(err)["code"]) == (4, "", "cap-exceeded")


def test_memory_error_exits_four_with_json_error(heis3_file, capsys, monkeypatch):
    import ramify.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "group", (exhausted, *cli._COMMANDS["group"][1:]))
    code, out, err = run_cli(["group", "check", "--file", heis3_file], capsys)
    assert (code, out, json.loads(err)) == (4, "", {"code": "cap-exceeded",
                                                    "error": "out of memory"})


def test_parser_built_once_and_reusable(heis3_file, capsys):
    from ramify.cli import build_parser

    argv = ["group", "closure", "--file", heis3_file, "--gens", "[[0,1,0]]", "--normal"]
    first = run_cli(argv, capsys)
    code, out, err = run_cli(["group", "closure", "--file", heis3_file], capsys)
    assert (code, out, json.loads(err)["code"]) == (1, "", "malformed-input")
    assert run_cli(argv, capsys) == first
    assert first[0] == 0
    assert build_parser() is build_parser()


# -- schema fuzzing ------------------------------------------------------------------

_GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# one valid input per subcommand that reads --file, with the flags it needs
_FUZZ_CASES = {
    "herbrand-compose": (["herbrand", "compose"], "compose.json"),
    "herbrand-invert": (["herbrand", "invert", "--eval", "2"], "tower.json"),
    "herbrand-eval": (["herbrand", "eval", "--at", "7/2"], "tower.json"),
    "group-check": (["group", "check", "--series"], "trunc34.json"),
    "group-closure": (["group", "closure", "--gens", "[[0,1,0,0]]", "--normal"], "trunc34.json"),
    "group-series": (["group", "series"], "heis3.json"),
    "group-rank": (["group", "rank", "--k", "1"], "trunc34.json"),
    "group-probe": (["group", "probe"], "trunc34.json"),
    "filtration-validate": (["filtration", "validate"], "filt_levels.json"),
    "filtration-herbrand": (["filtration", "herbrand"], "filt_levels.json"),
    "filtration-upper": (["filtration", "upper", "--at", "3/2"], "filt_levels.json"),
    "filtration-quotient": (["filtration", "quotient", "--kernel", "[[0,0,1]]"], "filt_levels.json"),
    "plan-run": (["plan", "run"], "plan_apf_scaled.json"),
    "plan-sweep": (["plan", "run", "--format", "json"], "sweep.json"),
    "merge-max": (["merge", "max"], "merge_max.json"),
    "merge-repair": (["merge", "repair"], "merge_repair.json"),
}

_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.floats(allow_nan=False, width=16),
    st.sampled_from(["", "1", "-1", "2/3", "1/0", "x", "1e3", "  3 "]), st.text(max_size=4),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, path + (idx,))


_rationals = st.sampled_from(["0", "1", "2", "3", "5", "-1", "1/2", "7/3", "10", "1/0"])


def _like(value):
    """Values of the same JSON kind, so a mutation can get past the schema."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-2, 10)
    if isinstance(value, str):
        return _rationals
    if isinstance(value, list):
        return st.sampled_from([value[::-1], value + value[-1:], value[1:]])
    return _json_values


@st.composite
def _mutated(draw, doc):
    """``doc`` with one node replaced, tweaked, deleted, or given an extra entry."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(_json_values)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    op = draw(st.sampled_from(["replace", "tweak", "tweak", "delete", "insert"]))
    if op == "replace":
        parent[path[-1]] = draw(_json_values)
    elif op == "tweak":
        parent[path[-1]] = draw(_like(parent[path[-1]]))
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=3))] = draw(_json_values)
    else:
        parent.insert(path[-1], draw(_json_values))
    return doc


def _group_sizes(node):
    """Every generator count ``n`` anywhere in the document."""
    if isinstance(node, dict):
        if isinstance(node.get("n"), int):
            yield node["n"]
        for value in node.values():
            yield from _group_sizes(value)
    elif isinstance(node, list):
        for value in node:
            yield from _group_sizes(value)


@pytest.mark.parametrize("name", sorted(_FUZZ_CASES))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_exit_with_json_errors(name, data, tmp_path, monkeypatch):
    argv, source = _FUZZ_CASES[name]
    doc = data.draw(_mutated(json.loads((_GOLDEN_INPUTS / source).read_text())))
    assume(all(n <= 4 for n in _group_sizes(doc)))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("RAMIFY_CAP", "300")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--file", str(path)])
    event(f"exit {code}")
    assert code in range(5)
    if code == 0:
        assert err.getvalue() == ""
    elif argv[:2] == ["group", "check"] and code == 3 and err.getvalue() == "":
        # the consistency verdict itself is the output of group check
        assert json.loads(out.getvalue())["consistent"] is False
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"code", "error"}


# -- start-up: each command family loads its own layer -------------------------------

# the directory holding the ramify this process imported, as criterion 12 passes it
_SRC = str(Path(ramify.__file__).resolve().parent.parent)
_LAYERS = {"ramify.herbrand", "ramify.pcgroup", "ramify.filtration", "ramify.planner"}
_NOT_AT_START = {"dataclasses", "concurrent.futures"}
# a regular argv is scanned off the flag table; argparse serves help and usage errors
_ARGPARSE = {"argparse", "gettext"}
# exact rationals: only the families that read or print a rational load them
_RATIONAL = {"ramify.ratio", "fractions", "decimal", "numbers"}


def _fresh(code: str, *flags: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter, given ``flags``, on the same ramify."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + os.pathsep + inherited if inherited else _SRC
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(code: str) -> set:
    """Modules that ``code`` adds to sys.modules in a fresh interpreter."""
    wrapped = ("import json, sys; _before = set(sys.modules)\n" + code
               + "\nprint(json.dumps(sorted(set(sys.modules) - _before)))")
    return set(json.loads(_fresh(wrapped).splitlines()[-1]))


def test_bare_import_loads_no_layer():
    loaded = _loaded_by("import ramify.cli")
    package = {m for m in loaded if m.startswith("ramify")}
    assert package == {"ramify", "ramify.cli", "ramify.errors"}
    assert not loaded & (_LAYERS | _NOT_AT_START | _ARGPARSE | _RATIONAL)


def test_quotient_from_pcgroup_alone_loads_no_rationals():
    # G/Z(G) of the Heisenberg group: a pc group of order 9, built on integers alone
    code = ("import json\nfrom ramify.pcgroup import CosetGroup, PcGroup, PcPresentation\n"
            f"with open({str(_GOLDEN_INPUTS / 'heis3.json')!r}) as fh:\n"
            "    g = PcGroup(PcPresentation.from_json_dict(json.load(fh)))\n"
            "q = CosetGroup(g, g.subgroup([g.generator(3)], normal=True))\n"
            "assert q.order == 9 and q.project((1, 2, 1)) == (1, 2)")
    loaded = _loaded_by(code)
    assert "ramify.pcgroup" in loaded
    assert not loaded & (_RATIONAL | {"ramify.filtration"})


# one command per family, with the layers it loads
_FAMILY_RUNS = pytest.mark.parametrize(
    "argv, layers",
    [
        (["herbrand", "step", "--break", "1", "--p", "2"], {"ramify.herbrand"}),
        (["group", "check", "--file", "heis3.json"], {"ramify.pcgroup"}),
        (["filtration", "validate", "--file", "filt_levels.json"],
         {"ramify.pcgroup", "ramify.filtration", "ramify.herbrand"}),
        (["plan", "run", "--file", "sweep.json", "--jobs", "1"],
         {"ramify.planner", "ramify.herbrand"}),
        (["merge", "max", "--file", "merge_max.json"], {"ramify.planner", "ramify.herbrand"}),
    ],
    ids=["herbrand", "group", "filtration", "plan", "merge"],
)


def _run_code(argv) -> str:
    argv = [str(_GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in argv]
    return f"import ramify.cli\nassert ramify.cli.main({argv!r}) == 0"


@_FAMILY_RUNS
def test_each_family_loads_only_its_layers(argv, layers):
    loaded = _loaded_by(_run_code(argv))
    assert loaded & _LAYERS == layers
    # the layers' records load neither dataclasses nor inspect
    assert not loaded & (_NOT_AT_START | _ARGPARSE | {"inspect"})
    # group commands run on integers alone; every other family reads or prints rationals
    if argv[0] == "group":
        assert not loaded & _RATIONAL
    else:
        assert "ramify.ratio" in loaded


@_FAMILY_RUNS
def test_no_family_loads_typing(argv, layers):
    # -S: the site module, which may load typing itself, does not run
    code = _run_code(argv) + "\nimport sys\nprint('typing' in sys.modules)"
    assert _fresh(code, "-S").splitlines()[-1] == "False"


def test_usage_error_loads_argparse_and_keeps_its_bytes():
    case = next(c for c in json.loads((_GOLDEN_INPUTS.parent / "cases.json").read_text())
                if c["name"] == "missing-flag")
    code = ("import contextlib, io, json, sys\nimport ramify.cli\nerr = io.StringIO()\n"
            f"with contextlib.redirect_stderr(err):\n    rc = ramify.cli.main({case['argv']!r})\n"
            "print(json.dumps([rc, err.getvalue(), 'argparse' in sys.modules]))")
    assert json.loads(_fresh(code)) == [case["exit"], case["stderr"], True]


# every name bench/spans.py wraps on ramify.cli, by home module
_PATCHED_ON_CLI = {
    "cli": ("main",),
    "ratio": ("format_rat", "parse_rat"),
    "herbrand": ("psi_step", "compose", "invert"),
    "planner": ("evaluate_plan", "compositum_merge", "repair_merge", "break_triple_feasible",
                "cyclic_break_admissible"),
    "pcgroup": ("consistency_check",),
    "filtration": ("quotient_filtration",),
}


def test_patched_names_resolve_after_bare_import():
    checks = [f"ramify.cli.{name} is ramify.{module}.{name}"
              for module, names in _PATCHED_ON_CLI.items() for name in names]
    code = ("import ramify.cli\nfrom ramify import cli, ratio, herbrand, planner, pcgroup, "
            "filtration\nprint(all([" + ", ".join(checks) + "]))")
    assert _fresh(code) == "True\n"


def test_patch_set_before_first_job_is_called():
    code = f"""
import ramify.cli as cli
from ramify.pcgroup import consistency_check
from ramify.planner import evaluate_plan

calls = []

def recorder(fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper

cli.evaluate_plan = recorder(evaluate_plan)
cli.consistency_check = recorder(consistency_check)
assert cli.main(["plan", "run", "--file", {str(_GOLDEN_INPUTS / "sweep.json")!r}]) == 0
assert cli.main(["group", "check", "--file", {str(_GOLDEN_INPUTS / "heis3.json")!r}]) == 0
print(calls)
"""
    calls = _fresh(code).splitlines()[-1]
    assert calls.count("evaluate_plan") == len(
        json.loads((_GOLDEN_INPUTS / "sweep.json").read_text())["plans"])
    assert calls.endswith("'consistency_check']")


def test_package_namespace_is_lazy_and_complete():
    expected = {
        "errors": ["RamifyError", "InputError", "InfeasiblePlanError",
                   "InconsistentPresentationError", "CapExceededError"],
        "ratio": ["format_rat", "parse_rat", "is_prime"],
        "herbrand": ["PLFunc", "identity_func", "psi_step", "compose", "invert", "tower_psi",
                     "tower_upper_breaks"],
        "pcgroup": ["PcPresentation", "PcGroup", "Subgroup", "ConsistencyResult",
                    "consistency_check", "build_heisenberg", "build_tower_truncation",
                    "shipped_truncations", "DEFAULT_CAP"],
        "filtration": ["RamFiltration", "CosetGroup", "ValidationReport", "quotient_filtration"],
        "planner": ["TowerPlan", "BreakSequence", "FeasibilityResult", "ClosedFormReport",
                    "cyclic_break_admissible", "break_triple_feasible", "apf_plan",
                    "closed_form_check", "nonapf_plan", "evaluate_plan", "compositum_merge",
                    "repair_merge", "verdict"],
    }
    assert ramify.__all__ == ["__version__"] + [n for names in expected.values() for n in names]
    for module, names in expected.items():
        home = importlib.import_module(f"ramify.{module}")
        for name in names:
            assert getattr(ramify, name) is getattr(home, name)
    assert ramify.CosetGroup is importlib.import_module("ramify.pcgroup").CosetGroup
    with pytest.raises(AttributeError):
        ramify.no_such_name
    assert not {m for m in _loaded_by("import ramify") if m.startswith("ramify.")}


def test_sweep_runs_in_spawned_workers(capsys):
    # a spawned worker starts from a bare import of ramify.cli; two CPUs even on
    # a one-CPU runner, and the pool module loaded shows the pool branch ran
    argv = ["plan", "run", "--file", str(_GOLDEN_INPUTS / "sweep.json"), "--jobs", "2"]
    code = ("import multiprocessing, os, sys\nmultiprocessing.set_start_method('spawn')\n"
            "os.cpu_count = lambda: 2\n"
            f"import ramify.cli\nassert ramify.cli.main({argv!r}) == 0\n"
            "assert 'concurrent.futures' in sys.modules")
    assert _fresh(code) == run_cli(argv[:-2], capsys)[1]
