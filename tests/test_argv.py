"""The argv front end: the direct scanner agrees with argparse, help keeps its bytes.

ramify.cli declares every family, action and flag once, in ``_COMMANDS``.
``_scan`` reads a regular argv straight off that table, and ``build_parser``
builds the argparse parser from it for everything else.  The scanner must
return the namespace argparse would, or None to defer to it.

tests/golden/help.json holds the stdout of ``ramify [family [action]] --help``
at COLUMNS=80 for every page, as ``_help_page`` produces it, recorded with the
argparse-only parser that the table replaced.  argparse's layout changes
between Python minor versions, so the pages are compared only on the version
they were recorded on.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ramify import cli
from ramify.errors import InputError

GOLDEN = Path(__file__).resolve().parent / "golden"
HELP = json.loads((GOLDEN / "help.json").read_text())
CASES = json.loads((GOLDEN / "cases.json").read_text())
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _help_page(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


def _argparse_vars(argv):
    """vars() of argparse's namespace for ``argv``, or None where it rejects it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (InputError, SystemExit):
            return None


def _pages() -> list:
    pages = [""]
    for family, (_, _, actions) in cli._COMMANDS.items():
        pages += [family] + [f"{family} {action}" for action in actions]
    return pages


def test_help_pages_cover_the_table():
    assert list(HELP["pages"]) == _pages()


@pytest.mark.skipif(HELP["python"] != "%d.%d" % sys.version_info[:2],
                    reason="argparse lays help out differently on other Python minor versions")
def test_help_pages_keep_their_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    for page, text in HELP["pages"].items():
        assert _help_page(page.split()) == text, page


def test_golden_argv_scan_as_argparse_parses_them():
    # the corpus's usage errors defer; every other argv is scanned
    deferred = set()
    for case in CASES:
        scanned = cli._scan(case["argv"])
        if scanned is None:
            deferred.add(case["name"])
        else:
            assert vars(scanned) == _argparse_vars(case["argv"]), case["name"]
    assert deferred == {"no-command", "missing-flag", "herbrand-eval-negative"}


def test_bench_job_argv_all_scan(tmp_path, monkeypatch):
    # one round of each workload, with its shared error-path and canary jobs
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = pytest.importorskip("workloads")
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        for job in workloads.build(name, 1, workdir, 1):
            scanned = cli._scan(job.argv)
            assert scanned is not None, job.argv
            assert vars(scanned) == _argparse_vars(job.argv), job.argv


# value texts the scanner must defer on, besides the regular ones drawn below
_BAD_INTS = ["-3", "+3", "1_0", " 7", "7 ", "٣", "", "0x1", "3.0", "9" * 5000]
_BAD_STRS = ["", "-x", "-1", "-1/2", "--out", "--file", "-", "--", "-h"]
_EXTRA = ["--bogus", "extra", "--", "-h", "--help", "--f", "--fi", "--e", "--s", "--o", "--ou",
          "-", "--out", "--file"]


def _rarely(draw, n=6) -> bool:
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def _flag_tokens(draw, option, kw):
    """One occurrence of a flag: exact or abbreviated, joined by "=" or not, or bare."""
    spelling = option[:draw(st.integers(2, len(option) - 1))] if _rarely(draw) else option
    if kw.get("action") == "store_true":
        if _rarely(draw):
            return [spelling + "=" + draw(st.sampled_from(["", "1", "x"]))]
        return [spelling]
    if _rarely(draw, 4):
        value = draw(st.sampled_from(_BAD_INTS if kw.get("type") is int else _BAD_STRS))
    elif kw.get("type") is int:
        value = str(draw(st.integers(0, 10**30)))
    elif "choices" in kw:
        value = draw(st.sampled_from(kw["choices"]))
    else:
        value = draw(st.sampled_from(["x", "a=b", "1/2", "0", "csv", "two words", "[[0,1]]"]))
    if _rarely(draw, 10):
        return [spelling]  # no value, or the next flag taken for one
    return [f"{spelling}={value}"] if _rarely(draw, 3) else [spelling, value]


@st.composite
def _argvs(draw):
    family = draw(st.sampled_from(list(cli._COMMANDS)))
    actions = cli._COMMANDS[family][2]
    action = draw(st.sampled_from(list(actions)))
    groups = []
    for option, kw in (*actions[action][1], cli._OUT):
        # missing, once or repeated; a required flag is mostly there
        times = draw(st.sampled_from([0, 1, 1, 1, 1, 2] if kw.get("required") else [0, 0, 1, 2]))
        groups += [draw(_flag_tokens(option, kw)) for _ in range(times)]
    groups = draw(st.permutations(groups))
    if _rarely(draw):
        groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(_EXTRA))])
    head = [family, action]
    if _rarely(draw, 10):
        head = draw(st.sampled_from([[family], [family[:-1], action], [action, family],
                                     [family, action[:-1]], [family, "--help", action]]))
    return head + [token for group in groups for token in group]


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_argvs())
def test_scan_defers_or_matches_argparse(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        assert vars(scanned) == _argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["plan", "run", "--f", "x"],  # ambiguous: --file or --format
    ["plan", "run", "--fi", "x"],  # a prefix argparse would expand
    ["herbrand", "step", "--break", "1", "--p", "-3"],
    ["herbrand", "step", "--break", "1", "--p=+3"],
    ["herbrand", "step", "--break", "1_0", "--p", "3"],
    ["herbrand", "step", "--break", " 1", "--p", "3"],
    ["herbrand", "step", "--break", "٣", "--p", "3"],
    ["herbrand", "step", "--break", "1", "--p", "3", "--eval", "-1"],
    ["herbrand", "step", "--break", "1", "--p", "3", "--eval="],
    ["herbrand", "step", "--break", "1", "--p", "3", "--eval"],
    ["herbrand", "step", "--break", "1", "--p", "3", "--"],
    ["herbrand", "step", "--help"],
    ["group", "check", "--file", "x", "--series=1"],
    ["plan", "run", "--file", "x", "--format", "xml"],
    ["plan", "run", "--file", "x", "extra"],
])
def test_irregular_argv_defers(argv):
    assert cli._scan(argv) is None


def test_equals_form_and_repeats_scan():
    scanned = cli._scan(["filtration", "upper", "--at=-1", "--file", "f", "--at", "2"])
    assert vars(scanned) == {"command": "filtration", "action": "upper", "file": "f", "at": "2",
                             "out": None}
    argv = ["plan", "admissible", "--j=007", "--p", "3", "--e", "1", "--bound-only"]
    assert vars(cli._scan(argv)) == _argparse_vars(argv)
