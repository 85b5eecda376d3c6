"""Golden CLI corpus: exit code, stdout and stderr of every case, byte for byte.

The cases live in tests/golden/cases.json; their inputs in tests/golden/inputs.
Each runs through ramify.cli.main(argv) in-process with tests/golden as the
working directory (see tests/golden/generate.py for how they were recorded).
"""

import json
from pathlib import Path

import pytest

from ramify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("RAMIFY_CAP", raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


def test_corpus_covers_every_subcommand_and_exit_code():
    from ramify.cli import build_parser

    seen = {tuple(c["argv"][:2]) for c in CASES}
    parser = build_parser()
    top = next(a for a in parser._actions if a.dest == "command")
    for command, sub in top.choices.items():
        actions = next(a for a in sub._actions if a.dest == "action")
        for action in actions.choices:
            assert (command, action) in seen
    assert {c["exit"] for c in CASES} == {0, 1, 2, 3, 4}
