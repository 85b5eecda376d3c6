"""Rewrite the expected exit code, stdout and stderr of every golden case.

Usage (from the repository root): PYTHONPATH=src python3 tests/golden/generate.py

Each case in cases.json runs through ramify.cli.main(argv) in-process with
this directory as the working directory, so input paths stay relative and
error messages that quote them are stable.  The corpus is the behaviour
contract of the CLI: rewrite it only for a change whose new output is
intended, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.json"


def run_case(case: dict) -> dict:
    from ramify.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved_env = {k: os.environ.get(k) for k in case.get("env", {})}
    os.environ.update(case.get("env", {}))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
    finally:
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    os.chdir(HERE)
    os.environ.pop("RAMIFY_CAP", None)
    cases = json.loads(CASES.read_text())
    for case in cases:
        case.update(run_case(case))
    CASES.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
