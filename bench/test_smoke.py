"""Smoke test for the benchmark: one short run per workload, one traced run.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
It checks that every metric BENCHMARK.json declares is printed with its unit,
that every job's oracle reached a verdict on its output, and that only the
known defects fail.  Takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.strip() == f"{m['name']} = {got['value']} {m['unit']}" for line in lines)
    checked = next(re.fullmatch(r"oracle_checked (\d+) of (\d+) jobs; output_sha256 [0-9a-f]{64}", line)
                   for line in lines if line.startswith("oracle_checked"))
    assert checked and checked.group(1) == checked.group(2)
    assert result["correct"] is True
    assert not any("UNEXPECTED" in line for line in lines)
    assert result["failed"] < result["attempted"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    lines, result = bench(workload, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert result["attempted"] >= 100


def test_per_layer_metrics():
    lines, result = bench(SPEC["workloads"][0]["name"], 1)
    assert_metrics(lines, result, SPEC["per_layer"])

