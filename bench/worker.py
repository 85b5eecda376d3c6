"""Runs one workload's job list in a fresh interpreter, one job at a time.

Usage: python3 worker.py WORKDIR

WORKDIR holds jobs.json (written by run.py) and the job input files; the
worker runs with WORKDIR as its current directory, imports ramify.cli and
calls ramify.cli.main(argv) per job with stdout and stderr captured.  The
whole list is one pass; passes repeat until the time budget is spent.  The
first pass's outputs are kept for the oracles, later passes are compared to
it by digest.  Between jobs of the untraced run, fresh interpreters time
`import ramify.cli` at even intervals (setup time).  With tracing on, every
pass after the first runs each job twice in a row, with the span recorders
off and on in turn, so the host's drift weighs on both sides of the overhead
ratio alike.
Results go to WORKDIR/results.json, spans to WORKDIR/spans.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import ramify.cli

import spans


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ramify.cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed job, not a crash
            rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def digest(rc, out, err) -> str:
    return hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()


SETUP_CODE = ("import time; t = time.perf_counter(); import ramify.cli; "
              "print(time.perf_counter() - t)")


class SetupProbe:
    """Times up to `launches` fresh interpreters importing ramify.cli, one
    every `every` seconds, so they sample the whole run, not one moment of it."""

    def __init__(self, launches: int, every: float):
        self.launches, self.every, self.due, self.times = launches, every, 0.0, []

    def __call__(self) -> float:
        """Launch if one is due; return the seconds spent (0 if none was)."""
        start = time.perf_counter()
        if start < self.due or len(self.times) >= self.launches:
            return 0.0
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, timeout=60, check=True)
        self.times.append(float(proc.stdout))
        end = time.perf_counter()
        self.due = end + self.every
        return end - start


def run_pass(jobs, first=None, probe=None):
    """(wall seconds, latencies, digests, outputs) of one pass over the jobs;
    the wall time leaves out the probe's launches."""
    start, paused = time.perf_counter(), 0.0
    latencies, digests, outputs = [], [], []
    for argv in jobs:
        dt, rc, out, err = run_job(argv)
        latencies.append(dt)
        digests.append(digest(rc, out, err))
        if first is None:
            outputs.append([rc, out, err])
        if probe:
            paused += probe()
    return time.perf_counter() - start - paused, latencies, digests, outputs


def run_paired_pass(jobs, first_digests, tracer):
    """One pass that runs each job twice in a row, untraced and traced, the
    order alternating between jobs.  Returns (untraced seconds, traced
    seconds, indices of jobs whose output differs from the first pass)."""
    took = {False: 0.0, True: 0.0}
    mismatched = set()
    for k, argv in enumerate(jobs):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.enable(on)
            dt, rc, out, err = run_job(argv)
            took[on] += dt
            if digest(rc, out, err) != first_digests[k]:
                mismatched.add(k)
    tracer.enable(False)
    return took[False], took[True], mismatched


def main(workdir: Path) -> None:
    spec = json.loads((workdir / "jobs.json").read_text())
    jobs, seconds, traced = spec["jobs"], spec["seconds"], spec["trace"]
    start = time.perf_counter()
    launches = spec["setup_launches"]
    probe = None if traced else SetupProbe(launches, seconds / launches)
    wall, latencies, first_digests, outputs = run_pass(jobs, probe=probe)
    pass_s, all_latencies = [wall], list(latencies)
    passes, mismatched = 1, set()

    def more(step_passes: int) -> bool:
        # stop when the next step would overshoot the budget by more than
        # half a step, so a run takes its budget however fast the host is
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / passes * step_passes / 2 < seconds

    result = {}
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
        plain_s = traced_s = 0.0
        while passes == 1 or more(2):
            plain, with_spans, changed = run_paired_pass(jobs, first_digests, tracer)
            plain_s, traced_s = plain_s + plain, traced_s + with_spans
            passes += 2
            mismatched |= changed
        layers = spans.layer_metrics(tracer.spans, (passes - 1) // 2)
        layers["cli.out_bytes"] = sum(len(out.encode()) for _, out, _ in outputs)
        layers["trace.overhead_ratio"] = traced_s / plain_s
        result["layers"] = layers
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        while more(1):
            wall, latencies, digests, _ = run_pass(jobs, first_digests, probe)
            passes += 1
            mismatched.update(k for k, d in enumerate(digests) if d != first_digests[k])
            pass_s.append(wall)
            all_latencies.extend(latencies)
        result["setup_s"] = probe.times
    result.update({
        "outputs": outputs,
        "passes": passes,
        "pass_s": pass_s,
        "latencies": all_latencies,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mismatched": sorted(mismatched),
    })
    (workdir / "results.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
