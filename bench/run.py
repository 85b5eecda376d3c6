"""The ramify benchmark: seeded CLI workloads with oracle-checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload tower-sweep --seed 1 --seconds 40 --trace 0

Workloads: tower-sweep, group-series, filtration-levels (see workloads.py).
The run builds the workload's job list from the seed, then runs the jobs in
one fresh worker process, a closed loop with one client: each job starts when
the previous one has finished.  Between jobs the worker times fresh
interpreters importing ramify.cli (setup_s).  Every first-pass output is
checked by an oracle that does not use ramify; later passes must repeat it
byte for byte.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of the traced runs of the jobs.  Lines
before it give the sample count, failures, output digest and environment.
The run writes only under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_JOBS = 100  # per pass, so that 10 per-job latencies lie beyond p90
SETUP_LAUNCHES = 30
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "herbrand.calls": "count",
    "herbrand.self_s": "s",
    "herbrand.tower_psi_s": "s",
    "herbrand.breakpoints_out": "count",
    "planner.calls": "count",
    "planner.self_s": "s",
    "planner.breaks_out": "count",
    "pcgroup.calls": "count",
    "pcgroup.self_s": "s",
    "pcgroup.consistency_s": "s",
    "pcgroup.series_s": "s",
    "pcgroup.closure_s": "s",
    "pcgroup.subgroup_order_sum": "count",
    "filtration.calls": "count",
    "filtration.self_s": "s",
    "filtration.validate_s": "s",
    "filtration.quotient_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "ratio.calls": "count",
    "ratio.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}
LAYERS = ("cli", "ratio", "herbrand", "pcgroup", "filtration", "planner")


def child_env() -> dict:
    """Environment for fresh interpreters: the absolute src path goes first,
    so a relative PYTHONPATH inherited from the caller cannot shadow it."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def check_outputs(jobs, outputs):
    """Per-job problem (None when the oracle accepts the output), and the
    number of jobs whose oracle reached a verdict without raising."""
    problems, judged = [], 0
    for job, (rc, out, err) in zip(jobs, outputs):
        try:
            problems.append(job.check(rc, out, err))
            judged += 1
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"output not understood by the oracle: {exc!r}")
    return problems, judged


def end_to_end(result, n: int, ok_per_pass: int):
    """End-to-end metrics of an untraced run, and a line on their samples."""
    # The host's speed drifts between fast and slow spells lasting seconds.
    # Throughput is a total over the run, each job's latency a mean over its
    # passes and setup_s a median of launches spread over the run, so all of
    # them average the spells instead of landing in one.
    passes = len(result["pass_s"])
    wall = sum(result["pass_s"])
    lat = result["latencies"]
    job_ms = [statistics.fmean(lat[p * n + k] for p in range(passes)) * 1000 for k in range(n)]
    cuts = statistics.quantiles(job_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "jobs_per_s": ok_per_pass * passes / wall,
        "job_p50_ms": statistics.median(job_ms),
        "job_p90_ms": cuts[8],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_ratio": ok_per_pass / n,
    }
    note = (f"{wall:.3f} s measured; latency: {len(lat)} samples, percentiles over the {n} "
            f"per-job means, {sum(ms > cuts[8] for ms in job_ms)} beyond p90; "
            f"setup_s: median of {len(result['setup_s'])} launches")
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.build(args.workload, args.seed, workdir, MIN_JOBS)
    spec = {"jobs": [job.argv for job in jobs], "seconds": args.seconds,
            "trace": args.trace, "setup_launches": SETUP_LAUNCHES}
    (workdir / "jobs.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(workdir)],
                   env=child_env(), cwd=workdir, timeout=WORKER_TIMEOUT_S, check=True)
    result = json.loads((workdir / "results.json").read_text())

    outputs = result["outputs"]
    problems, judged = check_outputs(jobs, outputs)
    for k in result["mismatched"]:
        problems[k] = problems[k] or "output changed between passes"
    failed_jobs = [k for k, prob in enumerate(problems) if prob]
    unexpected = [k for k in failed_jobs if jobs[k].defect is None]
    attempted = result["passes"] * len(jobs)
    failed = result["passes"] * len(failed_jobs)
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()

    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{result['passes']} passes")
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, revision {revision()}")
    mix = {}
    for job in jobs:
        mix[job.kind] = mix.get(job.kind, 0) + 1
    print("jobs per pass: " + ", ".join(f"{kind} {count}" for kind, count in mix.items()))
    print(f"oracle_checked {judged} of {len(jobs)} jobs; output_sha256 {digest}")
    for k in failed_jobs:
        tag = f"known defect {jobs[k].defect}" if jobs[k].defect else "UNEXPECTED"
        print(f"failed [{tag}] {' '.join(jobs[k].argv)[:100]}: {problems[k]}")
    if args.trace:
        layers = result["layers"]
        metrics = {name: layers.get(name, 0) for name in PER_LAYER}
        total = sum(layers.get(f"{layer}.self_s", 0) for layer in LAYERS)
        shares = ", ".join(f"{layer} {layers.get(f'{layer}.self_s', 0) / total:.3f}"
                           for layer in LAYERS)
        print(f"self-time share: {shares}")
        units = PER_LAYER
    else:
        metrics, note = end_to_end(result, len(jobs), len(jobs) - len(failed_jobs))
        print(note)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
