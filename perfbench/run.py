"""linaff benchmark: seeded certificate workloads, run end to end through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a linaff checkout; linaff is imported from the
checkout's `src` (it need not be installed).  NAME is one of
tables-affine, tables-refute, directions, semilinear, or `all`.

The run generates the workload's input files from the seed (in this
process, which never runs a job), then:
- with --trace 0, times set-up in fresh worker processes, runs the jobs
  in a closed loop (one client, next job when the previous returns, whole
  passes until S seconds are spent) in one worker process, and runs a
  fixed sample of the jobs as `python -m linaff.cli` subprocesses;
- with --trace 1, runs untraced, traced and counting passes and reports
  the per-layer metrics (see layers.py).
Every answer is checked by verdicts.py.  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import inputs
import layers
from calibrate import REF_CHILD, REF_CHILD_MS, scaled
from verdicts import UNDECIDED, check

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
SETUP_RUNS = 7
CLI_SAMPLE = 12  # jobs, each run CLI_ROUNDS times as a subprocess
CLI_ROUNDS = 2
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("cli_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
    ("decided_frac", "ratio"),
)


class BenchError(Exception):
    pass


def _worker(plan, env, root, timeout):
    """Run worker.py on a plan; return (seconds to 'ready', results or None)."""
    plan_path = os.path.join(root, plan["dir"], f"plan-{plan['mode']}.json")
    results_path = os.path.join(root, plan["dir"], f"results-{plan['mode']}.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, results_path],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ({plan['mode']}) did not finish within {timeout} s") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"worker ({plan['mode']}) failed, exit {proc.returncode}:\n{err.strip()}")
    if plan["mode"] == "setup":
        return ready, None
    with open(results_path, encoding="utf-8") as handle:
        return ready, json.load(handle)


def _subprocess_origin(env, root):
    """Where a `python -m linaff.cli` run in the same environment imports linaff from."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import linaff.cli, os; print(os.path.realpath(linaff.cli.__file__))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return probe.stdout.strip()


def _between_references(measure, count, env, root):
    """Call measure(k) for k < count, with a run of REF_CHILD before the first
    call and after each; return (ms scaled by the mean of the two reference
    runs around each call, raw ms)."""
    def ref_ms():
        start = time.perf_counter()
        subprocess.run(REF_CHILD, cwd=root, env=env, capture_output=True, check=True,
                       timeout=CLI_TIMEOUT_S)
        return (time.perf_counter() - start) * 1e3

    refs, raw = [ref_ms()], []
    for k in range(count):
        raw.append(measure(k))
        refs.append(ref_ms())
    return [ms * 2 * REF_CHILD_MS / (refs[k] + refs[k + 1]) for k, ms in enumerate(raw)], raw


def _cli_sample(jobs, outputs, env, root):
    """Scaled and raw wall ms of a fixed sample of jobs, each run as a
    `python -m linaff.cli` subprocess, and the ids whose output differs."""
    picks = [(2 * i + 1) * len(jobs) // (2 * CLI_SAMPLE) for i in range(CLI_SAMPLE)] * CLI_ROUNDS
    mismatched = []

    def measure(k):
        job = jobs[picks[k]]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "linaff.cli", *job.argv],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        elapsed = (time.perf_counter() - start) * 1e3
        if (proc.returncode, proc.stdout) != tuple(outputs[picks[k]]):
            mismatched.append(job.id)
        return elapsed

    return (*_between_references(measure, len(picks), env, root), mismatched)


def _verdicts(jobs, results):
    """Check each job's first-pass answer; returns (statuses, {job id: problem})."""
    statuses, problems = [], {}
    for i, (job, (code, text)) in enumerate(zip(jobs, results["outputs"])):
        status, problem = check(job, code, text)
        if i in results["unstable"]:
            problem = "answer changed between passes"
        statuses.append(status)
        if problem:
            problems[job.id] = problem
    return statuses, problems


def _mix(jobs, statuses):
    kinds = Counter(job.kind for job in jobs)
    rings = Counter(job.R.spec for job in jobs)
    answers = Counter(statuses)

    def share(counts):
        return ", ".join(f"{k} {v} ({v / len(jobs):.0%})"
                         for k, v in sorted(counts.items(), key=str))

    return [f"jobs      {share(kinds)}", f"rings     {share(rings)}", f"answers   {share(answers)}"]


def run_workload(root, workload, seed, seconds, trace):
    """Measure one workload; returns (report lines, result dict)."""
    rel = f"{WORK}/{workload}-s{seed}"
    shutil.rmtree(os.path.join(root, rel), ignore_errors=True)
    jobs, digest, warm = inputs.generate(workload, seed, root, rel)
    src = os.path.join(root, "src")
    # a fixed hash seed: dict and set layouts of RingElem keys repeat between runs
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    plan = {
        "dir": rel, "src": src, "warm": warm, "seconds": seconds,
        "jobs": [{"id": job.id, "argv": job.argv} for job in jobs],
        "spans": os.path.join(root, rel, "spans.csv"),
    }
    lines = [
        f"workload  {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        f"inputs    {len(jobs)} jobs under {rel}, sha256 {digest}",
    ]
    origin = _subprocess_origin(env, root)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"python -m linaff.cli would import linaff from {origin!r}, not {src}")

    if trace:
        _, results = _worker(dict(plan, mode="trace"), env, root, WORKER_TIMEOUT_S)
    else:
        setups, setups_raw = _between_references(
            lambda k: _worker(dict(plan, mode="setup"), env, root, WORKER_TIMEOUT_S)[0] * 1e3,
            SETUP_RUNS, env, root)
        _, results = _worker(dict(plan, mode="e2e"), env, root, WORKER_TIMEOUT_S)
    lines.append(f"linaff    {results['linaff']} (in-process), {origin} (python -m)")
    statuses, problems = _verdicts(jobs, results)
    passes = len(results["times_ns"])
    runs = len(jobs) * passes
    failed = len(problems) * passes
    undecided = statuses.count(UNDECIDED) * passes
    lines += _mix(jobs, statuses)

    if trace:
        metrics = {}
        job_ms = results["layers"]["trace.job_ms"]
        for name, unit, how, _ in layers.METRICS:
            value = results["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            share = f"  {value / job_ms:6.1%} of job time" if how == "ms" else ""
            lines.append(f"{name:34s}= {value:.6g} {unit}{share}")
        lines.append(f"layers    averaged over {runs} traced jobs in {passes} passes; "
                     f"absent: {', '.join(results['absent']) or 'none'}")
        executed = 2 * passes + 1  # untraced, traced and one counting pass
        attempted = len(jobs) * executed
        failed = len(problems) * executed
    else:
        # throughput from each job's median over the passes, which damps
        # bursts of machine noise; percentiles over every execution
        scaled_ns = [scaled(t, r) for t, r in zip(results["times_ns"], results["ref_ns"])]
        job_ms = [statistics.median(ts) / 1e6 for ts in zip(*scaled_ns)]
        times_ms = sorted(t / 1e6 for p in scaled_ns for t in p)
        raw_job_ms = [statistics.median(ts) / 1e6 for ts in zip(*results["times_ns"])]
        raw_ms = sorted(t / 1e6 for p in results["times_ns"] for t in p)
        cli_ms, cli_raw, mismatched = _cli_sample(jobs, results["outputs"], env, root)
        for job_id in mismatched:
            problems.setdefault(job_id, "python -m linaff.cli answered differently")
        attempted = runs + len(cli_ms)
        failed += len(mismatched)
        p90 = statistics.quantiles(times_ms, n=10)[8]
        values = {
            "jobs_per_s": len(job_ms) / (sum(job_ms) / 1e3),
            "job_ms_p50": statistics.median(times_ms),
            "job_ms_p90": p90,
            "cli_ms_p50": statistics.median(cli_ms),
            "setup_s": statistics.median(setups) / 1e3,
            "peak_rss_mb": results["rss_kb"] / 1024,
            "verified_frac": 1 - failed / attempted,
            "decided_frac": 1 - undecided / runs,
        }
        beyond = sum(t > p90 for t in times_ms)
        notes = {
            "jobs_per_s": f"{len(jobs)} jobs / {sum(job_ms) / 1e3:.3f} s, "
                          f"each job's median of {passes} passes; unscaled "
                          f"{len(raw_job_ms) / (sum(raw_job_ms) / 1e3):.6g}",
            "job_ms_p50": f"n = {len(times_ms)} executions; unscaled "
                          f"{statistics.median(raw_ms):.6g}",
            "job_ms_p90": f"n = {len(times_ms)} executions, {beyond} beyond; unscaled "
                          f"{statistics.quantiles(raw_ms, n=10)[8]:.6g}",
            "cli_ms_p50": f"n = {len(cli_ms)}: {CLI_SAMPLE} jobs x {CLI_ROUNDS} subprocess runs; "
                          f"unscaled {statistics.median(cli_raw):.6g}",
            "setup_s": f"median of {SETUP_RUNS} fresh processes; unscaled "
                       f"{statistics.median(setups_raw) / 1e3:.6g}",
            "peak_rss_mb": "max RSS of the process that ran the jobs",
            "verified_frac": f"error_frac = {failed}/{attempted} = {failed / attempted:.4f}",
            "decided_frac": f"undecided_frac = {undecided}/{runs} = {undecided / runs:.4f}",
        }
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:14s}= {values[name]:.6g} {unit}  ({notes[name]})")
    lines.append("failing   " + ("none" if not problems else ""))
    lines += [f"  {job_id}: {why}" for job_id, why in sorted(problems.items())]
    return lines, {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linaff", "cli.py")):
        print("error: run from the root of a linaff checkout; src/linaff/cli.py is missing",
              file=sys.stderr)
        return 2
    # one core for this process and every process it starts, so that the
    # reference runs and the measured work share the core's current speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(root, name, args.seed, args.seconds,
                                                bool(args.trace))
            print("\n".join(lines), flush=True)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
