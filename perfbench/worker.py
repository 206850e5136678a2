"""Runs the benchmark's jobs in one process through linaff.cli.run_subcommand.

    python worker.py PLAN.json RESULTS.json

PLAN names the mode, the checkout's `src` directory, the warm-up and the
jobs.  The worker imports linaff, checks that it came from that `src`,
warms up, prints `ready` (the parent times set-up up to that line) and,
unless the mode is `setup`, runs whole passes over the jobs:
- `e2e`: untraced passes until the measured seconds are spent, and at
  least MIN_PASSES of them;
- `trace`: pairs of untraced and traced passes until the seconds are
  spent, and one counting pass.
Outputs of later passes must repeat those of the first.  Each job is
preceded by a timed run of calibrate.reference(), which tracks the
machine's speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from calibrate import reference, scaled

MIN_PASSES = 3  # per-job medians need at least three samples
PASS_CAP_S = 120  # stop starting passes here even if a pass overran


def warm_up(warm):
    import linaff.rings

    for spec in warm["rings"]:
        ring = linaff.rings.parse_ring_spec(spec)
        if ring.is_finite:
            ring.elements()
    import linaff.vonstaudt

    enumerate_lines = getattr(linaff.vonstaudt, "enumerate_affine_lines", None)
    for spec, dim in warm["line_spaces"]:
        if enumerate_lines is not None:
            enumerate_lines(linaff.rings.parse_ring_spec(spec), dim)


class Runner:
    def __init__(self, cli, argvs):
        self.cli = cli
        self.argvs = argvs
        self.outputs = None
        self.unstable = set()

    def run_pass(self, on_job=None):
        """One pass; returns per-job wall times and the reference() times before them, in ns."""
        times, refs, outputs = [], [], []
        clock = time.perf_counter_ns
        for i, argv in enumerate(self.argvs):
            if on_job is not None:
                on_job(i)
            start = clock()
            reference()
            refs.append(clock() - start)
            start = clock()
            try:
                code, text = self.cli.run_subcommand(argv)
            except Exception:  # a traceback is a failed job, recorded with its id
                code, text = None, traceback.format_exc()
            times.append(clock() - start)
            outputs.append((code, text))
        if self.outputs is None:
            self.outputs = outputs
        else:
            self.unstable.update(i for i, out in enumerate(outputs) if out != self.outputs[i])
        return times, refs


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    import linaff
    import linaff.cli

    origin = os.path.realpath(linaff.__file__)
    if not origin.startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"linaff was imported from {origin}, not from {plan['src']}", file=sys.stderr)
        return 3
    warm_up(plan["warm"])
    print("ready", flush=True)
    if plan["mode"] == "setup":
        return 0

    runner = Runner(linaff.cli, [job["argv"] for job in plan["jobs"]])
    seconds = plan["seconds"]
    result = {"linaff": origin}
    passes = []  # (job times, reference times) of the untraced passes
    begin = time.perf_counter()
    more = lambda: time.perf_counter() - begin < min(seconds, PASS_CAP_S)
    if plan["mode"] == "e2e":
        while len(passes) < MIN_PASSES or more():
            passes.append(runner.run_pass())
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        import layers

        tracer = layers.Tracer()
        traced = []
        while not traced or more():
            # alternate which pass of the pair comes first, so that warm-up
            # and drift fall on both sides of the overhead
            for tracing in (False, True) if len(traced) % 2 == 0 else (True, False):
                if not tracing:
                    passes.append(runner.run_pass())
                    continue
                tracer.install()
                try:
                    traced.append(runner.run_pass(on_job=lambda i: setattr(tracer, "job", i)))
                finally:
                    tracer.uninstall()
        counters = layers.Counters()
        counters.install()
        try:
            runner.run_pass()
        finally:
            counters.uninstall()
        jobs = len(runner.argvs)
        overhead = (sum(sum(scaled(*p)) for p in traced)
                    / sum(sum(scaled(*p)) for p in passes) - 1)
        values, absent = layers.metrics(
            tracer.summary(), jobs * len(traced), counters.counts, jobs,
            sum(sum(t) for t, _ in traced), overhead, tracer.missing | counters.missing,
            tracer.unreadable,
        )
        tracer.write(plan["spans"])
        result.update(layers=values, absent=absent)
    result.update(times_ns=[t for t, _ in passes], ref_ns=[r for _, r in passes],
                  outputs=runner.outputs, unstable=sorted(runner.unstable))
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
