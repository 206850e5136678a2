"""Hash linaff's answers to every benchmark job, to compare two source trees.

    python tools/answers.py [--src DIR]

Each workload's inputs are written by perfbench/inputs.generate (imported
from this checkout, read-only) into a temporary directory.  Every job is
run through linaff.cli.run_subcommand, imported from --src (default: this
checkout's src), once as text and once with --json.  The one line printed,
`<count> answers sha256 <hex>`, digests repr((argv, exit code, output)) of
every run in order, seed by seed, so two trees that answer alike print the
same line.  The jobs name their inputs relative to the temporary directory,
under `<workload>-<seed>/`.  A job that raises is digested as its
exception's type and message.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7, 13)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding linaff")
    args = parser.parse_args(argv)
    src = os.path.realpath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import inputs
    import linaff.cli

    if not os.path.realpath(linaff.cli.__file__).startswith(src + os.sep):
        sys.exit(f"linaff was imported from {linaff.cli.__file__}, not from {src}")
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # the jobs name their input files relative to it
        for seed in SEEDS:
            for workload in inputs.WORKLOADS:
                jobs, _, _ = inputs.generate(workload, seed, root, f"{workload}-{seed}")
                for job in jobs:
                    for run in (job.argv, ["--json", *job.argv]):
                        try:
                            answer = linaff.cli.run_subcommand(run)
                        except Exception as exc:  # digested, so a crash also shows
                            answer = (None, f"{type(exc).__name__}: {exc}")
                        digest.update(repr((run, *answer)).encode())
                        count += 1
        os.chdir(ROOT)
    print(f"{count} answers sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
