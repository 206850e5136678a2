"""Fixed reference work that tracks the machine's current speed.

On a shared machine the speed of a core drifts by tens of percent within
seconds (other tenants, frequency changes), for linaff and for any other
Python code alike.  The benchmark therefore times reference work next to
what it measures and reports the measured time scaled to the
reference's nominal duration:

    scaled = measured * nominal / (reference time measured alongside)

A change of machine speed during a run cancels out; a change in the
program's own work does not, because the reference never runs linaff.

- In-process jobs: `reference()` runs before every job.  It exercises
  what linaff's hot paths exercise: splitting and parsing table rows,
  small objects with arithmetic dunder methods, tuple keys, dict lookups
  and hashing.
- Fresh processes (set-up, `python -m linaff.cli`): REF_CHILD, a Python
  process that imports the standard modules linaff imports, runs before
  and after each one.  In-process reference work does not track these:
  a child process starts with cold caches.
"""

from __future__ import annotations

import statistics
import sys

REF_MS = 1.0  # nominal duration of reference(); scaled job times are in these ms
WINDOW = 3  # jobs on each side whose reference times set a job's scale
REF_CHILD = [sys.executable, "-c",
             "import argparse, dataclasses, fractions, hashlib, itertools, json"]
REF_CHILD_MS = 100.0  # nominal wall time of REF_CHILD


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Elem((self.v + other.v) % 11)

    def __mul__(self, other):
        return _Elem(self.v * other.v % 11)

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)


_TEXT = "\n".join(f"map {i % 7} {i // 7 % 7} {i // 49} -> {(i * 5 + 3) % 7}" for i in range(150))


def reference():
    table = {}
    for line in _TEXT.splitlines():
        toks = line.split()
        sep = toks.index("->")
        table[tuple(_Elem(int(t)) for t in toks[1:sep])] = _Elem(int(toks[sep + 1]))
    one = acc = _Elem(1)
    for key in table:
        acc = acc * key[0] + table.get(key, one) * key[1]
    return acc.v


def scaled(times, refs):
    """Scale one pass of job times by the local median of the reference times."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(t * REF_MS * 1e6 / local)
    return out
