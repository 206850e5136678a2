"""Per-layer spans and counters, installed from outside the program.

Spans wrap the module attributes that callers resolve at call time: a
module that imports a function by name holds its own reference, so each
importing module's attribute is wrapped (`linaff.recovery.determinant`,
`linaff.sharpness.determinant`, ...).  Counters wrap RingElem operators
and oracle evaluations; they run in a pass of their own so that their
cost does not reach the span timings.  A target missing from the code
under test makes its metrics absent; it never fails the run.

Every `_ms` metric is a self time (the span minus its wrapped children),
so the layers' figures add up to the traced job time.  All metrics are
per job, averaged over the jobs of the traced (or counting) passes.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# span name -> (modules whose attribute is wrapped, attribute)
SPANS = {
    "cli.run": (("linaff.cli",), "run_subcommand"),
    "cli.parse": (("linaff.cli",), "parse_function_table"),
    "multiaffine.line_check": (("linaff.cli", "linaff.recovery", "linaff.multiaffine"),
                               "line_affine_check"),
    "multiaffine.psi_extract": (("linaff.cli", "linaff.recovery", "linaff.multiaffine"),
                                "psi_extract"),
    "recovery.recover": (("linaff.recovery",), "recover"),
    "recovery.degree_systems": (("linaff.recovery", "linaff.sharpness"), "build_degree_systems"),
    "recovery.solve": (("linaff.recovery",), "solve_vandermonde_exact"),
    "linalg.det": (("linaff.recovery", "linaff.sharpness", "linaff.linalg"), "determinant"),
    "linalg.kernel": (("linaff.recovery", "linaff.sharpness", "linaff.linalg"), "kernel_basis"),
    "bh_sets.search": (("linaff.bh_sets",), "search_bh"),
    "bh_sets.verify_properties": (("linaff.bh_sets", "linaff.sharpness"), "verify_properties"),
    "sharpness.certify": (("linaff.sharpness",), "certify_directions"),
    "sharpness.witness": (("linaff.sharpness",), "lower_bound_witness"),
    "vonstaudt.check": (("linaff.vonstaudt",), "check_hypotheses"),
    "vonstaudt.recover": (("linaff.vonstaudt",), "recover_semilinear"),
    "vonstaudt.identify": (("linaff.vonstaudt",), "identify_automorphism"),
}

# a span's result is kept (not inspected while timing) for these outcome ratios
OUTCOMES = {
    "linalg.det": lambda d: d.ring.is_regular(d),
    "bh_sets.verify_properties": lambda report: report.ok,
    "recovery.recover": lambda cert: cert.status == "cannot-cancel",
}

# counter -> (module, class, methods)
COUNTERS = {
    "rings.elem_ops": (("linaff.rings", "RingElem", ("__add__", "__sub__", "__mul__", "__neg__")),),
    "rings.elem_hashes": (("linaff.rings", "RingElem", ("__hash__",)),),
    "rings.elem_eqs": (("linaff.rings", "RingElem", ("__eq__",)),),
    "multiaffine.oracle_values": (("linaff.multiaffine", "TableOracle", ("value",)),
                                  ("linaff.multiaffine", "PolyOracle", ("value",))),
}

# (metric, unit, how, source): ms = self time of a span, calls = spans,
# count = counter, outcome = share of a span's results that hold
METRICS = (
    ("cli.parse_ms", "ms", "ms", "cli.parse"),
    ("cli.self_ms", "ms", "ms", "cli.run"),
    ("rings.elem_ops", "count", "count", "rings.elem_ops"),
    ("rings.elem_hashes", "count", "count", "rings.elem_hashes"),
    ("rings.elem_eqs", "count", "count", "rings.elem_eqs"),
    ("multiaffine.line_check_ms", "ms", "ms", "multiaffine.line_check"),
    ("multiaffine.line_checks", "count", "calls", "multiaffine.line_check"),
    ("multiaffine.oracle_values", "count", "count", "multiaffine.oracle_values"),
    ("multiaffine.psi_extract_ms", "ms", "ms", "multiaffine.psi_extract"),
    ("recovery.recover_ms", "ms", "ms", "recovery.recover"),
    ("recovery.degree_systems_ms", "ms", "ms", "recovery.degree_systems"),
    ("recovery.solve_ms", "ms", "ms", "recovery.solve"),
    ("recovery.solve_calls", "count", "calls", "recovery.solve"),
    ("recovery.cannot_cancel", "count", "outcome_count", "recovery.recover"),
    ("linalg.det_ms", "ms", "ms", "linalg.det"),
    ("linalg.det_calls", "count", "calls", "linalg.det"),
    ("linalg.det_regular_ratio", "ratio", "outcome", "linalg.det"),
    ("linalg.kernel_ms", "ms", "ms", "linalg.kernel"),
    ("linalg.kernel_calls", "count", "calls", "linalg.kernel"),
    ("bh_sets.search_ms", "ms", "ms", "bh_sets.search"),
    ("bh_sets.verify_properties_ms", "ms", "ms", "bh_sets.verify_properties"),
    ("bh_sets.verify_properties_calls", "count", "calls", "bh_sets.verify_properties"),
    ("bh_sets.hit_ratio", "ratio", "outcome", "bh_sets.verify_properties"),
    ("sharpness.certify_ms", "ms", "ms", "sharpness.certify"),
    ("sharpness.witness_ms", "ms", "ms", "sharpness.witness"),
    ("vonstaudt.check_ms", "ms", "ms", "vonstaudt.check"),
    ("vonstaudt.check_calls", "count", "calls", "vonstaudt.check"),
    ("vonstaudt.recover_ms", "ms", "ms", "vonstaudt.recover"),
    ("vonstaudt.identify_ms", "ms", "ms", "vonstaudt.identify"),
    ("trace.job_ms", "ms", "trace", "job_ms"),
    ("trace.overhead_frac", "ratio", "trace", "overhead_frac"),
)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Spans [name, start_ns, end_ns, parent index, job index, kept result], kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.missing = set()  # span names with no wrap target
        self.unreadable = set()  # span names whose kept results lack the outcome
        self._installed = []

    def install(self):
        for name, (modules, attr) in SPANS.items():
            wrapped = False
            for mod in filter(None, map(_module, modules)):
                fn = getattr(mod, attr, None)
                if callable(fn):
                    setattr(mod, attr, self._wrap(name, fn))
                    self._installed.append((mod, attr, fn))
                    wrapped = True
            if not wrapped:
                self.missing.add(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keep = name in OUTCOMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if keep:
                rec[5] = result
            return result

        return wrapper

    def summary(self):
        """Per span name: total self ns, calls, and how many kept outcomes hold."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        self_ns, calls, holds = Counter(), Counter(), Counter()
        for rec, inner in zip(self.spans, child_ns):
            self_ns[rec[0]] += rec[2] - rec[1] - inner
            calls[rec[0]] += 1
            if rec[0] in OUTCOMES:
                try:
                    holds[rec[0]] += bool(OUTCOMES[rec[0]](rec[5]))
                except (AttributeError, TypeError):
                    self.unreadable.add(rec[0])
        return {"self_ns": self_ns, "calls": calls, "holds": holds}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,job\n")
            for name, start, end, parent, job, _ in self.spans:
                out.write(f"{name},{start},{end},{parent},{job}\n")


class Counters:
    """Per-element call counts, installed on the classes' methods."""

    def __init__(self):
        self.counts = Counter()
        self.missing = set()
        self._installed = []

    def install(self):
        for key, targets in COUNTERS.items():
            wrapped = False
            for modname, clsname, methods in targets:
                cls = getattr(_module(modname), clsname, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if callable(fn):
                        setattr(cls, meth, self._wrap(key, fn))
                        self._installed.append((cls, meth, fn))
                        wrapped = True
            if not wrapped:
                self.missing.add(key)

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def _wrap(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def metrics(summary, traced_jobs, counts, counted_jobs, traced_ns, overhead, missing, unreadable):
    """Per-layer metric values, and the names of the metrics whose targets are gone."""
    values, absent = {}, []
    for name, unit, how, source in METRICS:
        if source in missing or (how.startswith("outcome") and source in unreadable):
            absent.append(name)
            values[name] = 0.0
        elif how == "ms":
            values[name] = summary["self_ns"].get(source, 0) / 1e6 / traced_jobs
        elif how == "calls":
            values[name] = summary["calls"].get(source, 0) / traced_jobs
        elif how == "outcome_count":
            values[name] = summary["holds"].get(source, 0) / traced_jobs
        elif how == "outcome":
            calls = summary["calls"].get(source, 0)
            values[name] = summary["holds"].get(source, 0) / calls if calls else 0.0
        elif how == "count":
            values[name] = counts.get(source, 0) / counted_jobs
        elif source == "job_ms":
            values[name] = traced_ns / 1e6 / traced_jobs
        else:
            values[name] = overhead
    return values, absent
