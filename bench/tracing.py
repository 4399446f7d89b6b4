"""Spans around the public torcrys calls, and the per-layer figures read
from them and from a cProfile of the same calls.

Spans are kept in memory; the caller writes them out when the run ends.
A span's duration covers the whole public call, so the span-derived
figures are wall time, not self time; self time per source file comes
from the profile.
"""
from __future__ import annotations

import importlib
import os
import pstats
import resource
import time
from contextlib import contextmanager

# Source files grouped into layers for the profile figures.  `~` is the
# pseudo-file cProfile gives to functions implemented in C.
PROFILE_FILES = {
    "qcoeff.py": "qcoeff", "fractions.py": "fractions",
    "lattice.py": "lattice", "monomial.py": "monomial",
    "crystal.py": "crystal", "closedness.py": "closedness",
    "torep.py": "torep", "unity.py": "unity", "~": "builtins",
}

# Exact call counts of the hot spots, by metric name -> (module, attribute
# path).  A function a later version removes reads as zero calls.
HOT_CALLS = {
    "qcoeff.rationalq_new.calls": ("torcrys.qcoeff", "RationalQ.__init__"),
    "qcoeff.laurent_mul.calls": ("torcrys.qcoeff", "LaurentPoly.__mul__"),
    "qcoeff.cycloelem_new.calls": ("torcrys.qcoeff", "CycloElem.__init__"),
    "qcoeff.cycloelem_inv.calls": ("torcrys.qcoeff", "CycloElem.inv"),
    "fractions.new.calls": ("fractions", "Fraction.__new__"),
}

# Cumulative time (own plus callees) of the closedness building blocks.
CUMULATIVE = {
    "crystal.generate.cum_s": ("torcrys.crystal", "generate"),
    "closedness.qclosed_direction.cum_s": ("torcrys.closedness",
                                           "qclosed_direction"),
    "closedness.kashiwara_closed.cum_s": ("torcrys.closedness",
                                          "kashiwara_closed"),
}


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tracer:
    """In-memory span recorder: each span has the run id, its parent
    span, a name, free-form attributes, start/end times and CPU seconds.

    If `before_span` is set, it is called with the name of each span
    before that span opens, outside it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self.before_span = None

    @contextmanager
    def span(self, name: str, **attrs):
        if self.before_span is not None:
            self.before_span(name)
        rec = {"run_id": self.run_id, "id": len(self.spans),
               "parent": self._open[-1]["id"] if self._open else None,
               "name": name, "attrs": attrs, "cpu": cpu_seconds(),
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = cpu_seconds() - rec["cpu"]
            self._open.pop()

    def descendants(self, root: dict):
        """Spans opened inside `root` (spans are appended in start order)."""
        out = []
        inside = {root["id"]}
        for rec in self.spans[root["id"] + 1:]:
            if rec["parent"] not in inside:
                break
            inside.add(rec["id"])
            out.append(rec)
        return out


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def total_time(spans, name: str, **match) -> float:
    return sum(duration(s) for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in match.items()))


def total_attr(spans, name: str, attr: str, **match):
    return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name
               and all(s["attrs"].get(k) == v for k, v in match.items()))


def _code_key(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile_metrics(stats: pstats.Stats) -> dict:
    """Self seconds and call counts per source file, hot-spot call counts
    and cumulative seconds, from one profiled repetition."""
    out = {}
    for layer in PROFILE_FILES.values():
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for (filename, _, _), (_, ncalls, self_s, _, _) in stats.stats.items():
        layer = PROFILE_FILES.get(os.path.basename(filename))
        if layer is not None:
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += ncalls
    for metric, where in HOT_CALLS.items():
        row = stats.stats.get(_code_key(*where))
        out[metric] = row[1] if row else 0
    for metric, where in CUMULATIVE.items():
        row = stats.stats.get(_code_key(*where))
        out[metric] = row[3] if row else 0.0
    return out
