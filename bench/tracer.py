"""Outside-in per-layer tracing of the quadwalk layers.

The benchmark measures the program from outside: `install` replaces the
public functions named in TARGETS with timing wrappers, rebinding every
alias of each one across the loaded `quadwalk.*` modules (for example
`classifier.critical_sets` and `sigmadist.critical_sets` next to
`curve.critical_sets`) and every alias on its class (`Poly.__rmul__` next
to `Poly.__mul__`).  `uninstall` puts the originals back.

Two kinds of wrapper exist:

* a layer function ("span") records one span per call: name, start, end,
  parent span, item id, and the time spent in exactalg operators called
  directly from it;
* an exactalg operator ("op") is too frequent for a span of its own (one
  S5 classification makes tens of thousands of calls), so its calls,
  total time and self time accumulate into the enclosing span.

Spans stay in memory and are written out once, at the end of a run.  A
span's self time is its duration minus the time of its child spans and
of the operators it calls directly; an operator's self time is its
duration minus the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

SPAN = "span"
OP = "op"

# (metric name, module, attribute or Class.attribute, kind)
TARGETS = (
    ("exactalg.Poly.mul", "quadwalk.exactalg.poly", "Poly.__mul__", OP),
    ("exactalg.Poly.gcd", "quadwalk.exactalg.poly", "Poly.gcd", OP),
    ("exactalg.Poly.divmod", "quadwalk.exactalg.poly", "Poly.divmod", OP),
    ("exactalg.RatFunc.init", "quadwalk.exactalg.ratfunc", "RatFunc.__init__", OP),
    ("exactalg.RatFunc.add", "quadwalk.exactalg.ratfunc", "RatFunc.__add__", OP),
    ("exactalg.RatFunc.mul", "quadwalk.exactalg.ratfunc", "RatFunc.__mul__", OP),
    ("exactalg.QuadExt.init", "quadwalk.exactalg.quadext", "QuadExt.__init__", OP),
    ("exactalg.QuadExtElem.mul", "quadwalk.exactalg.quadext", "QuadExtElem.__mul__", OP),
    ("exactalg.QuadExtElem.pow", "quadwalk.exactalg.quadext", "QuadExtElem.__pow__", OP),
    ("exactalg.QuadExtElem.inverse", "quadwalk.exactalg.quadext", "QuadExtElem.inverse", OP),
    ("exactalg.QuadExtElem.equals", "quadwalk.exactalg.quadext", "QuadExtElem.equals", OP),
    ("exactalg.TSeries.inverse", "quadwalk.exactalg.tseries", "TSeries.inverse", OP),
    ("exactalg.TSeries.inv_sqrt", "quadwalk.exactalg.tseries", "TSeries.inv_sqrt", OP),
    ("exactalg.expand_ratfunc", "quadwalk.exactalg.puiseux", "expand_ratfunc", OP),
    ("model.build_model", "quadwalk.model", "build_model", SPAN),
    ("model.model_from_json", "quadwalk.model", "model_from_json", SPAN),
    ("model.functional_equation_coeffs", "quadwalk.model", "functional_equation_coeffs", SPAN),
    ("enumerator.enumerate_walks", "quadwalk.enumerator", "enumerate_walks", SPAN),
    ("enumerator.specialize", "quadwalk.enumerator", "specialize", SPAN),
    ("enumerator.functional_equation_residual", "quadwalk.enumerator",
     "functional_equation_residual", SPAN),
    ("curve.critical_points", "quadwalk.curve", "critical_points", SPAN),
    ("curve.critical_sets", "quadwalk.curve", "critical_sets", SPAN),
    ("curve.on_curve", "quadwalk.curve", "on_curve", SPAN),
    ("curve.evaluate_xy", "quadwalk.curve", "evaluate_xy", SPAN),
    ("curve.apply_sigma", "quadwalk.curve", "apply_sigma", SPAN),
    ("curve.apply_sigma_inverse", "quadwalk.curve", "apply_sigma_inverse", SPAN),
    ("curve.curve_zeros", "quadwalk.curve", "curve_zeros", SPAN),
    ("sigmadist.orbit_profile", "quadwalk.sigmadist", "orbit_profile", SPAN),
    ("sigmadist.sigma_distance", "quadwalk.sigmadist", "sigma_distance", SPAN),
    ("sigmadist.build_matrices", "quadwalk.sigmadist", "build_matrices", SPAN),
    ("classifier.classify", "quadwalk.classifier", "classify", SPAN),
    ("classifier.verify_identity_lemmas", "quadwalk.classifier", "verify_identity_lemmas", SPAN),
    ("classifier.homogeneous_analysis", "quadwalk.classifier", "homogeneous_analysis", SPAN),
    ("classifier.inhomogeneous_analysis", "quadwalk.classifier", "inhomogeneous_analysis", SPAN),
    ("classifier.edge_case_checks", "quadwalk.classifier", "edge_case_checks", SPAN),
    ("classifier.verify_closed_form", "quadwalk.classifier", "verify_closed_form", SPAN),
    ("classifier.ClosedForm.expand", "quadwalk.classifier", "ClosedForm.expand", SPAN),
    ("cli.main", "quadwalk.cli", "main", SPAN),
)

# spans whose result is recorded as a useful (True) or wasted (False) attempt
OUTCOMES = {"sigmadist.sigma_distance": lambda result: result is not None}

ITEM_SPAN = "item"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    ops_s: float    # time of exactalg operators called directly from this span
    ops: dict       # operator name -> [calls, total_s, self_s]
    ok: bool | None = None


class Tracer:
    """Collects spans and operator statistics in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.item = None
        # frames of open calls: [child span seconds, child operator seconds]
        self._frames = [[0.0, 0.0]]
        self._open = [None]     # ids of open spans, innermost last
        self._ops = [{}]        # operator stats of the innermost open span

    @property
    def loose_ops(self) -> dict:
        """Operator stats of calls made outside every span."""
        return self._ops[0]

    def wrap(self, name, fn, kind):
        return self._wrap_span(name, fn) if kind == SPAN else self._wrap_op(name, fn)

    def _wrap_span(self, name, fn):
        spans, frames, open_, ops_stack = self.spans, self._frames, self._open, self._ops
        clock, outcome = self.clock, OUTCOMES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1]
            frame = [0.0, 0.0]
            ops = {}
            frames.append(frame)
            open_.append(sid)
            ops_stack.append(ops)
            ok = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    ok = outcome(result)
                return result
            finally:
                end = clock()
                frames.pop()
                open_.pop()
                ops_stack.pop()
                frames[-1][0] += end - start
                spans[sid] = Span(sid, name, start, end, parent, tracer.item,
                                  frame[1], ops, ok)

        return traced

    def _wrap_op(self, name, fn):
        frames, ops_stack, clock = self._frames, self._ops, self.clock
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            frames.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                depth[0] -= 1
                frames.pop()
                frames[-1][1] += dt
                stats = ops_stack[-1]
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not depth[0]:    # recursive calls count once in total_s
                    rec[1] += dt
                rec[2] += dt - frame[0] - frame[1]

        return traced

    def run_item(self, item_id, fn):
        """Call fn under a root span that tags everything below it."""
        self.item = item_id
        try:
            return self._wrap_span(ITEM_SPAN, fn)()
        finally:
            self.item = None

    def add_records(self, records, item_id):
        """Merge spans written by another process (see read_spans)."""
        offset = len(self.spans)
        for rec in records:
            parent = rec["parent"]
            self.spans.append(Span(
                id=rec["id"] + offset, name=rec["name"], start=rec["start"],
                end=rec["end"], parent=None if parent is None else parent + offset,
                item=item_id, ops_s=rec["ops_s"], ops=rec["ops"], ok=rec["ok"],
            ))


def _resolve(module, qual):
    owner_name, _, attr = qual.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, vars(owner)[attr]


def _quadwalk_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "quadwalk" or n.startswith("quadwalk."))]


def install(tracer: Tracer) -> list:
    """Wrap every target whose module is loaded; returns the patch list
    that uninstall needs.  A module-level function is rebound wherever a
    quadwalk module holds it; a method on every name of its class."""
    patches = []
    modules = _quadwalk_modules()
    for name, modname, qual, kind in TARGETS:
        module = sys.modules.get(modname)
        if module is None:
            continue
        owner, orig = _resolve(module, qual)
        wrapped = tracer.wrap(name, orig, kind)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is orig:
                    patches.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
    return patches


def uninstall(patches):
    for holder, attr, orig in reversed(patches):
        setattr(holder, attr, orig)


@contextmanager
def installed(tracer: Tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        uninstall(patches)


# -- aggregation ------------------------------------------------------------


def self_times(spans) -> dict:
    """span id -> duration minus child spans minus direct operator time."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child.get(s.id, 0.0) - s.ops_s for s in spans}


def function_stats(spans, loose_ops=None) -> dict:
    """name -> [calls, total_s, self_s] for every span name and operator.

    total_s counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    stats = {}
    for s in spans:
        rec = stats.setdefault(s.name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[2] += selfs[s.id]
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            rec[1] += s.end - s.start
    for ops in [s.ops for s in spans] + [loose_ops or {}]:
        for name, (calls, total, self_s) in ops.items():
            rec = stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
    return stats


def write_spans(path, spans):
    """One span per line, as JSON; read back with read_spans."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def read_spans(path) -> list:
    """The span records of a write_spans file, as dicts."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
