"""Span recorder that wraps bqkz functions from outside the package.

A span is (name, start, end, parent span, item).  Spans live in flat
arrays of 28 bytes per span while the run is traced, so the 3.5 million
spans of a traced solve-tails call take about 100 MB.
They are written out once, when the run ends.  Self time is a span's
duration minus the durations of the spans whose parent it is.

An item is one unit of benchmark work: one sampled point on the verify
side (a `sampling.sample_point` call) and one lambda on the solve side
(an `integral_solver.residual_report` call).  Functions named as item
boundaries open a new item when they are entered.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.item_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [-1]
        self.item = 0
        self.counters = defaultdict(float)
        self.series = defaultdict(list)
        self.seen = {}
        self._patches = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None, item_boundary=False):
        """Return fn wrapped in a span; observe(tracer, args, kwargs) runs
        before each call and may record counters or series."""
        nid = self._name_id(name)
        names, parents, items = self.name_col, self.parent_col, self.item_col
        starts, ends, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter

        def open_span():
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            return idx

        def close_span(idx):
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the caller's work between two
            # yields is not charged to the generator.
            def traced_gen(*args, **kwargs):
                if observe is not None:
                    observe(self, args, kwargs)
                self.counters[name + ".calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield value

            return traced_gen

        def traced(*args, **kwargs):
            if item_boundary:
                self.item += 1
            if observe is not None:
                observe(self, args, kwargs)
            idx = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def patch(self, module_name: str, attr: str, wrapper_factory):
        """Replace module.attr (or module.Class.method) by its wrapper, in
        the defining module and in every bqkz module that imported the
        name directly."""
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, wrapper_factory(original))
            self._patches.append((owner, meth, original))
            return
        original = getattr(module, attr)
        wrapped = wrapper_factory(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("bqkz"):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._patches.append((mod, attr, original))

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name_col, dtype=np.int32),
            np.frombuffer(self.parent_col, dtype=np.int32),
            np.frombuffer(self.item_col, dtype=np.int32),
            np.frombuffer(self.start_col, dtype=np.float64),
            np.frombuffer(self.end_col, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per span name: calls (spans), total seconds and self seconds."""
        name, parent, _, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        if nested.any():
            child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        count = len(self.names)
        calls = np.bincount(name, minlength=count)
        total = np.bincount(name, weights=dur, minlength=count)
        selfs = np.bincount(name, weights=self_time, minlength=count)
        return {
            nm: {"spans": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
            for i, nm in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span of one name, in call order."""
        nid = self._ids.get(name)
        names, _, _, start, end = self.arrays()
        if nid is None:
            return np.zeros(0)
        mask = names == nid
        return end[mask] - start[mask]

    def dump(self, path: str):
        names, parent, item, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=names,
            parent=parent,
            item=item,
            start=start,
            end=end,
        )


# Observers: counts computed from the arguments of a traced call.

def observe_compose(tr: Tracer, args, kwargs):
    left, right = args[0], args[1]
    mycols = left.cols
    mults = 0
    for bcol in right.cols.values():
        for k in bcol:
            col = mycols.get(k)
            if col is not None:
                mults += len(col)
    tr.counters["compose.mults"] += mults
    dim = left.space.dim
    tr.counters["compose.max_dim"] = max(tr.counters["compose.max_dim"], dim)
    nnz = max(left.nnz(), right.nnz())
    tr.counters["compose.max_nnz"] = max(tr.counters["compose.max_nnz"], nnz)
    tr.series["compose.dim"].append(dim)


def observe_log_gamma(tr: Tracer, args, kwargs):
    re = complex(args[0]).real
    if re < 0.5:
        tr.counters["log_gamma.shift_steps"] += math.ceil(0.5 - re)


def _repeat_observer(label: str, key_of):
    """Count calls whose arguments already occurred within the current item."""

    def observe(tr: Tracer, args, kwargs):
        item, seen = tr.seen.get(label, (None, None))
        if item != tr.item:
            seen = set()
            tr.seen[label] = (tr.item, seen)
        key = key_of(args, kwargs)
        if key in seen:
            tr.counters[label + ".repeats"] += 1
        else:
            seen.add(key)
            tr.counters[label + ".distinct"] += 1

    return observe


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


observe_op_Q = _repeat_observer(
    "op_Q", lambda a, k: tuple(_freeze(v) for v in a) + tuple(sorted(k.items()))
)
observe_solve_f = _repeat_observer(
    "solve_f",
    lambda a, k: (complex(a[0]), _freeze(a[1]), k.get("extra_weight", 0)),
)


def sample_point_factory(tr: Tracer, name: str):
    """sample_point wrapper that also counts builder invocations (draws)."""

    def factory(original):
        def counted_sample_point(rng, builder, *args, **kwargs):
            def counted(r):
                tr.counters["sampling.draws"] += 1
                return builder(r)

            return original(rng, counted, *args, **kwargs)

        return tr.wrap(name, counted_sample_point, item_boundary=True)

    return factory


# (module, attribute, observer, opens an item): every traced name.
TRACED = (
    ("bqkz.scalar_field", "log_gamma", observe_log_gamma, False),
    ("bqkz.tensor_ops", "LinOp.compose", observe_compose, False),
    ("bqkz.tensor_ops", "LinOp.apply", None, False),
    ("bqkz.tensor_ops", "invert", None, False),
    ("bqkz.sampling", "sample_point", None, True),
    ("bqkz.rqkz", "op_Q", observe_op_Q, False),
    ("bqkz.rqkz", "transport_consistency_defect", None, False),
    ("bqkz.rqkz", "q_inverse_defect", None, False),
    ("bqkz.rqkz", "q_split_defect", None, False),
    ("bqkz.compat_ops", "compat_three_term", None, False),
    ("bqkz.compat_ops", "compat_direct", None, False),
    ("bqkz.compat_ops", "op_dK_term", None, False),
    ("bqkz.compat_ops", "op_L", None, False),
    ("bqkz.hecke_module", "op_Cbar", None, False),
    ("bqkz.hecke_module", "cbar_grouped", None, False),
    ("bqkz.hecke_module", "check_AHA_relations", None, False),
    ("bqkz.hecke_module", "check_L_restriction", None, False),
    ("bqkz.integral_solver", "kernel_log_phi", None, False),
    ("bqkz.integral_solver", "func_g", None, False),
    ("bqkz.integral_solver", "solve_f", observe_solve_f, False),
    ("bqkz.integral_solver", "validate_contour_line", None, False),
    ("bqkz.integral_solver", "residual_report", None, True),
    ("bqkz.integral_solver", "ftilde_residual", None, False),
    ("bqkz.suites", "run_suite", None, False),
    ("bqkz.cli", "main", None, False),
    ("bqkz.cli", "load_config", None, False),
    ("bqkz.cli", "cmd_verify", None, False),
    ("bqkz.cli", "cmd_solve", None, False),
)


def span_name(module: str, attr: str) -> str:
    return "%s.%s" % (module.split(".", 1)[1], attr.split(".")[-1])


def install(tr: Tracer):
    for module, attr, observe, boundary in TRACED:
        name = span_name(module, attr)
        if attr == "sample_point":
            factory = sample_point_factory(tr, name)
        else:
            def factory(fn, name=name, observe=observe, boundary=boundary):
                return tr.wrap(name, fn, observe=observe, item_boundary=boundary)
        tr.patch(module, attr, factory)


SUITES = (
    "ybe", "bybe", "unitarity", "qkz-consistency", "lemma-AA", "lemma-LL",
    "cross-derivative", "comm-IM", "compatibility", "aha-relations", "phi-iso",
    "cbar-qinv", "l-restriction",
)
COMPOSE_DIMS = (16, 36, 64, 216)
SELF_TIMED = (
    "rqkz.transport_consistency_defect", "rqkz.q_inverse_defect", "rqkz.q_split_defect",
    "compat_ops.compat_three_term", "compat_ops.compat_direct", "compat_ops.op_dK_term",
    "compat_ops.op_L", "hecke_module.op_Cbar", "hecke_module.cbar_grouped",
    "hecke_module.check_AHA_relations", "hecke_module.check_L_restriction",
)

# (name, unit, better) of every per-layer metric, in report order.  Metrics
# under integral_solver are per lambda; the others are totals over the
# traced calls, except the ratios and the per-call and per-sample times.
LAYER_METRICS = (
    [("tensor_ops.compose.calls", "count", "lower"),
     ("tensor_ops.compose.self_s", "s", "lower"),
     ("tensor_ops.compose.mults", "count", "lower"),
     ("tensor_ops.compose.max_dim", "count", "lower"),
     ("tensor_ops.compose.max_nnz", "count", "lower")]
    + [("tensor_ops.compose.s_per_call.dim%d" % d, "s", "lower") for d in COMPOSE_DIMS]
    + [("tensor_ops.invert.calls", "count", "lower"),
       ("tensor_ops.invert.self_s", "s", "lower"),
       ("tensor_ops.apply.calls", "count", "lower"),
       ("tensor_ops.apply.self_s", "s", "lower"),
       ("sampling.sample_point.calls", "count", "lower"),
       ("sampling.draws", "count", "lower"),
       ("sampling.accept_ratio", "ratio", "higher"),
       ("rqkz.op_Q.calls", "count", "lower"),
       ("rqkz.op_Q.self_s", "s", "lower"),
       ("rqkz.op_Q.repeat_ratio", "ratio", "lower")]
    + [(name + ".self_s", "s", "lower") for name in SELF_TIMED]
    + [("scalar_field.log_gamma.calls", "count", "lower"),
       ("scalar_field.log_gamma.self_s", "s", "lower"),
       ("scalar_field.log_gamma.shift_steps", "count", "lower"),
       ("integral_solver.kernel_log_phi.calls", "count", "lower"),
       ("integral_solver.func_g.calls", "count", "lower"),
       ("integral_solver.solve_f.calls", "count", "lower"),
       ("integral_solver.solve_f.distinct_points", "count", "lower"),
       ("integral_solver.solve_f.self_s", "s", "lower"),
       ("integral_solver.validate_contour_line.self_s", "s", "lower"),
       ("integral_solver.poles_checked", "count", "lower"),
       ("integral_solver.refinements", "count", "lower"),
       ("integral_solver.panels", "count", "lower")]
    + [("suites.%s.s_per_sample" % s, "s", "lower") for s in SUITES]
    + [("cli.main.self_s", "s", "lower"),
       ("cli.load_config.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, plain, traced) -> dict:
    """Per-layer metrics from the traced pass; `plain` is the same calls run
    untraced, which gives the suite times and the tracing overhead."""
    summary = tr.summary()
    counters = tr.counters

    def calls(span):
        if span + ".calls" in counters:
            return counters[span + ".calls"]
        return summary.get(span, {}).get("spans", 0)

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    lams = calls("integral_solver.residual_report")
    solutions = [e for o in traced if o.report for e in o.report["body"]["solutions"]]
    m = {
        "tensor_ops.compose.calls": calls("tensor_ops.compose"),
        "tensor_ops.compose.self_s": self_s("tensor_ops.compose"),
        "tensor_ops.compose.mults": counters["compose.mults"],
        "tensor_ops.compose.max_dim": counters["compose.max_dim"],
        "tensor_ops.compose.max_nnz": counters["compose.max_nnz"],
    }
    durations = tr.durations("tensor_ops.compose")
    dims = np.array(tr.series["compose.dim"], dtype=np.int64)
    for d in COMPOSE_DIMS:
        at = durations[dims == d]
        m["tensor_ops.compose.s_per_call.dim%d" % d] = float(at.mean()) if len(at) else 0.0
    for span in ("tensor_ops.invert", "tensor_ops.apply"):
        m[span + ".calls"] = calls(span)
        m[span + ".self_s"] = self_s(span)
    points = calls("sampling.sample_point")
    m["sampling.sample_point.calls"] = points
    m["sampling.draws"] = counters["sampling.draws"]
    m["sampling.accept_ratio"] = _ratio(points, counters["sampling.draws"])
    m["rqkz.op_Q.calls"] = calls("rqkz.op_Q")
    m["rqkz.op_Q.self_s"] = self_s("rqkz.op_Q")
    m["rqkz.op_Q.repeat_ratio"] = _ratio(counters["op_Q.repeats"], calls("rqkz.op_Q"))
    for span in SELF_TIMED:
        m[span + ".self_s"] = self_s(span)
    m["scalar_field.log_gamma.calls"] = calls("scalar_field.log_gamma")
    m["scalar_field.log_gamma.self_s"] = self_s("scalar_field.log_gamma")
    m["scalar_field.log_gamma.shift_steps"] = counters["log_gamma.shift_steps"]
    for span in ("kernel_log_phi", "func_g", "solve_f"):
        m["integral_solver.%s.calls" % span] = _ratio(calls("integral_solver." + span), lams)
    m["integral_solver.solve_f.distinct_points"] = _ratio(counters["solve_f.distinct"], lams)
    m["integral_solver.solve_f.self_s"] = _ratio(self_s("integral_solver.solve_f"), lams)
    m["integral_solver.validate_contour_line.self_s"] = _ratio(
        self_s("integral_solver.validate_contour_line"), lams)
    for key, path in (("poles_checked", ("contour", "poles_checked")),
                      ("refinements", ("quadrature", "refinements")),
                      ("panels", ("quadrature", "panels"))):
        values = [e[path[0]][path[1]] for e in solutions]
        m["integral_solver." + key] = _ratio(sum(values), len(values))
    seconds = dict.fromkeys(SUITES, 0.0)
    samples = dict.fromkeys(SUITES, 0)
    for o in plain:
        if o.report is None:
            continue
        for s in o.report["body"]["suites"]:
            seconds[s["name"]] += o.report["timing"][s["name"]]
            samples[s["name"]] += s["samples"]
    for name in SUITES:
        m["suites.%s.s_per_sample" % name] = _ratio(seconds[name], samples[name])
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.load_config.self_s"] = self_s("cli.load_config")
    plain_wall = sum(o.wall for o in plain)
    m["trace.overhead_frac"] = _ratio(sum(o.wall for o in traced) - plain_wall, plain_wall)
    return {name: float(m[name]) for name, _, _ in LAYER_METRICS}
