"""Per-layer spans recorded from outside the pssframe package.

`cli`, `rotation_solver` and `hierarchy` bind the layer functions with
`from .x import f`, so patching only the defining module would miss their
calls.  `traced` therefore rebinds every name in every loaded `pssframe.*`
module namespace that holds the original function object, and restores all
of them on exit.  Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np


def _file_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0]))


def _node_steps(args, kwargs):
    # forward sweep plus the reverse-order certificate sweep, one step per node
    fd = kwargs.get("fd", args[0])
    return 2 * int(np.prod(fd.chart.counts))


# Work counts derived from a call's arguments or the files it touched.
WORK = {"bytes": _file_bytes, "node_steps": _node_steps}

# (module under pssframe, function, work count key or None)
LAYERS = (
    ("config", "parse_config", None),
    ("fieldio", "write_field", "bytes"),
    ("fieldio", "read_field", "bytes"),
    ("rotation_solver", "solve_L_nd", "node_steps"),
    ("rotation_solver", "sweep_scalar", None),
    ("rotation_solver", "solve_phi_2d", None),
    ("rotation_solver", "special_coordinates_check", None),
    ("hierarchy", "expand_phi_system", None),
    ("hierarchy", "closed_form_series", None),
    ("hierarchy", "solve_hierarchy", None),
    ("models.camassa_holm", "ch_evolve", None),
    ("models.sine_gordon", "sg_forms", None),
    ("models.igsge", "igsge_forms", None),
    ("frames", "structure_residuals", None),
    ("frames", "frame_vector_fields", None),
    ("frames", "lie_bracket", None),
    ("forms", "closedness_residual", None),
    ("forms", "potential", None),
    ("conservation", "analyze", None),
    ("conservation", "write_csv", None),
    ("conservation", "write_q_svg", None),
)

# Spans that the CLI calls directly; their high-water RSS shows which stage
# sets the process peak.
TOP_LEVEL = (
    "config.parse_config",
    "models.camassa_holm.ch_evolve",
    "models.sine_gordon.sg_forms",
    "models.igsge.igsge_forms",
    "frames.structure_residuals",
    "fieldio.read_field",
    "rotation_solver.solve_phi_2d",
    "rotation_solver.solve_L_nd",
    "rotation_solver.special_coordinates_check",
    "hierarchy.solve_hierarchy",
    "conservation.analyze",
    "conservation.write_csv",
    "conservation.write_q_svg",
    "fieldio.write_field",
)

SPAN_NAMES = tuple("%s.%s" % (module, func) for module, func, _ in LAYERS)
WORK_KEYS = {"%s.%s" % (module, func): work for module, func, work in LAYERS if work}
MUL_COUNTER = "hierarchy.EtaSeries.mul_calls"


def peak_rss_mb():
    """High-water RSS of this process image.

    Read from /proc rather than ru_maxrss: across fork and exec, Linux keeps
    the parent's peak in ru_maxrss, so a child spawned by a large parent
    would report the parent's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """Collects spans (name, parent, start, end, work counts) in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {MUL_COUNTER: 0}
        self._stack = []

    def span_wrapper(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[work] = WORK[work](args, kwargs)
            if span["parent"] is None:
                span["rss_hwm_mb"] = peak_rss_mb()
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(original, replacement):
    """Point every pssframe.* module name bound to `original` at `replacement`."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "pssframe" or mod_name.startswith("pssframe.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


@contextlib.contextmanager
def traced(tracer):
    """Route every call of the LAYERS functions through `tracer`."""
    undo = []
    try:
        for module_name, func, work in LAYERS:
            module = importlib.import_module("pssframe." + module_name)
            original = getattr(module, func)
            name = "%s.%s" % (module_name, func)
            undo += _rebind(original, tracer.span_wrapper(name, original, work))
        series = importlib.import_module("pssframe.hierarchy").EtaSeries
        mul = series.__dict__["__mul__"]
        counted = tracer.count_wrapper(MUL_COUNTER, mul)
        for key in ("__mul__", "__rmul__"):
            if series.__dict__.get(key) is mul:
                setattr(series, key, counted)
                undo.append((series, key, mul))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def summarize(spans):
    """Per span name: calls, self seconds and summed work counts.

    A span's self time is its duration minus the durations of its direct
    children; calls are strictly nested, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span["end"] - span["start"] - child_time[i]
        for key in WORK:
            if key in span:
                row[key] = row.get(key, 0) + span[key]
    return out


def top_level_rss(spans):
    """High-water RSS at the end of the last top-level call of each span name."""
    return {s["name"]: s["rss_hwm_mb"] for s in spans if "rss_hwm_mb" in s}


def layer_metrics(invocations, first_rss, overhead_s):
    """Per-layer metrics from the traced invocations of one run.

    invocations: list of (summary, counters) per traced invocation.  Times
    are medians over the invocations; counts come from the first one (the
    self-check tests assert that they repeat exactly).
    """
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def median_self(name):
        return statistics.median(s.get(name, {}).get("self_s", 0.0) for s, _ in invocations)

    first, counters = invocations[0]
    for name in SPAN_NAMES:
        row = first.get(name, {})
        self_s = median_self(name)
        put(name + ".calls", row.get("calls", 0), "count")
        put(name + ".self_s", self_s, "s")
        work = WORK_KEYS.get(name)
        if work == "bytes":
            put(name + ".bytes", row.get("bytes", 0), "bytes")
            rate = row.get("bytes", 0) / 1e6 / self_s if self_s > 0 else 0.0
            put(name + ".mb_per_s", rate, "MB/s")
        elif work == "node_steps":
            steps = row.get("node_steps", 0)
            put(name + ".node_steps", steps, "count")
            put(name + ".us_per_node_step", self_s * 1e6 / steps if steps else 0.0, "us")
    put(MUL_COUNTER, counters[MUL_COUNTER], "count")
    for name in TOP_LEVEL:
        put(name + ".rss_hwm_mb", first_rss.get(name, 0.0), "MB")
    put("trace.overhead_s", overhead_s, "s")
    return metrics
