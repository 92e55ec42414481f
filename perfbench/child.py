"""Workload process of the benchmark: back-to-back CLI invocations, in-process.

Usage: python3 child.py PLAN_JSON

The plan (written by run.py) names the workload's inputs, the warm-up count,
the measured seconds and whether to trace.  The process runs in the run
directory, checks every invocation and prints one JSON object as its last
stdout line.  One client, closed loop: the next invocation starts when the
previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import spans
import workloads
from pssframe.cli import main as cli_main

OUT_DIR = "out"


def invoke(inputs, tracer=None):
    """One CLI invocation on a fresh output directory; returns (wall_s, code, stderr)."""
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    tracing = spans.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with tracing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(inputs.argv(OUT_DIR))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # counted as a failed invocation, never fatal
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    return wall, code, err.getvalue()


class Reference:
    """A fixed computation, timed between invocations.

    On a shared host the CPU speed drifts by tens of percent over minutes,
    which moves every wall time with it.  The ratio of an invocation's wall
    time to this computation's, timed right before and after it, follows the
    program's cost rather than the host's speed.  Its mix (vectorized math
    over 8 MB, small-matrix calls from Python, float formatting and parsing)
    mirrors the workloads.  Changing it rescales every ratio, so it stays
    fixed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vector = rng.standard_normal(1 << 20)
        self.blocks = rng.standard_normal((256, 3, 3))
        rows = self.vector[:60000].reshape(-1, 6)
        self.text = "".join(" ".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
        self.seconds()  # first call allocates

    def seconds(self):
        start = time.perf_counter()
        y = self.vector
        for _ in range(4):
            y = np.sin(y) * 0.5 + np.sqrt(np.abs(y))
        acc = self.blocks[0]
        for i in range(3000):
            acc = np.matmul(self.blocks[i & 255], acc) * 0.5 + self.blocks[(i * 7) & 255]
        " ".join(format(float(v), ".17g") for v in self.vector[:30000])
        np.loadtxt(io.StringIO(self.text))
        return time.perf_counter() - start


class Runner:
    """Invokes one workload, checks each invocation and keeps the tallies."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.expected_digests = None
        self.residuals = None
        self.attempted = 0
        self.failures = []

    def run(self, tracer=None):
        wall, code, stderr = invoke(self.inputs, tracer)
        problems = workloads.check_invocation(
            self.inputs, code, stderr, OUT_DIR, self.expected_digests
        )
        if self.expected_digests is None and not problems:
            self.expected_digests = workloads.output_digests(OUT_DIR)
            with open(f"{OUT_DIR}/manifest.json") as fh:
                self.residuals = json.load(fh)["results"]
        self.attempted += 1
        if problems:
            self.failures.append({"invocation": self.attempted, "problems": problems})
        return wall


def negative_control(plan):
    """The flat-frame verify must be flagged by the same check."""
    inputs = workloads.Inputs(**plan["negative_control"])
    _, code, stderr = invoke(inputs)
    problems = workloads.check_invocation(inputs, code, stderr, OUT_DIR)
    return {"exit_code": code, "flagged": bool(problems), "problems": problems}


def measure(plan):
    inputs = workloads.Inputs(**plan["inputs"])
    runner = Runner(inputs)
    result = {}
    if plan.get("negative_control"):
        result["negative_control"] = negative_control(plan)

    first_trace = None
    if plan["trace"]:
        tracer = spans.Tracer()
        runner.run(tracer)  # cold: the RSS high-water mark only grows, so stages show only here
        first_trace = tracer
    for _ in range(plan["warmup"] - (first_trace is not None)):
        runner.run()

    # the reference computation's arrays must not count towards the peak
    peak_rss_mb = spans.peak_rss_mb()
    # a traced run alternates untraced and traced invocations instead
    reference = None if plan["trace"] else Reference()
    refs = [reference.seconds()] if reference else []
    walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while True:
        walls.append(runner.run())
        if reference:
            refs.append(reference.seconds())
        else:
            tracer = spans.Tracer()
            traced_walls.append(runner.run(tracer))
            tracers.append(tracer)
        if time.perf_counter() - start >= plan["seconds"]:
            break

    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        residuals=runner.residuals,
        walls=walls,
        # each invocation against the mean of the reference times around it
        wall_refs=[w / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:])],
        refs=refs,
        peak_rss_mb=peak_rss_mb,
    )
    if plan["trace"]:
        # paired with the untraced invocation just before, so host drift cancels
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        result["layers"] = spans.layer_metrics(
            [(spans.summarize(t.spans), t.counters) for t in tracers],
            spans.top_level_rss(first_trace.spans),
            overhead,
        )
        result["spans"] = [t.spans for t in [first_trace] + tracers]
    return result


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    print(json.dumps(measure(plan)))
