"""Benchmark of the pssframe CLI on four seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is the pure-Python package under src/, run from source.  The
run generates the workload's inputs from the seed, times set-up in fresh
interpreters, then runs the workload in one child process (one client,
closed loop, one numpy thread) and checks every invocation's outputs.

End-to-end metrics (--trace 0):
  wall_ref       median over invocations of wall time / reference time, the
                 reference being a fixed computation timed around each
                 invocation (see child.Reference); it follows the program's
                 cost while the host's speed drifts
  nodes_per_ref  chart nodes certified per reference time (nodes / wall_ref)
  setup_s        median seconds from spawning an interpreter to a parsed
                 config (import pssframe.cli + parse_config)
  peak_rss_mb    high-water RSS of the workload process over its warm-up
The raw median wall_s, nodes_per_s and failed_frac are printed beside them.
With --trace 1 the result holds the per-layer metrics of spans.py instead.

Human-readable lines come first; the last stdout line is one JSON object.
Full records (environment, input hashes, manifest residuals, spans) go to
perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 7

# A fresh interpreter up to a parsed config: what every CLI run pays first.
SETUP_PROBE = (
    "import sys; import pssframe.cli; from pssframe.config import parse_config; "
    "parse_config(sys.argv[1]); print('ready', flush=True)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(run_dir, config, env):
    """Median time from spawning an interpreter to its parsed config."""
    samples = []
    for i in range(SETUP_PROBES + 1):  # the first probe fills the bytecode cache
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE, config],
            cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def source_commit():
    """The git commit of the checkout, when it is a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_sha256():
    """Digest of the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pssframe").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import pssframe

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pssframe": pssframe.__version__,
        "git_commit": source_commit(),
        "source_sha256": source_sha256(),
        "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
    }


def run_child(run_dir, plan, env):
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        cwd=run_dir, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with %s" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def bench(workload, seed, seconds, trace):
    """Run one workload and return (record, result line)."""
    run_dir = WORK / ("%s-s%d-t%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = workloads.generate(workload, seed, run_dir)
        plan = {
            "inputs": vars(inputs),
            "warmup": workloads.WORKLOADS[workload][1],
            "seconds": seconds,
            "trace": bool(trace),
        }
        files = list(inputs.files)
        if workload == "external-verify":
            control = workloads.negative_control(run_dir)
            plan["negative_control"] = vars(control)
            files += control.files
        hashes = {f: workloads.sha256_file(run_dir / f) for f in files}
        env = child_env()
        setup_s = None if trace else setup_seconds(run_dir, inputs.config, env)
        child = run_child(run_dir, plan, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(child["failures"])
    control = child.get("negative_control")
    correct = failed == 0 and (control is None or control["flagged"])
    wall_s = statistics.median(child["walls"])
    if trace:
        metrics = child["layers"]
    else:
        wall_ref = statistics.median(child["wall_refs"])
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "x"},
            "nodes_per_ref": {"value": inputs.nodes / wall_ref, "unit": "1/ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": inputs.command,
        "nodes": inputs.nodes,
        "environment": environment(),
        "inputs_sha256": hashes,
        "samples": len(child["walls"]),
        "wall_s": wall_s,
        "nodes_per_s": inputs.nodes / wall_s,
        "failed_frac": failed / child["attempted"],
        "child": {k: v for k, v in child.items() if k != "layers"},
    }
    line = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    return record, line


def report(record, line):
    """Human-readable lines; the caller prints the JSON line after them."""
    env = record["environment"]
    print("workload %s seed %d: pssframe %s, %d chart nodes per invocation"
          % (record["workload"], record["seed"], record["command"], record["nodes"]))
    print("env: " + " ".join("%s=%s" % kv for kv in env.items()))
    for name, digest in record["inputs_sha256"].items():
        print("input %s sha256=%s" % (name, digest))
    print("samples: %d timed invocations of %d attempted (closed loop, 1 client)"
          % (record["samples"], line["attempted"]))
    print("%-52s %.6g s (median of %d)" % ("wall_s", record["wall_s"], record["samples"]))
    print("%-52s %.6g 1/s" % ("nodes_per_s", record["nodes_per_s"]))
    refs = record["child"]["refs"]
    if refs:
        print("%-52s %.6g s" % ("ref_s (reference computation)", statistics.median(refs)))
    print("%-52s %.6g (%d of %d invocations)"
          % ("failed_frac", record["failed_frac"], line["failed"], line["attempted"]))
    for name, metric in line["metrics"].items():
        print("%-52s %.6g %s" % (name, metric["value"], metric["unit"]))
    for failure in record["child"]["failures"][:5]:
        print("failure: %s" % failure)
    control = record["child"].get("negative_control")
    if control:
        print("negative control (flat frame verify): exit %s, flagged=%s"
              % (control["exit_code"], control["flagged"]))
    print("residuals: " + json.dumps(record["child"]["residuals"], sort_keys=True))
    if record["trace"]:
        selfs = {k[: -len(".self_s")]: v["value"] for k, v in line["metrics"].items()
                 if k.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        print("largest self time: %s %.4g s" % (top, selfs[top]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pssframe" / "cli.py").is_file():
        print("error: no pssframe sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record, line = bench(args.workload, args.seed, args.seconds, args.trace)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps({"record": record, "result": line}, indent=1))
    report(record, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
