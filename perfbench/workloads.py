"""Seeded workloads of the pssframe CLI benchmark and their correctness check.

Each workload is one CLI command on inputs generated from the seed.  The
seed moves values inside the inputs (start matrices, start angles, kink
velocities); grid sizes and orders, and so the amount of work, are fixed.
Every workload is dominated by a different layer and bypasses the layers
that dominate the others (see COVERAGE.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 20260817

# Acceptance bounds a manifest value must meet: key -> (kind, limit).
BOUNDS = {
    "orth_residual": ("max", 1e-12),
    "orth": ("max", 1e-12),
    "closed_order": ("min", 1.7),
    "relative_drift": ("max", 1e-4),
    "integral_drift": ("max", 1e-8),
    "pass": ("true", None),
}


@dataclass
class Inputs:
    """Generated inputs of one workload, with paths relative to the run directory."""

    command: str
    config: str
    nodes: int  # chart nodes certified per invocation
    required: tuple  # manifest keys that must be present and within BOUNDS
    files: list = field(default_factory=list)

    def argv(self, out_dir):
        return [self.command, "--config", self.config, "--out", out_dir]


def seeded_l0(n, seed):
    """Seeded Givens product; the default seed gives the acceptance tests' start."""
    rng = np.random.default_rng(seed)
    L = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.uniform(0.3, 1.2)
            G = np.eye(n)
            G[i, i] = G[j, j] = np.cos(a)
            G[i, j] = -np.sin(a)
            G[j, i] = np.sin(a)
            L = L @ G
    return L


def _floats(values):
    return ", ".join(repr(float(v)) for v in np.ravel(values))


def _input(run_dir, name):
    """Relative path of a generated input; creates the inputs directory."""
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    return os.path.join("inputs", name)


def _write_ini(run_dir, name, sections):
    rel = _input(run_dir, name + ".ini")
    lines = []
    for section, keys in sections.items():
        lines.append("[%s]" % section)
        lines.extend("%s = %s" % (key, value) for key, value in keys.items())
        lines.append("")
    with open(os.path.join(run_dir, rel), "w") as fh:
        fh.write("\n".join(lines))
    return rel


def _kink_solve_frame(seed, small, run_dir):
    n = 33 if small else 257
    phi0 = np.random.default_rng(seed).uniform(-np.pi / 4, np.pi / 4)
    config = _write_ini(
        run_dir,
        "kink",
        {
            "model": {"kind": "sine_gordon"},
            "chart": {"origin": "0.5, -2", "extent": "3.5, 4", "counts": "%d, %d" % (n, n)},
            "solver": {"phi0": repr(float(phi0)), "coordinates_check": "true"},
        },
    )
    return Inputs("solve-frame", config, n * n, ("orth_residual",), [config])


def _igsge3d_converge(seed, small, run_dir):
    n = 13 if small else 25
    config = _write_ini(
        run_dir,
        "igsge3d",
        {
            "model": {"kind": "igsge", "c": "0.6, 0.8"},
            "chart": {"origin": "0.5, -4, -4", "extent": "5.5, 8, 8", "counts": "%d, %d, %d" % (n, n, n)},
            "solver": {"l0": _floats(seeded_l0(3, seed))},
            "convergence": {"scales": "1, 2"},
        },
    )
    nodes = n**3 + (2 * n - 1) ** 3
    return Inputs("converge", config, nodes, ("closed_order", "orth", "pass"), [config])


def _ch_hierarchy_conserve(seed, small, run_dir):
    nx, nt, order = (64, 16, 2) if small else (512, 128, 8)
    config = _write_ini(
        run_dir,
        "ch",
        {
            "model": {
                "kind": "camassa_holm",
                "m": "0.5",
                "period": "6",
                "t_final": "2",
                "nx": str(nx),
                "nt": str(nt),
            },
            "hierarchy": {"order": str(order), "periodic_axis": "1"},
            "conservation": {"drift_tol": "1e-4", "svg": "true"},
        },
    )
    nodes = (nx + 1) * (nt + 1) * (order + 1)
    return Inputs(
        "conserve", config, nodes, ("relative_drift", "integral_drift", "pass"), [config]
    )


def write_kink_frame(path, n, velocity):
    """Six-component moving-kink frame file on [-4, 4]^2 with n^2 nodes."""
    from pssframe import GridChart
    from pssframe.frames import save_frame_data
    from pssframe.models import sg_forms, sg_solution

    chart = GridChart((-4.0, -4.0), (8.0 / (n - 1),) * 2, (n, n))
    save_frame_data(path, sg_forms(sg_solution(chart, "moving_kink", velocity)))


def write_flat_frame(path, n=33):
    """Frame file of the flat plane: fails the curvature -1 structure check."""
    from pssframe import GridChart
    from pssframe.fieldio import write_field

    chart = GridChart((0.0, 0.0), (1.0 / (n - 1),) * 2, (n, n))
    one, zero = np.ones((n, n)), np.zeros((n, n))
    write_field(path, chart, [one, zero, zero, one, zero, zero])


def _external_verify(seed, small, run_dir):
    n = 33 if small else 513
    velocity = np.random.default_rng(seed).uniform(-0.5, 0.5)
    frame = _input(run_dir, "kink_frame.pssfield")
    write_kink_frame(os.path.join(run_dir, frame), n, velocity)
    config = _write_ini(
        run_dir, "external", {"model": {"kind": "external", "field_file": frame}}
    )
    return Inputs("verify", config, n * n, ("pass",), [config, frame])


def negative_control(run_dir):
    """A verify run on a flat frame file; the check must count it as failed."""
    frame = _input(run_dir, "flat_frame.pssfield")
    write_flat_frame(os.path.join(run_dir, frame))
    config = _write_ini(
        run_dir, "flat", {"model": {"kind": "external", "field_file": frame}}
    )
    return Inputs("verify", config, 33 * 33, ("pass",), [config, frame])


# name -> (input generator, warm-up invocations before timing)
WORKLOADS = {
    "kink-solve-frame": (_kink_solve_frame, 1),
    "igsge3d-converge": (_igsge3d_converge, 1),
    "ch-hierarchy-conserve": (_ch_hierarchy_conserve, 1),
    # reads speed up over the first invocations of a process
    "external-verify": (_external_verify, 6),
}


def generate(name, seed, run_dir, small=False):
    """Write the workload's inputs under run_dir/inputs and describe them."""
    return WORKLOADS[name][0](seed, small, run_dir)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(out_dir):
    return {name: sha256_file(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def _manifest_values(node, key):
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            else:
                yield from _manifest_values(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from _manifest_values(v, key)


def check_invocation(inputs, code, stderr, out_dir, reference=None):
    """Return the reasons an invocation failed (empty when it passed).

    It fails when it exits non-zero, writes a traceback, misses a required
    manifest value or breaks its bound, or writes an output file whose bytes
    differ from the reference invocation's.
    """
    problems = []
    if code != 0:
        problems.append("exit code %r" % (code,))
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            results = json.load(fh)["results"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + ["no readable manifest: %s" % exc]
    for key in inputs.required:
        values = list(_manifest_values(results, key))
        if not values:
            problems.append("manifest lacks %s" % key)
        kind, limit = BOUNDS[key]
        for v in values:
            if kind == "true":
                ok = v is True
            else:
                ok = isinstance(v, (int, float)) and (v <= limit if kind == "max" else v >= limit)
            if not ok:
                problems.append("%s=%r breaks its bound" % (key, v))
    if reference is not None:
        digests = output_digests(out_dir)
        if digests != reference:
            changed = sorted({name for name, _ in set(digests.items()) ^ set(reference.items())})
            problems.append("outputs differ from the first invocation: %s" % changed)
    return problems
