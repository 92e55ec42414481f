"""Print the SHA-256 of every output file of the benchmark workloads and fixed cases.

Usage (from the repository root):

    python3 tools/output_digests.py [--seed N ...] [--compare DIR]

Each of the four benchmark workloads takes its inputs from
`perfbench/workloads.generate`.  Seven fixed cases (`CASES`) reach paths
the workloads do not: an igsge 3D `solve-frame` at 49^3 with the
coordinate check, whose full-volume blocks are the largest 3D blocks and
whose rotation is written; an igsge 4D `converge` at 9^4 and 17^4, whose
17^4 blocks are cut into slabs; a Camassa-Holm `hierarchy` to order 4,
which writes every phi_j and theta_j; a 2D kink `converge` at 33^2, 65^2
and 129^2, which runs the angle solve under `converge` and fits two pair
orders; a 2D kink `conserve` with `svg = true`, which solves a frame
that is not Camassa-Holm's and writes its q.svg; a `verify` of an igsge
3D frame file at 25^3 (18 components, written by `save_frame_data`),
which the gate folds over several slabs; and a `verify` of a 65^2 kink
frame file with a comment line in its body, which only np.loadtxt reads.
Their start matrices, start angles and kink velocities come from the seed
as the workloads' do.  Each CLI
command runs in a fresh interpreter, on the package under src/ of the
checkout this script sits in, inside a temporary directory.  One
`sha256  path` line is printed per output file, the path being
`<workload>/<file>`, and one more for the command's stdout.  --seed may
be given more than once; with more than one seed each path starts with
`<seed>/`.  Exits 1 when a command does not exit 0.

--compare DIR runs the same commands on the same inputs, once with the
package under src/ of this checkout and once with that of the checkout
DIR, and prints only the paths whose digests differ (or that only one side
wrote), as `path  this  other`.  It exits 1 on any difference and 0 when
every output is byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

MISSING = "-"


def _igsge3d_solve_frame(seed, run_dir):
    config = workloads._write_ini(
        run_dir,
        "igsge3d49",
        {
            "model": {"kind": "igsge", "c": "0.6, 0.8"},
            "chart": {"origin": "0.5, -4, -4", "extent": "5.5, 8, 8", "counts": "49, 49, 49"},
            "solver": {
                "l0": workloads._floats(workloads.seeded_l0(3, seed)),
                "coordinates_check": "true",
            },
        },
    )
    return workloads.Inputs("solve-frame", config, 49**3, ("orth_residual",), [config])


def _igsge4d_converge(seed, run_dir):
    config = workloads._write_ini(
        run_dir,
        "igsge4d",
        {
            "model": {"kind": "igsge", "c": "0.48, 0.6, 0.64"},
            "chart": {
                "origin": "0.5, -4, -4, -4",
                "extent": "5.5, 8, 8, 8",
                "counts": "9, 9, 9, 9",
            },
            "solver": {"l0": workloads._floats(workloads.seeded_l0(4, seed))},
            "convergence": {"scales": "1, 2"},
        },
    )
    return workloads.Inputs("converge", config, 9**4 + 17**4, ("closed_order",), [config])


def _ch_hierarchy(seed, run_dir):
    config = workloads._write_ini(
        run_dir,
        "ch4",
        {
            "model": {
                "kind": "camassa_holm",
                "m": "0.5",
                "period": "6",
                "t_final": "2",
                "nx": "64",
                "nt": "16",
            },
            "hierarchy": {"order": "4", "periodic_axis": "1"},
        },
    )
    return workloads.Inputs("hierarchy", config, 65 * 17 * 5, (), [config])


def _kink(seed, run_dir, command, section, nodes):
    """A 33^2 static kink on the kink workload's chart, with a seeded start angle."""
    phi0 = np.random.default_rng(seed).uniform(-np.pi / 4, np.pi / 4)
    config = workloads._write_ini(
        run_dir,
        "kink-%s" % command,
        {
            "model": {"kind": "sine_gordon"},
            "chart": {"origin": "0.5, -2", "extent": "3.5, 4", "counts": "33, 33"},
            "solver": {"phi0": repr(float(phi0))},
            **section,
        },
    )
    return workloads.Inputs(command, config, nodes, (), [config])


def _kink_converge(seed, run_dir):
    section = {"convergence": {"scales": "1, 2, 4"}}
    return _kink(seed, run_dir, "converge", section, 33**2 + 65**2 + 129**2)


def _kink_conserve(seed, run_dir):
    return _kink(seed, run_dir, "conserve", {"conservation": {"svg": "true"}}, 33**2)


def _verify(run_dir, name, write, nodes):
    """A `verify` of the external frame file that write(path) writes."""
    frame = workloads._input(run_dir, name + ".pssfield")
    write(os.path.join(run_dir, frame))
    config = workloads._write_ini(
        run_dir, name, {"model": {"kind": "external", "field_file": frame}}
    )
    return workloads.Inputs("verify", config, nodes, ("pass",), [config, frame])


def _igsge3d_verify(seed, run_dir):
    from pssframe import GridChart
    from pssframe.frames import save_frame_data
    from pssframe.models import igsge_explicit_solution, igsge_forms

    chart = GridChart((0.5, -4.0, -4.0), (5.5 / 24, 8.0 / 24, 8.0 / 24), (25, 25, 25))

    def write(path):
        save_frame_data(path, igsge_forms(igsge_explicit_solution(chart, (0.6, 0.8))))

    return _verify(run_dir, "igsge3d-frame", write, 25**3)


def _kink_verify_commented(seed, run_dir):
    velocity = np.random.default_rng(seed).uniform(-0.5, 0.5)

    def write(path):
        workloads.write_kink_frame(path, 65, velocity)
        with open(path) as fh:
            header, body = fh.read().split("\n", 1)
        with open(path, "w") as fh:
            fh.write(header + "\n# a comment line: outside the fast reader's grammar\n" + body)

    return _verify(run_dir, "kink-frame-commented", write, 65**2)


# name -> input generator(seed, run_dir) of the fixed cases
CASES = {
    "igsge3d-solve-frame-49": _igsge3d_solve_frame,
    "igsge4d-converge": _igsge4d_converge,
    "ch-hierarchy-order4": _ch_hierarchy,
    "kink-converge-33": _kink_converge,
    "kink-conserve-33": _kink_conserve,
    "igsge3d-verify-25": _igsge3d_verify,
    "kink-verify-commented-65": _kink_verify_commented,
}
NAMES = list(workloads.WORKLOADS) + list(CASES)


def generate(name, seed, run_dir):
    """The inputs of a benchmark workload or a fixed case."""
    if name in CASES:
        return CASES[name](seed, run_dir)
    return workloads.generate(name, seed, run_dir)


def _run(name, inputs, run_dir, src, out):
    """(path, sha256) of each output file of one command run, and of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pssframe", *inputs.argv(out)],
        cwd=run_dir, env=env, capture_output=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit("%s exited %d" % (name, proc.returncode))
    files = workloads.output_digests(os.path.join(run_dir, out))
    return list(files.items()) + [("stdout", hashlib.sha256(proc.stdout).hexdigest())]


def digests(name, seed, checkouts=(ROOT,)):
    """Per checkout, the (path, sha256) list of one workload run on one set of inputs."""
    with tempfile.TemporaryDirectory() as run_dir:
        inputs = generate(name, seed, run_dir)
        sides = []
        for checkout in checkouts:
            files = _run(name, inputs, run_dir, Path(checkout) / "src", "out")
            sides.append([("%s/%s" % (name, file), digest) for file, digest in files])
            shutil.rmtree(os.path.join(run_dir, "out"))
        return sides


def compare(ours, theirs):
    """The `path  this  other` lines of the paths whose digests differ.

    ours and theirs are (path, sha256) lists; a path on one side only is
    compared against "-".  The lines keep the order of ours, then theirs.
    """
    mine, other = dict(ours), dict(theirs)
    paths = list(dict.fromkeys([path for path, _ in ours] + [path for path, _ in theirs]))
    return [
        "%s  %s  %s" % (path, mine.get(path, MISSING), other.get(path, MISSING))
        for path in paths
        if mine.get(path, MISSING) != other.get(path, MISSING)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, action="append",
        help="input seed, may be repeated (default %d)" % workloads.DEFAULT_SEED,
    )
    parser.add_argument("--compare", metavar="DIR", help="checkout to compare against")
    args = parser.parse_args(argv)
    seeds = args.seed or [workloads.DEFAULT_SEED]
    checkouts = (ROOT,) if args.compare is None else (ROOT, Path(args.compare).resolve())
    differ = False
    for seed in seeds:
        prefix = "%d/" % seed if len(seeds) > 1 else ""
        for name in NAMES:
            sides = [[(prefix + p, d) for p, d in side] for side in digests(name, seed, checkouts)]
            if args.compare is None:
                lines = ["%s  %s" % (digest, path) for path, digest in sides[0]]
            else:
                lines = compare(*sides)
                differ = differ or bool(lines)
            for line in lines:
                print(line, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
