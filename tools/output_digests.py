"""Print the SHA-256 of every output file of the four benchmark workloads.

Usage (from the repository root):

    python3 tools/output_digests.py [--seed N]

Each workload's inputs come from `perfbench/workloads.generate`.  Its CLI
command runs on them in a fresh interpreter, on the package under src/ of
the checkout this script sits in, inside a temporary directory.  One
`sha256  path` line is printed per output file, the path being
`<workload>/<file>`, and one more for the command's stdout.  Diff the
output on two checkouts to see that a change keeps every output
byte-identical.  Exits 1 when a command does not exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def digests(name, seed):
    """(path, sha256) of each output file of one workload run, and of its stdout."""
    with tempfile.TemporaryDirectory() as run_dir:
        inputs = workloads.generate(name, seed, run_dir)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pssframe", *inputs.argv("out")],
            cwd=run_dir, env=env, capture_output=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit("%s exited %d" % (name, proc.returncode))
        files = workloads.output_digests(os.path.join(run_dir, "out"))
        out = [("%s/%s" % (name, file), digest) for file, digest in files.items()]
        return out + [("%s/stdout" % name, hashlib.sha256(proc.stdout).hexdigest())]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        for path, digest in digests(name, args.seed):
            print("%s  %s" % (digest, path), flush=True)


if __name__ == "__main__":
    main()
