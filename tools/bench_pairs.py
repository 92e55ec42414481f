"""Run the benchmark in alternating pairs on two checkouts and summarise them.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed0 K] [--json PATH]

For each workload in the order given, pair i (1-based) runs
`perfbench/run.py --workload NAME --seed K+i-1 --seconds S` once in each
checkout, parent first on odd pairs and change first on even ones, so a
drift of the host's speed does not favour one side.  One line is printed
per run.  Then, for each end-to-end metric in the change checkout's
BENCHMARK.json, each side's median and quartiles, the number of pairs the
change wins (ties count for neither), and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ, in
the better direction, by more than the distance between the parent's
quartiles.  A run that exits non-zero or reports incorrect outputs is
listed and left out of the summary.  Each run's manifest residuals and
its raw medians, the invocation wall "wall_s" and the reference
computation's seconds "ref_s" that wall_ref divides by, are read (never
written) from the record that perfbench/run.py leaves under its checkout's
perfbench/_work/results/; the raw medians get the same summary as the
metrics ("raw_summary", both lower is better), and one line is printed for
each residual that differs between the two sides of a pair.  The last line
printed is one JSON object, {"seconds", "seed0", "workloads"}, where
"workloads" lists per workload its name, failed run count, every run with
its residuals and raw medians, its summary and its raw summary; --json
also writes it to PATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RAW = {"wall_s": "lower", "ref_s": "lower"}


def run_once(checkout, workload, seed, seconds):
    """The result line of one benchmark run, or None when the run failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line if line["correct"] else None


def read_record(checkout, workload, seed):
    """(manifest residuals, {"wall_s", "ref_s"} raw medians) in the record of
    the run just made in checkout; either is None when the record does not
    hold it."""
    path = Path(checkout, "perfbench", "_work", "results", "%s-s%d-t0.json" % (workload, seed))
    try:
        record = json.loads(path.read_text())["record"]
        residuals = record["child"]["residuals"]
    except (OSError, ValueError, KeyError, TypeError):
        return None, None
    try:
        raw = {"wall_s": record["wall_s"], "ref_s": statistics.median(record["child"]["refs"])}
    except (KeyError, TypeError, statistics.StatisticsError):
        raw = None
    return residuals, raw


def flatten(tree, prefix=""):
    """{dotted key: leaf} of nested dicts; a leaf that is not a dict stays whole."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    flat = {}
    for key, value in tree.items():
        flat.update(flatten(value, "%s.%s" % (prefix, key) if prefix else str(key)))
    return flat


def residual_differences(runs):
    """(pair, seed, key, parent value, change value) of every residual that
    differs between the two sides of a pair; a key only one side reports
    differs too (its missing value is None).  Pairs where a side has no
    residuals are skipped."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault((run["pair"], run["seed"]), {})[run["side"]] = run["residuals"]
    found = []
    for (pair, seed), sides in sorted(by_pair.items()):
        if any(sides.get(side) is None for side in SIDES):
            continue
        parent, change = (flatten(sides[side]) for side in SIDES)
        for key in sorted(set(parent) | set(change)):
            if parent.get(key) != change.get(key):
                found.append((pair, seed, key, parent.get(key), change.get(key)))
    return found


def quartiles(values):
    """(q1, median, q3) of values, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, better):
    """Per-metric medians, quartiles and wins of the change over its parent.

    runs is a list of {"pair", "side", "metrics"} records, metrics a
    {name: value} dict or None for a failed run; better maps each metric
    name to "lower" or "higher".  Only pairs where both sides succeeded
    count.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in sorted(by_pair) if all(by_pair[p].get(s) for s in SIDES)]
    if not pairs:
        return {}
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        values = {s: [by_pair[p][s][name] for p in pairs] for s in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        summary[name] = {
            "better": direction,
            **stats,
            "wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and gap > iqr,
        }
    return summary


def run_workload(checkouts, workload, pairs, seconds, seed0, better):
    """Run the pairs of one workload, print them and their summary, and
    return the workload's record for the JSON line."""
    print("workload %s" % workload, flush=True)
    runs = []
    for pair in range(1, pairs + 1):
        seed = seed0 + pair - 1
        for side in SIDES if pair % 2 else SIDES[::-1]:
            line = run_once(checkouts[side], workload, seed, seconds)
            metrics = residuals = raw = None
            if line is not None:
                metrics = {name: m["value"] for name, m in line["metrics"].items()}
                residuals, raw = read_record(checkouts[side], workload, seed)
            runs.append({"pair": pair, "seed": seed, "side": side, "metrics": metrics,
                         "residuals": residuals, "raw": raw})
            shown = "FAILED" if metrics is None else " ".join(
                "%s=%.6g" % kv for kv in {**metrics, **(raw or {})}.items()
            )
            print("pair %d seed %d %-6s %s" % (pair, seed, side, shown), flush=True)

    summary = summarize(runs, better)
    raw_summary = summarize([{**run, "metrics": run["raw"]} for run in runs], RAW)
    for name, s in {**summary, **raw_summary}.items():
        print("%-14s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d%s" % (
            name, s["parent"]["median"], s["parent"]["q1"], s["parent"]["q3"],
            s["change"]["median"], s["change"]["q1"], s["change"]["q3"],
            s["wins"], s["pairs"], "  gain" if s["gain"] else "",
        ))
    for pair, seed, key, parent, change in residual_differences(runs):
        print("residual differs: pair %d seed %d %s parent %r change %r"
              % (pair, seed, key, parent, change))
    return {
        "workload": workload,
        "failed": sum(run["metrics"] is None for run in runs),
        "runs": runs,
        "summary": summary,
        "raw_summary": raw_summary,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed0", type=int, default=20260817)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    result = {
        "seconds": args.seconds,
        "seed0": args.seed0,
        "workloads": [
            run_workload(checkouts, workload, args.pairs, args.seconds, args.seed0, better)
            for workload in args.workload
        ],
    }
    text = json.dumps(result)
    if args.json:
        args.json.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
