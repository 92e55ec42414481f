"""tools/bench_pairs.py: alternating run order and the summary of fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [2.00, 2.10, 2.05, 1.95, 2.20]
CHANGE = [1.80, 1.90, 2.10, 1.85, 1.95]


def _runs(parent, change, name="wall_ref"):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        for side, value in (("parent", p), ("change", c)):
            metrics = None if value is None else {name: value}
            runs.append({"pair": pair, "side": side, "metrics": metrics})
    return runs


def test_summary_of_fixed_numbers():
    got = bench_pairs.summarize(_runs(PARENT, CHANGE), {"wall_ref": "lower"})["wall_ref"]
    assert got["parent"] == {"median": 2.05, "q1": 2.00, "q3": 2.10}
    assert got["change"] == pytest.approx({"median": 1.90, "q1": 1.85, "q3": 1.95})
    # pair 3 is lost (2.10 > 2.05)
    assert (got["wins"], got["pairs"]) == (4, 5)
    # 4 of 5 is under nine tenths, although the medians differ by 0.15 > IQR 0.10
    assert got["gain"] is False


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    parent = [2.0 + 0.01 * i for i in range(10)]
    change = [p - 0.2 for p in parent]
    better = {"wall_ref": "lower"}
    assert bench_pairs.summarize(_runs(parent, change), better)["wall_ref"]["gain"] is True
    # every pair won, but by less than the parent's interquartile range
    close = [p - 0.01 for p in parent]
    summary = bench_pairs.summarize(_runs(parent, close), better)["wall_ref"]
    assert summary["wins"] == 10 and summary["gain"] is False
    # a metric where higher is better counts the other way round
    higher = bench_pairs.summarize(_runs(parent, change, "rate"), {"rate": "higher"})["rate"]
    assert higher["wins"] == 0 and higher["gain"] is False


def test_ties_count_for_neither_side_and_failed_pairs_are_left_out():
    summary = bench_pairs.summarize(
        _runs([2.0, 2.0, 3.0], [2.0, None, 1.0]), {"wall_ref": "lower"}
    )["wall_ref"]
    assert (summary["wins"], summary["pairs"]) == (1, 2)
    assert bench_pairs.summarize(_runs([2.0], [None]), {"wall_ref": "lower"}) == {}


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": "wall_ref", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == tmp_path / "p" else "change"
        calls.append((side, seed))
        value = 2.0 if side == "parent" else 1.5
        return {"correct": True, "metrics": {"wall_ref": {"value": value, "unit": "x"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--workload", "w",
            "--pairs", "3", "--seconds", "1", "--seed0", "7", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9)]
    printed = capsys.readouterr().out.splitlines()
    assert len([line for line in printed if line.startswith("pair ")]) == 6
    last = json.loads(printed[-1])
    assert last == json.loads(out.read_text())
    (only,) = last["workloads"]
    assert only["workload"] == "w"
    assert only["summary"]["wall_ref"]["wins"] == 3 and only["failed"] == 0


def test_workloads_run_in_the_order_given_into_one_json(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": "peak_rss_mb", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "parent" if checkout == tmp_path / "p" else "change"
        calls.append((workload, side, seed))
        if (workload, side, seed) == ("b", "change", 4):
            return None
        value = {"a": 60.0, "b": 50.0}[workload] - (side == "change")
        return {"correct": True, "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path), "--workload", "a",
            "--workload", "b", "--pairs", "2", "--seconds", "1", "--seed0", "3",
            "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("a", "parent", 3), ("a", "change", 3), ("a", "change", 4),
                     ("a", "parent", 4), ("b", "parent", 3), ("b", "change", 3),
                     ("b", "change", 4), ("b", "parent", 4)]
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("workload ")] == [
        "workload a", "workload b"
    ]
    last = json.loads(printed[-1])
    assert last == json.loads(out.read_text())
    assert (last["seconds"], last["seed0"]) == (1.0, 3)
    a, b = last["workloads"]
    assert [w["workload"] for w in (a, b)] == ["a", "b"]
    assert len(a["runs"]) == len(b["runs"]) == 4
    assert (a["failed"], b["failed"]) == (0, 1)
    assert a["summary"]["peak_rss_mb"]["change"]["median"] == 59.0
    # the failed run leaves pair 2 of b out of its summary only
    assert (a["summary"]["peak_rss_mb"]["pairs"], b["summary"]["peak_rss_mb"]["pairs"]) == (2, 1)
    assert b["summary"]["peak_rss_mb"]["parent"]["median"] == 50.0


def _record(checkout, workload, seed, residuals, wall_s=None, refs=None):
    path = checkout / "perfbench" / "_work" / "results" / ("%s-s%d-t0.json" % (workload, seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"child": {"residuals": residuals}}
    if wall_s is not None:
        record["wall_s"] = wall_s
        record["child"]["refs"] = refs
    path.write_text(json.dumps({"record": record}))
    return path


def test_residual_differences_compare_the_flattened_residuals_of_each_pair():
    same = {"closed": 1e-5, "orders": {"0": {"drift": 2e-11}}, "pass": True}
    moved = {"closed": 1e-5, "orders": {"0": {"drift": 3e-11}}, "pass": True}
    runs = [
        {"pair": 1, "seed": 7, "side": "parent", "residuals": same},
        {"pair": 1, "seed": 7, "side": "change", "residuals": same},
        {"pair": 2, "seed": 8, "side": "change", "residuals": moved},
        {"pair": 2, "seed": 8, "side": "parent", "residuals": same},
        {"pair": 3, "seed": 9, "side": "parent", "residuals": same},
        {"pair": 3, "seed": 9, "side": "change", "residuals": None},
        {"pair": 4, "seed": 10, "side": "parent", "residuals": {"a": [1, 2]}},
        {"pair": 4, "seed": 10, "side": "change", "residuals": {"b": 0.5}},
    ]
    assert bench_pairs.flatten(same) == {"closed": 1e-5, "orders.0.drift": 2e-11, "pass": True}
    assert bench_pairs.residual_differences(runs) == [
        (2, 8, "orders.0.drift", 2e-11, 3e-11),
        (4, 10, "a", [1, 2], None),
        (4, 10, "b", None, 0.5),
    ]


def test_runs_carry_their_record_residuals_read_without_writing(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": "wall_ref", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    parent = tmp_path / "p"
    records = [
        _record(parent, "w", 7, {"compat": 1e-6, "closed": 2e-5}, 0.25, [0.2, 0.1, 0.15]),
        _record(tmp_path, "w", 7, {"compat": 1e-6, "closed": 2e-5}, 0.24, [0.16, 0.12]),
        _record(parent, "w", 8, {"compat": 1e-6}),
        _record(tmp_path, "w", 8, {"compat": 4e-6}),
    ]
    before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in records]

    def fake_run(checkout, workload, seed, seconds):
        return {"correct": True, "metrics": {"wall_ref": {"value": 2.0, "unit": "x"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", str(parent), "--change", str(tmp_path), "--workload", "w",
            "--pairs", "3", "--seconds", "1", "--seed0", "7"]
    assert bench_pairs.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("residual differs")] == [
        "residual differs: pair 2 seed 8 compat parent 1e-06 change 4e-06"
    ]
    (only,) = json.loads(printed[-1])["workloads"]
    runs = only["runs"]
    assert runs[0]["residuals"] == {"compat": 1e-6, "closed": 2e-5}
    assert [run["residuals"] for run in runs[4:]] == [None, None]  # seed 9: no record
    # the raw medians of a record: its wall_s and the median of its refs
    assert [run["raw"] for run in runs[:2]] == [
        {"wall_s": 0.25, "ref_s": 0.15}, {"wall_s": 0.24, "ref_s": pytest.approx(0.14)}
    ]
    assert [run["raw"] for run in runs[2:]] == [None] * 4
    assert printed[0] == "workload w"
    assert printed[1] == "pair 1 seed 7 parent wall_ref=2 wall_s=0.25 ref_s=0.15"
    # only pair 1 has raw medians on both sides
    raw = only["raw_summary"]
    assert (raw["wall_s"]["wins"], raw["wall_s"]["pairs"], raw["ref_s"]["wins"]) == (1, 1, 1)
    assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in records] == before
