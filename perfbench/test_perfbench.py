"""Self-checks of the benchmark, at the smallest workload sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".bytes", ".node_steps", ".mul_calls")


def _plan(name, seed, run_dir, trace):
    inputs = workloads.generate(name, seed, str(run_dir), small=True)
    return {
        "inputs": vars(inputs),
        "warmup": workloads.WORKLOADS[name][1],
        "seconds": 0,
        "trace": trace,
    }


def _counts(result):
    return {k: v["value"] for k, v in result["layers"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_smallest_pass_over_all_workloads(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    for name in workloads.WORKLOADS:
        result = child.measure(_plan(name, seed, tmp_path, trace=False))
        assert result["failures"] == [], (name, result["failures"])
        assert result["attempted"] == workloads.WORKLOADS[name][1] + 1
    assert time.perf_counter() - start < 20.0


# Counts that show the calls made through the cli, rotation_solver and
# hierarchy bindings are traced, at the smallest sizes.
EXPECTED_COUNTS = {
    "kink-solve-frame": {
        "fieldio.write_field.calls": 4,  # theta1, rotation, phi, potential
        "rotation_solver.sweep_scalar.calls": 2,
    },
    "igsge3d-converge": {
        "rotation_solver.solve_L_nd.calls": 2,
        "rotation_solver.solve_L_nd.node_steps": 2 * (13**3 + 25**3),
        "fieldio.write_field.calls": 0,
    },
    "ch-hierarchy-conserve": {
        "hierarchy.expand_phi_system.calls": 2,  # order 2
        "rotation_solver.sweep_scalar.calls": 6,  # 2 per order, orders 0..2
        "fieldio.write_field.calls": 0,
    },
    "external-verify": {"fieldio.read_field.calls": 1},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    first = _counts(child.measure(_plan(name, 3, tmp_path, trace=True)))
    second = _counts(child.measure(_plan(name, 3, tmp_path, trace=True)))
    assert first == second
    for key, value in EXPECTED_COUNTS[name].items():
        assert first[key] == value, key
    if name == "ch-hierarchy-conserve":
        assert first["hierarchy.EtaSeries.mul_calls"] > 0
    if name == "external-verify":
        size = (tmp_path / "inputs/kink_frame.pssfield").stat().st_size
        assert first["fieldio.read_field.bytes"] == size


def test_tracing_restores_the_original_bindings():
    import pssframe.cli
    import pssframe.fieldio
    import pssframe.hierarchy

    before = (pssframe.cli.write_field, pssframe.hierarchy.EtaSeries.__dict__["__rmul__"])
    with spans.traced(spans.Tracer()):
        assert pssframe.cli.write_field is pssframe.fieldio.write_field
        assert pssframe.cli.write_field is not before[0]
    assert pssframe.cli.write_field is before[0]
    assert pssframe.fieldio.write_field is before[0]
    assert pssframe.hierarchy.EtaSeries.__dict__["__rmul__"] is before[1]


def test_negative_control_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = {"negative_control": vars(workloads.negative_control(str(tmp_path)))}
    control = child.negative_control(plan)
    assert control["exit_code"] == 1
    assert control["flagged"]
    assert any("pass" in p for p in control["problems"])


def test_check_flags_changed_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = workloads.generate("ch-hierarchy-conserve", 1, str(tmp_path), small=True)
    _, code, stderr = child.invoke(inputs)
    assert workloads.check_invocation(inputs, code, stderr, child.OUT_DIR) == []
    reference = workloads.output_digests(child.OUT_DIR)
    with open(tmp_path / child.OUT_DIR / "q.svg", "a") as fh:
        fh.write(" ")
    problems = workloads.check_invocation(inputs, code, stderr, child.OUT_DIR, reference)
    assert problems and "q.svg" in problems[0]


def test_default_seed_reproduces_the_acceptance_start_matrix():
    expected = [
        [0.5118123025814296, -0.8551358583724791, 0.08240649641781132],
        [0.2677921124163409, 0.06766009472460192, -0.9610980678939334],
        [0.8162937899150581, 0.5139696248879125, 0.26362790679040315],
    ]
    np.testing.assert_allclose(workloads.seeded_l0(3, workloads.DEFAULT_SEED), expected, rtol=0, atol=1e-15)
