"""Command line: config parsing, subcommands, manifests, determinism."""

import errno
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    exp_metric_frame,
    flat_frame,
    half_space_frame,
    non_finite_frame,
    writable_copy,
)
from pssframe import cli, grid
from pssframe.cli import main
from pssframe.config import parse_config
from pssframe.frames import require_orthogonal, save_frame_data
from pssframe.grid import GridChart
from pssframe.models import ch_from_arrays, igsge_explicit_solution, igsge_forms
from pssframe.rotation_solver import structure_gate

SG_CONFIG = """
[model]
kind = sine_gordon

[chart]
origin = -4, -4
extent = 8, 8
counts = 33, 33
"""

IGSGE3D_CONFIG = """
[model]
kind = igsge
c = 0.6, 0.8

[chart]
origin = 0.5, -4, -4
extent = 5.5, 8, 8
counts = 9, 9, 9
"""

CH_CONFIG = """
[model]
kind = camassa_holm
m = 0.5
period = 6
t_final = 0.5
nx = 64
nt = 8

[hierarchy]
order = 1
periodic_axis = 1
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def test_verify_reports_structure_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, SG_CONFIG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("model: sine_gordon pde_residual=")
    assert lines[1].startswith("structure: res1=")
    assert lines[1].endswith("pass")
    manifest = read_manifest(out)
    assert manifest["command"] == "verify"
    assert manifest["grid_scale"] == 1
    assert manifest["results"]["pass"] is True
    digest = hashlib.sha256(open(cfg, "rb").read()).hexdigest()
    assert manifest["config_sha256"] == digest
    assert manifest["tolerances"]["gate_factor"] == 10.0


def test_verify_fails_on_frame_with_wrong_curvature(tmp_path, capsys):
    field = tmp_path / "flat.pssfield"
    save_frame_data(field, flat_frame(17))
    cfg = write_config(
        tmp_path,
        "[model]\nkind = external\nfield_file = %s\n" % field,
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")
    assert read_manifest(out)["results"]["pass"] is False


@pytest.mark.parametrize(
    "value", ["nan", "inf", "-inf"], ids=["nan", "+inf", "-inf"]
)
@pytest.mark.parametrize("component", ["omega", "connection"])
@pytest.mark.parametrize("dim", [2, 3])
def test_verify_refuses_non_finite_field_file(tmp_path, capsys, dim, component, value):
    field = tmp_path / "bad.pssfield"
    save_frame_data(field, non_finite_frame(dim, component, float(value)))
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: non-finite coefficient %s" % (field, value))
    assert "Traceback" not in err


def gate_in_memory(monkeypatch, fd):
    """Make verify's external frame file the in-memory frame fd: `verify`
    folds the file into the gate as it reads it, so fd takes the place of
    that whole step."""
    monkeypatch.setattr(cli, "file_structure_gate", lambda path, factor: structure_gate(fd, factor))


@pytest.mark.parametrize(
    "value", ["nan", "inf", "-inf"], ids=["nan", "+inf", "-inf"]
)
@pytest.mark.parametrize("component", ["omega", "connection"])
@pytest.mark.parametrize("dim", [2, 3])
def test_verify_fails_non_finite_frame_data(
    tmp_path, capsys, monkeypatch, dim, component, value
):
    # frame data that reaches the gate without the file check
    fd = non_finite_frame(dim, component, float(value))
    gate_in_memory(monkeypatch, fd)
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = unused\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")
    assert read_manifest(out)["results"]["pass"] is False


def test_solve_frame_writes_fields_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, SG_CONFIG)
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("solve: compat=")
    for name in ("theta1.pssfield", "rotation.pssfield", "phi.pssfield"):
        assert (out / name).exists()
    results = read_manifest(out)["results"]
    for key in ("compat_residual", "closed_residual", "orth_residual", "res1", "res2"):
        assert key in results
    assert results["orth_residual"] <= 1e-12


def test_solve_frame_gate_blocks_flat_frame(tmp_path, capsys):
    field = tmp_path / "flat.pssfield"
    save_frame_data(field, flat_frame(17))
    cfg = write_config(
        tmp_path,
        "[model]\nkind = external\nfield_file = %s\n" % field,
    )
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("gate failure:")


def test_solve_frame_coordinates_check(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        """
[model]
kind = igsge
c = 1.0

[chart]
origin = 0.5, -1
spacing = 0.1, 0.1
counts = 26, 21

[solver]
coordinates_check = true
""",
    )
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("coords: path=")
    assert (out / "potential.pssfield").exists()
    results = read_manifest(out)["results"]
    assert results["path_residual"] < 1e-8
    (residual,) = results["coordinate_residuals"]
    assert residual < 1e-3
    assert lines[-1] == "coords: path=%.3e coordinates=%.3e" % (results["path_residual"], residual)


def test_solve_frame_fails_a_non_finite_coordinate_certificate(tmp_path, capsys):
    # e^G theta_2 / 1e-320 overflows: the certificate is NaN, not a pass
    cfg = write_config(
        tmp_path,
        SG_CONFIG.replace("33, 33", "9, 9")
        + "\n[solver]\ncoordinates_check = true\ncoordinate_constants = 1e-320\n",
    )
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: coordinate check certificate is not finite: ")
    assert not (out / "manifest.json").exists()


def test_failed_coordinate_check_leaves_no_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SG_CONFIG.replace("33, 33", "9, 9")
        + "\n[solver]\ncoordinates_check = true\ncoordinate_constants = 1e-320\n",
    )
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == []


def test_four_dimensional_coordinates_check_reports_three_residuals(tmp_path, capsys):
    # the half-space frame is special already: every coordinate is exact
    field = tmp_path / "half_space.pssfield"
    save_frame_data(field, half_space_frame(4, 5))
    cfg = write_config(
        tmp_path,
        "[model]\nkind = external\nfield_file = %s\n"
        "[solver]\ncoordinates_check = true\n" % field,
    )
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("coords: path=") and line.count(",") == 2
    residuals = read_manifest(out)["results"]["coordinate_residuals"]
    assert len(residuals) == 3
    assert max(residuals) < 1e-14


def test_ill_conditioned_frame_fails_the_coordinate_check_with_one_line(tmp_path, capsys):
    # condition e^400: the frame passes the structure gate and the solve,
    # and the relative determinant test refuses every node; its threshold
    # det_rtol * max|coefficient|^2 used to overflow a Python float
    field = tmp_path / "steep.pssfield"
    save_frame_data(field, exp_metric_frame(33, -400.0, -399.0))
    cfg = write_config(
        tmp_path,
        "[model]\nkind = external\nfield_file = %s\n"
        "[solver]\ncoordinates_check = true\n" % field,
    )
    out = tmp_path / "out"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("solve: ")
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: degenerate frame: coefficient matrix is singular everywhere")
    assert sorted(p.name for p in out.iterdir()) == []


def gate_failing_frame():
    """An igsge frame on a fine 9^3 chart with omega_2 doubled: it fails the
    structure gate by a factor of ten."""
    chart = GridChart((0.5, -0.2, -0.2), (0.05,) * 3, (9, 9, 9))
    fd = writable_copy(igsge_forms(igsge_explicit_solution(chart, (0.6, 0.8))))
    fd.omega[1] *= 2.0
    return fd


@pytest.mark.parametrize("frame", ["perturbed", "nan"])
@pytest.mark.parametrize("command", ["verify", "solve-frame", "converge", "conserve"])
def test_structure_gate_failure_exits_one_without_a_pass(
    tmp_path, capsys, monkeypatch, command, frame
):
    if frame == "perturbed":
        field = tmp_path / "frame.pssfield"
        save_frame_data(field, gate_failing_frame())
    else:  # the file reader refuses NaN, so it reaches the gate from memory
        field = "unused"
        fd = non_finite_frame(3, "omega", np.nan)
        monkeypatch.setattr(cli, "load_frame_data", lambda path: fd)
        gate_in_memory(monkeypatch, fd)  # verify folds the file into the gate
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    if command == "verify":
        assert captured.err == ""
        assert captured.out.splitlines()[-1].endswith("FAIL")
        assert read_manifest(out)["results"]["pass"] is False
    else:
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gate failure: structure residuals")
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_file_holds_the_entries_in_row_major_order(tmp_path, n):
    from types import SimpleNamespace

    from pssframe.fieldio import read_field

    chart = GridChart((0.0,) * n, (1.0,) * n, (3, 4, 5)[:n])
    rotation = np.arange(math.prod(chart.counts) * n * n, dtype=float)
    rotation = rotation.reshape(chart.counts + (n, n))
    report = SimpleNamespace(theta1=np.zeros((n,) + chart.counts), rotation=rotation, angle=None)
    cli._write_report_fields(str(tmp_path), chart, report)
    _, stack = read_field(tmp_path / "rotation.pssfield")
    want = [rotation[..., i, j] for i in range(n) for j in range(n)]
    assert np.array_equal(stack, np.stack(want))


def test_verify_fails_a_frame_with_the_numbers_the_solvers_name(tmp_path, capsys):
    field = tmp_path / "frame.pssfield"
    save_frame_data(field, gate_failing_frame())
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "solve")]) == 1
    named = re.fullmatch(
        r"gate failure: structure residuals \((\S+), (\S+)\) exceed gate (\S+)\n",
        capsys.readouterr().err,
    ).groups()
    out = tmp_path / "verify"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == "structure: res1=%s res2=%s threshold=%s FAIL" % named
    results = read_manifest(out)["results"]
    assert tuple("%.3e" % results[key] for key in ("res1", "res2", "threshold")) == named


@pytest.mark.parametrize("state", ["perturbed", "nan-line"])
@pytest.mark.parametrize("command", ["hierarchy", "conserve"])
def test_camassa_holm_gate_failure_exits_one_without_a_pass(
    tmp_path, capsys, monkeypatch, command, state
):
    evolve = cli._ch_state

    def bad_state(cfg, scale):
        good = evolve(cfg, scale)
        u, u_x = good.u.copy(), good.u_x.copy()
        if state == "perturbed":
            u_x *= 3.0
        else:  # a whole line of x nodes, the periodic start's line included
            u[5, :] = np.nan
        return ch_from_arrays(good.chart, good.m, u, u_x, good.u_xx)

    monkeypatch.setattr(cli, "_ch_state", bad_state)
    cfg = write_config(tmp_path, CH_CONFIG)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("gate failure: structure residuals")
    assert "Traceback" not in err[0]
    assert not (out / "manifest.json").exists()


def test_hierarchy_writes_per_order_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, CH_CONFIG)
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("order 0: compat=")
    assert lines[1].startswith("order 1: compat=")
    for order in (0, 1):
        assert (out / ("phi_%d.pssfield" % order)).exists()
        assert (out / ("theta_%d.pssfield" % order)).exists()
    manifest = read_manifest(out)
    assert set(manifest["results"]["orders"]) == {"0", "1"}


def test_hierarchy_rejects_non_family_models(tmp_path, capsys):
    cfg = write_config(tmp_path, SG_CONFIG)
    assert main(["hierarchy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_conserve_writes_csv_and_svg(tmp_path, capsys):
    cfg = write_config(tmp_path, CH_CONFIG + "\n[conservation]\nsvg = true\n")
    out = tmp_path / "out"
    assert main(["conserve", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("model: camassa_holm integral_drift=")
    assert lines[1].startswith("order 0 conserve:")
    assert "rel_drift=" in lines[1]
    header = (out / "conservation.csv").read_text().splitlines()[0]
    assert header == "order,axis,t,Q,drift,flux_residual"
    assert (out / "q.svg").exists()
    results = read_manifest(out)["results"]
    assert results["pass"] is True
    assert "relative_drift" in results["orders"]["0"]


def test_conserve_drift_gate(tmp_path):
    cfg = write_config(tmp_path, CH_CONFIG + "\n[conservation]\ndrift_tol = 1e-30\n")
    out = tmp_path / "out"
    assert main(["conserve", "--config", cfg, "--out", str(out)]) == 1
    assert read_manifest(out)["results"]["pass"] is False


def test_converge_orders_and_determinism(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SG_CONFIG + "\n[convergence]\nscales = 1, 2\n",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["converge", "--config", cfg, "--out", str(out_a)]) == 0
    text = capsys.readouterr().out
    assert "scale 1: h=" in text
    assert "scale 2: h=" in text
    assert "orders: closed=" in text
    assert main(["converge", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "converge.csv").read_bytes() == (out_b / "converge.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()
    manifest = read_manifest(out_a)
    assert manifest["results"]["closed_order"] >= 1.7
    assert manifest["results"]["pass"] is True


def test_converge_fits_no_order_through_an_exactly_closed_form(tmp_path, capsys):
    # igsge 3D from the identity closes theta_1 exactly at every scale
    cfg = write_config(tmp_path, IGSGE3D_CONFIG + "\n[convergence]\nscales = 1, 2\n")
    runs = []
    for name in ("a", "b"):
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / name)]) == 1
        runs.append(capsys.readouterr())
    assert "orders: closed=null pairs=null floor=1.70\n" in runs[0].out
    assert runs[0].err == "error: closed residual is zero at scales 1, 2: no order to fit\n"
    assert runs[1] == runs[0]
    for name in ("manifest.json", "converge.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    results = _strict_json((tmp_path / "a" / "manifest.json").read_text())["results"]
    assert [row["closed"] for row in results["rows"]] == [0.0, 0.0]
    assert results["closed_order"] is None and results["pair_orders"] == [None]
    assert results["pass"] is False


def test_converge_orders_leave_out_only_the_pairs_through_an_exact_zero():
    h, errors = [0.4, 0.2, 0.1], [3.1e-3, 7.9e-4, 0.0]
    fit, pairs = cli._orders(h, errors)
    assert fit is None and pairs[1] is None
    assert pairs[0] == np.log(errors[0] / errors[1]) / np.log(h[0] / h[1])


def _watch_models(monkeypatch):
    """Record weakrefs to the frame data and state of every model the CLI builds."""
    refs = []
    build = cli._build_model

    def watched(cfg, scale):
        fd, state = build(cfg, scale)
        refs.append((weakref.ref(fd), weakref.ref(state)))
        return fd, state

    monkeypatch.setattr(cli, "_build_model", watched)
    return refs


def _alive_at_solves(monkeypatch, refs):
    """Per rotation solve, which of the watched objects are still alive."""
    alive = []

    def checked(solve):
        def call(*args, **kwargs):
            alive.append([[ref() is not None for ref in pair] for pair in refs])
            return solve(*args, **kwargs)

        return call

    for name in ("solve_phi_2d", "solve_L_nd"):
        monkeypatch.setattr(cli, name, checked(getattr(cli, name)))
    return alive


def test_solve_frame_drops_the_model_state_before_the_solve(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SG_CONFIG + "\n[solver]\ncoordinates_check = true\n")
    refs = _watch_models(monkeypatch)
    alive = _alive_at_solves(monkeypatch, refs)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # the frame is solved; the sine-Gordon solution it came from is gone
    assert alive == [[[True, False]]]


def test_converge_holds_one_scale_at_a_time(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, IGSGE3D_CONFIG + "\n[convergence]\nscales = 1, 2\n")
    refs = _watch_models(monkeypatch)
    alive = _alive_at_solves(monkeypatch, refs)
    main(["converge", "--config", cfg, "--out", str(tmp_path / "out")])
    # the igsge state (V, h) is gone at each solve, and so is the frame
    # data of the previous scale
    assert alive == [[[True, False]], [[False, False], [True, False]]]


def test_conserve_drops_the_evolved_state_before_the_hierarchy(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CH_CONFIG)
    refs = []
    evolve = cli._ch_state

    def watched(cfg, scale):
        state = evolve(cfg, scale)
        refs.append(weakref.ref(state))
        return state

    alive = []
    solve = cli.solve_hierarchy

    def checked(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "_ch_state", watched)
    monkeypatch.setattr(cli, "solve_hierarchy", checked)
    assert main(["conserve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert alive == [[False]]


def test_grid_scale_refines_chart(tmp_path):
    cfg = write_config(tmp_path, SG_CONFIG)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2), "--grid-scale", "2"]) == 0
    r1 = read_manifest(out1)["results"]
    r2 = read_manifest(out2)["results"]
    assert read_manifest(out2)["grid_scale"] == 2
    assert r2["res2"] < 0.5 * r1["res2"]  # finer grid, smaller residual


def test_grid_scale_rejected_for_external_fields(tmp_path, capsys):
    field = tmp_path / "flat.pssfield"
    save_frame_data(field, flat_frame(9))
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    code = main(
        ["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--grid-scale", "2"]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_external_missing_field_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "absent.pssfield"
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % missing
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % missing)
    assert "Traceback" not in err


def test_external_truncated_field_file_is_config_error(tmp_path, capsys):
    field = tmp_path / "short.pssfield"
    save_frame_data(field, flat_frame(3))
    field.write_text("".join(field.read_text().splitlines(True)[:2]))
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % field)
    assert "body has shape (1, 6), expected (9, 6)" in err


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("origin", "inf,-1", "origin must be finite"),
        ("spacing", "nan,0.25", "spacing must be finite and positive"),
    ],
    ids=["origin-inf", "spacing-nan"],
)
def test_external_non_finite_chart_geometry_is_config_error(
    tmp_path, capsys, key, value, reason
):
    field = tmp_path / "frame.pssfield"
    save_frame_data(field, exp_metric_frame(9))
    header, body = field.read_text().split("\n", 1)
    parts = [
        "%s=%s" % (key, value) if part.startswith(key + "=") else part
        for part in header.split("; ")
    ]
    field.write_text("; ".join(parts) + "\n" + body)
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: %s" % (field, reason))


def test_external_field_file_without_body_is_one_config_error_line(tmp_path):
    field = tmp_path / "empty.pssfield"
    save_frame_data(field, flat_frame(3))
    field.write_text(field.read_text().splitlines(True)[0])
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "pssframe", "verify", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "config error: %s: pssfield body is empty, expected (9, 6)" % field
    ]


def _damage_fifth_line(body, cut, insert):
    """The body cut `cut` bytes into the fourth token of its fifth line, the
    file ending there when `insert` is empty; otherwise `insert` takes the
    place of that byte and the rest of the body stays."""
    lines = body.split(b"\n")
    fifth = lines[4]
    at = len(b" ".join(fifth.split(b" ")[:3])) + 1 + cut
    head = b"\n".join(lines[:4] + [fifth[:at]])
    if not insert:
        return head
    return b"\n".join([head + insert + fifth[at + 1 :]] + lines[5:])


@pytest.mark.parametrize("command", ["verify", "solve-frame"])
@pytest.mark.parametrize(
    "cut, insert",
    [(-1, b""), (5, b""), (5, b"x"), (5, b"\xc3\xa9")],
    ids=["cut-mid-line", "cut-mid-token", "garbled-token", "non-ascii"],
)
def test_external_damaged_field_file_is_one_config_error_line(
    tmp_path, capsys, command, cut, insert
):
    field = tmp_path / "frame.pssfield"
    save_frame_data(field, exp_metric_frame(9))
    header, body = field.read_bytes().split(b"\n", 1)
    field.write_bytes(header + b"\n" + _damage_fifth_line(body, cut, insert))
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: %s: " % field)


def _bad_frame_file(field, kind):
    """Write the frame file `kind` at field (or, for "missing", none)."""
    if kind == "missing":
        return
    if kind == "one-dimensional":
        from pssframe.fieldio import write_field

        write_field(field, GridChart((0.0,), (0.5,), (5,)), np.ones((1, 5)))
        return
    fd = exp_metric_frame(9)
    if kind in ("wrong-count", "wrong-count-nan"):
        from pssframe.fieldio import write_field

        stack = np.concatenate([fd.omega.reshape((4, 9, 9)), np.ones((3, 9, 9))])
        stack[6, 8, 8] = np.nan if kind == "wrong-count-nan" else 1.0
        write_field(field, fd.chart, stack)
        return
    save_frame_data(field, fd)
    header, body = field.read_bytes().split(b"\n", 1)
    lines = body.split(b"\n")
    body = {
        "truncated": b"\n".join(lines[:1]),
        "cut-mid-token": _damage_fifth_line(body, 5, b""),
        "garbled-token": _damage_fifth_line(body, 5, b"x"),
        "non-ascii": _damage_fifth_line(body, 5, b"\xc3\xa9"),
        "empty-body": b"",
        "comment-and-nan": b"\n".join(lines[:3] + [b"# a comment"] + lines[3:]).replace(
            lines[40], b" ".join([b"nan"] + lines[40].split()[1:])
        ),
        "extra-node": body + lines[0] + b"\n",
        "bad-header": body,
    }[kind]
    if kind == "bad-header":
        header = header.replace(b"counts=9,9", b"counts=9,x")
    field.write_bytes(header + b"\n" + body)


@pytest.mark.parametrize(
    "kind",
    [
        "missing",
        "truncated",
        "cut-mid-token",
        "garbled-token",
        "non-ascii",
        "empty-body",
        "wrong-count",
        "wrong-count-nan",
        "one-dimensional",
        "comment-and-nan",
        "extra-node",
        "bad-header",
    ],
)
def test_verify_refuses_a_bad_frame_file_with_the_in_memory_line(tmp_path, capsys, kind):
    # solve-frame reads the whole frame, as verify did before it folded the
    # file into the gate; both must refuse a file with one and the same line
    field = tmp_path / "frame.pssfield"
    _bad_frame_file(field, kind)
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field)
    lines = []
    for command in ("solve-frame", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        lines.append(capsys.readouterr().err.splitlines())
    assert len(lines[1]) == 1
    assert lines[1][0].startswith("config error: %s: " % field)
    assert lines[1] == lines[0]


def test_verify_passes_a_loadtxt_only_frame_file_as_the_fast_one(tmp_path, capsys):
    field = tmp_path / "frame.pssfield"
    save_frame_data(field, exp_metric_frame(9))
    fast = field.read_text()
    header, body = fast.split("\n", 1)
    commented = tmp_path / "commented.pssfield"
    commented.write_text(header + "\n# a comment\n" + body)
    stdout = []
    for path in (field, commented):
        cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / path.stem)]) == 0
        stdout.append(capsys.readouterr().out.splitlines()[-1])
        assert read_manifest(tmp_path / path.stem)["results"]["pass"] is True
    assert stdout[0] == stdout[1]


# tracemalloc peak in bytes of `verify` on a 513^2 moving-kink frame file,
# the external-verify workload's size: 14,750,687 while the file was read
# into one (6, 513, 513) array, 2,566,387 since it is folded into the gate
# as it is read (the fast reader's chunk temporaries and one slab of 18
# planes); the guard is the next multiple of 50,000 bytes
VERIFY513_PEAK = 2_600_000


def test_verify_of_a_frame_file_holds_one_slab(tmp_path, capsys):
    from pssframe.models import sg_forms, sg_solution

    field = tmp_path / "kink.pssfield"
    chart = GridChart((-4.0, -4.0), (8.0 / 512,) * 2, (513, 513))
    save_frame_data(field, sg_forms(sg_solution(chart, "moving_kink", 0.3)))
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field)
    argv = ["verify", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # every first-call allocation
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= VERIFY513_PEAK


@pytest.mark.parametrize("components", [0, -1])
def test_external_field_file_without_components_is_config_error(
    tmp_path, capsys, components
):
    field = tmp_path / "frame.pssfield"
    save_frame_data(field, flat_frame(3))
    text = field.read_text()
    field.write_text(text.replace("components=6", "components=%d" % components, 1))
    cfg = write_config(
        tmp_path, "[model]\nkind = external\nfield_file = %s\n" % field
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: %s: malformed pssfield header: components must be >= 1" % field
    ]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("solve-frame", ""),
        ("converge", "\n[convergence]\nscales = 1, 2\n"),
        ("conserve", ""),
    ],
)
def test_orth_tol_is_enforced(tmp_path, capsys, command, extra):
    tolerances = "\n[tolerances]\north_tol = 1e-30\n"
    cfg = write_config(tmp_path, SG_CONFIG + extra + tolerances)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("gate failure: orthogonality residual")


def test_non_orthogonal_rotation_exits_1(tmp_path, capsys, monkeypatch):
    def skewed_solve(fd, *args, **kwargs):
        bad = np.broadcast_to([[1.0, 0.5], [0.0, 1.0]], fd.chart.counts + (2, 2))
        return require_orthogonal(bad)

    monkeypatch.setattr(cli, "solve_phi_2d", skewed_solve)
    cfg = write_config(tmp_path, SG_CONFIG)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("gate failure: matrix field is not orthogonal")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[model]\nkind = heat\n", "not one of"),
        ("[model]\nkind = sine_gordon\nflux = 3\n", "unknown key"),
        ("[extra]\nx = 1\n", "unknown config section"),
        (
            "[model]\nkind = sine_gordon\n[chart]\norigin = -4, -4\n"
            "spacing = 0.25, 0.25\nextent = 8, 8\ncounts = 33, 33\n",
            "not both",
        ),
        ("[chart\norigin = 0, 0\n", "unreadable config"),
        (SG_CONFIG + SG_CONFIG, "unreadable config"),  # duplicate sections
        (CH_CONFIG + "\n[conservation]\ntime_axis = 0\n", "one-based"),
        (CH_CONFIG.replace("nx = 64", "nx = 15"), "even number"),
        (CH_CONFIG + "\n[convergence]\nscales = 1\n", "two entries"),
        (CH_CONFIG + "\n[tolerances]\ngate_factor = 0\n", "positive"),
        ("[model]\nkind = sine_gordon\n", "counts is required"),
        ("[model]\nkind = external\n", "field_file is required"),
        (
            "[model]\nkind = igsge\nc = 1.0\n[chart]\norigin = 0.5, 0\n"
            "spacing = 0.1, 0.1, 0.1\ncounts = 5, 5, 5\n",
            "lengths differ",
        ),
        (
            "[model]\nkind = igsge\nc = 0.5\n[chart]\norigin = 0.5, 0\n"
            "spacing = 0.1, 0.1\ncounts = 5, 5\n",
            "unit length",
        ),
        (
            "[model]\nkind = igsge\nc = 1.0\n[chart]\norigin = 0, 0\n"
            "spacing = 0.1, 0.1\ncounts = 5, 5\n",
            "x_1 > 0",
        ),
        (
            "[model]\nkind = sine_gordon\n[chart]\norigin = -4, -4\n"
            "spacing = 1e200, 0.25\ncounts = 33, 33\n",
            "nonzero square",
        ),
        (
            "[model]\nkind = sine_gordon\n[chart]\norigin = -4, -4\nextent = 8, 8\n",
            r"\[chart\] extent needs counts",
        ),
        (
            "[model]\nkind = sine_gordon\n[chart]\norigin = -4, -4\n"
            "extent = 8, 8\ncounts = 33, 33, 33\n",
            r"\[chart\] extent and counts lengths differ",
        ),
        (
            "[model]\nkind = sine_gordon\n[chart]\norigin = -4, -4, -4\n"
            "extent = 8, 8, 8\ncounts = 9, 9, 9\n",
            "kink model needs a 2D chart",
        ),
        (
            "[model]\nkind = igsge\nc = 0.6, 0.8\n[chart]\norigin = 0.5, 0\n"
            "spacing = 0.1, 0.1\ncounts = 5, 5\n",
            r"\[model\] c needs 1 entries for a 2D chart",
        ),
        (SG_CONFIG + "\n[solver]\nl0 = 1, 0, 0, 1, 0\n", r"l0: need n\*n comma-separated"),
    ],
)
def test_config_errors_have_diagnostics(tmp_path, text, fragment):
    from pssframe.errors import ConfigError

    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(cfg)


# a config that each command runs
COMMAND_CONFIGS = {
    "verify": SG_CONFIG,
    "solve-frame": SG_CONFIG,
    "hierarchy": CH_CONFIG,
    "conserve": SG_CONFIG,
    "converge": SG_CONFIG + "\n[convergence]\nscales = 1, 2\n",
}


def _one_config_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_cli_exit_code_2_on_config_problems(tmp_path, capsys, command):
    missing = str(tmp_path / "absent.ini")
    assert main([command, "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert _one_config_error_line(capsys.readouterr().err)
    cfg = write_config(tmp_path, "[model]\nkind = heat\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert _one_config_error_line(capsys.readouterr().err)
    cfg_ok = write_config(tmp_path, COMMAND_CONFIGS[command], name="ok.ini")
    code = main(
        [command, "--config", cfg_ok, "--out", str(tmp_path / "o"), "--grid-scale", "0"]
    )
    assert code == 2
    assert _one_config_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key",
    [
        ("tolerances", "gate_factor"),
        ("tolerances", "orth_tol"),
        ("tolerances", "det_rtol"),
        ("conservation", "drift_tol"),
        ("convergence", "order_floor"),
    ],
    ids=["gate_factor", "orth_tol", "det_rtol", "drift_tol", "order_floor"],
)
def test_non_finite_tolerances_are_config_errors(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, SG_CONFIG + "\n[%s]\n%s = %s\n" % (section, key, value))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [%s] %s: must be finite" % (section, key))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, chart",
    [
        ("counts", "origin = -4, -4\nextent = 8, 8\ncounts = 1, 5"),
        ("counts", "origin = -4, -4\nextent = 8, 8\ncounts = 2, 5"),
        ("counts", "origin = -4, -4\nextent = 8, 8\ncounts = 0, 5"),
        ("extent", "origin = -4, -4\nextent = 0, 4\ncounts = 9, 9"),
        ("extent", "origin = -4, -4\nextent = -1, 4\ncounts = 9, 9"),
        ("extent", "origin = -4, -4\nextent = nan, 4\ncounts = 9, 9"),
        ("spacing", "origin = -4, -4\nspacing = 0, 0.5\ncounts = 9, 9"),
        ("spacing", "origin = -4, -4\nspacing = inf, 0.5\ncounts = 9, 9"),
        ("origin", "origin = inf, 0\nextent = 8, 8\ncounts = 9, 9"),
    ],
    ids=[
        "counts-1",
        "counts-2",
        "counts-0",
        "extent-0",
        "extent-negative",
        "extent-nan",
        "spacing-0",
        "spacing-inf",
        "origin-inf",
    ],
)
def test_bad_chart_geometry_is_a_config_error(tmp_path, capsys, key, chart):
    cfg = write_config(tmp_path, "[model]\nkind = sine_gordon\n\n[chart]\n%s\n" % chart)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: [chart] %s: " % key)
    assert not (tmp_path / "o").exists()


def test_extent_too_small_for_its_counts_is_a_config_error(tmp_path, capsys):
    chart = "origin = -4, -4\nextent = 5e-324, 8\ncounts = 3, 9"
    cfg = write_config(tmp_path, "[model]\nkind = sine_gordon\n\n[chart]\n%s\n" % chart)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "the spacing is 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base_config, l0, reason",
    [
        (IGSGE3D_CONFIG, "1, 0, 0, 1", "must be 3 x 3"),
        (IGSGE3D_CONFIG, "1, 0, 0, 0, 1, 0, 0, 0, 2", "must be orthogonal"),
        (SG_CONFIG, "1, 0, 0, 2", "2D charts start from phi0"),
    ],
    ids=["2x2-on-3d-chart", "not-orthogonal", "on-2d-chart"],
)
def test_bad_l0_is_a_config_error(tmp_path, capsys, base_config, l0, reason):
    cfg = write_config(tmp_path, base_config + "\n[solver]\nl0 = %s\n" % l0)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] l0: ")
    assert reason in err


def test_identity_l0_is_the_unset_start(tmp_path):
    results = []
    for name, extra in [("unset", ""), ("identity", "\n[solver]\nl0 = identity\n")]:
        cfg = write_config(tmp_path, IGSGE3D_CONFIG + extra, name=name + ".ini")
        assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        results.append(read_manifest(tmp_path / name)["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, COMMAND_CONFIGS[command])
    target = tmp_path / "afile"
    target.write_text("")
    assert main([command, "--config", cfg, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out %s: " % target)
    assert _one_config_error_line(err)


# an output file of each command, and the manifest that every command writes
@pytest.mark.parametrize(
    "command, name",
    [
        ("verify", "manifest.json"),
        ("solve-frame", "theta1.pssfield"),
        ("solve-frame", "manifest.json"),
        ("hierarchy", "phi_0.pssfield"),
        ("hierarchy", "manifest.json"),
        ("conserve", "conservation.csv"),
        ("conserve", "manifest.json"),
        ("converge", "converge.csv"),
        ("converge", "manifest.json"),
    ],
)
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, command, name):
    cfg = write_config(tmp_path, COMMAND_CONFIGS[command])
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s: " % (out / name))
    assert _one_config_error_line(err)


# charts refused before any array is made: the 9^3 igsge chart's (n, n,
# *counts) arrays pass the host's memory at grid scale 20000 and the address
# space at 100000 and 1000000, and so do the Camassa-Holm chart's at 10^8
@pytest.mark.parametrize(
    "command, scale, counts",
    [
        (command, scale, "(%d, %d, %d)" % ((8 * scale + 1,) * 3))
        for command in ("verify", "solve-frame", "conserve", "converge")
        for scale in (20000, 100000, 1000000)
    ]
    + [("hierarchy", 10**8, "(%d, %d)" % (64 * 10**8 + 1, 8 * 10**8 + 1))],
)
def test_unallocatable_chart_is_a_config_error(tmp_path, capsys, command, scale, counts):
    text = CH_CONFIG if command == "hierarchy" else IGSGE3D_CONFIG
    cfg = write_config(tmp_path, text)
    args = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--grid-scale", str(scale)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: chart counts %s at grid scale %d " % (counts, scale))
    assert "--grid-scale" in err
    assert _one_config_error_line(err)


@pytest.mark.parametrize("command", ["verify", "solve-frame", "conserve", "converge"])
def test_memory_error_while_building_the_model_is_a_config_error(
    tmp_path, capsys, monkeypatch, command
):
    # with the host-memory check out of the way, numpy refuses the 3.3e16
    # bytes of one full-grid array of the 9^3 chart at grid scale 20000 at once
    monkeypatch.setattr(cli, "_host_bytes", lambda: None)
    cfg = write_config(tmp_path, IGSGE3D_CONFIG)
    args = [command, "--config", cfg, "--out", str(tmp_path / "o"), "--grid-scale", "20000"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: chart counts (160001, 160001, 160001) at grid scale 20000 ")
    assert _one_config_error_line(err)


@pytest.mark.parametrize(
    "refusal", [OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)), OverflowError("too long")]
)
def test_refused_mapping_while_building_the_model_is_a_config_error(
    tmp_path, capsys, monkeypatch, refusal
):
    # numpy allocates V at once, so a chart too large for the host fails
    # there; here scale 1 runs on numpy arrays alone, and at scale 5 (41^3)
    # V is made and the first mapping, of the 5 MB h, is refused
    def refuse(*args, **kwargs):
        raise refusal

    monkeypatch.setattr(grid.mmap, "mmap", refuse)
    cfg = write_config(tmp_path, IGSGE3D_CONFIG + "\n[convergence]\nscales = 1, 5\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: chart counts (41, 41, 41) at grid scale 5 ")
    assert _one_config_error_line(err)


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 GiB for an array"])
def test_memory_error_after_the_model_is_built_is_one_error_line(
    tmp_path, capsys, monkeypatch, message
):
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve_phi_2d", out_of_memory)
    cfg = write_config(tmp_path, SG_CONFIG)
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    reason = message or "an array could not be allocated"
    assert err.splitlines() == ["error: out of memory: %s" % reason]
    assert "Traceback" not in err


def test_full_disk_while_writing_a_field_is_a_config_error(tmp_path, capsys, monkeypatch):
    def full_disk(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(cli, "write_field", full_disk)
    cfg = write_config(tmp_path, SG_CONFIG)
    out = tmp_path / "o"
    assert main(["solve-frame", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: %s: No space left on device\n" % (out / "theta1.pssfield")


@pytest.mark.parametrize(
    "key, value, message",
    [
        # at nx = 32 these ask for 1.8e6 and about 1.8e300 substeps per row
        ("u0_amplitude", "1e6", "momentum density blew up at output row 1"),
        ("u0_amplitude", "1e300", "momentum density blew up at output row 1"),
        ("cfl", "5e-324", "step bound 0.000e+00 admits no finite substep count"),
        ("m", "1e308", "step bound 5.625e-310 admits no finite substep count"),
    ],
)
def test_evolution_that_cannot_go_on_is_one_error_line(tmp_path, capsys, key, value, message):
    # tier-1 turns a leaked numpy RuntimeWarning into an error
    cfg = write_config(
        tmp_path, "[model]\nkind = camassa_holm\n%s = %s\nnx = 32\nnt = 4\n" % (key, value)
    )
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message]


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "pssframe", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "solve-frame" in proc.stdout


def test_importing_the_command_line_loads_no_numpy_fft():
    # ch_evolve imports numpy's FFT kernels when it runs, so a command that
    # evolves nothing does not pay for loading numpy.fft; the field writer's
    # and reader's tables are built on first use, so neither does a command
    # that writes or reads no field
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, pssframe.cli; from pssframe import fieldio; "
        "print('numpy.fft' in sys.modules, fieldio._words.cache_info().currsize, "
        "fieldio._tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "0"]


def test_defaults_round_trip_through_parser(tmp_path):
    cfg = parse_config(write_config(tmp_path, CH_CONFIG))
    assert cfg.model_kind == "camassa_holm"
    assert cfg.resolved_time_axis() == 1  # evolution time is the second axis
    assert cfg.order == 1
    assert cfg.periodic_axis == 0  # stored zero-based
    assert cfg.scales == (1, 2, 4)
    assert cfg.out_dir == "out"
    sg = parse_config(write_config(tmp_path, SG_CONFIG, name="sg.ini"))
    assert sg.resolved_time_axis() == 0
    assert sg.spacing == (0.25, 0.25)  # extent 8 over 32 intervals


SG_SCALES_CONFIG = SG_CONFIG + "\n[convergence]\nscales = 1, 2\n"


@pytest.mark.parametrize(
    "command, base_config, base, reason",
    [
        ("solve-frame", SG_CONFIG, "100, 100", "out of range"),
        ("solve-frame", SG_CONFIG, "1, 2, 3", "3 entries for a 2D chart"),
        ("converge", SG_SCALES_CONFIG, "100, 100", "out of range"),
        ("conserve", SG_CONFIG, "100, 100", "out of range"),
        ("conserve", CH_CONFIG, "1000, 3", "out of range"),
        ("hierarchy", CH_CONFIG, "1000, 3", "out of range"),
    ],
    ids=["solve-frame", "length", "converge", "conserve", "conserve-ch", "hierarchy"],
)
def test_base_off_the_chart_is_a_config_error(
    tmp_path, capsys, command, base_config, base, reason
):
    cfg = write_config(tmp_path, base_config + "\n[solver]\nbase = %s\n" % base)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] base: ")
    assert reason in err


def test_wrong_number_of_coordinate_constants_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        SG_CONFIG + "\n[solver]\ncoordinates_check = true\ncoordinate_constants = 1, 2\n",
    )
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] coordinate_constants: ")
    assert "got 2" in err


@pytest.mark.parametrize("command", ["hierarchy", "conserve"])
@pytest.mark.parametrize("key, value", [("l0", "1, 0, 0, 2"), ("phi0", "0.3")])
def test_expansion_commands_refuse_solver_start_keys(tmp_path, capsys, command, key, value):
    cfg = write_config(tmp_path, CH_CONFIG + "\n[solver]\n%s = %s\n" % (key, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] %s: " % key)
    assert "[hierarchy] start_values" in err


@pytest.mark.parametrize(
    "key, lines",
    [
        ("coordinates_check", "coordinates_check = true\ncoordinate_constants = 1, 2, 3\n"),
        ("coordinates_check", "coordinates_check = true\n"),
        ("coordinate_constants", "coordinate_constants = 1\n"),
    ],
    ids=["both", "check", "constants"],
)
@pytest.mark.parametrize(
    "command, base_config",
    [
        ("hierarchy", CH_CONFIG),
        ("conserve", CH_CONFIG),
        ("conserve", SG_CONFIG),
        ("converge", SG_SCALES_CONFIG),
        ("verify", SG_CONFIG),
    ],
    ids=["hierarchy", "conserve-ch", "conserve", "converge", "verify"],
)
def test_coordinate_keys_outside_solve_frame_are_config_errors(
    tmp_path, capsys, command, base_config, key, lines
):
    cfg = write_config(tmp_path, base_config + "\n[solver]\n" + lines)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: [solver] %s: " % key)


def test_coordinate_constants_without_the_check_are_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SG_CONFIG + "\n[solver]\ncoordinate_constants = 2\n")
    assert main(["solve-frame", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] coordinate_constants: ")
    assert "coordinates_check = true" in err


@pytest.mark.parametrize("command", ["hierarchy", "conserve"])
def test_periodic_base_must_start_on_the_first_column(tmp_path, capsys, command):
    bad = write_config(tmp_path, CH_CONFIG + "\n[solver]\nbase = 5, 3\n", name="bad.ini")
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] base: ")
    assert "periodic_axis" in err
    good = write_config(tmp_path, CH_CONFIG + "\n[solver]\nbase = 0, 3\n", name="good.ini")
    assert main([command, "--config", good, "--out", str(tmp_path / "good")]) == 0


@pytest.mark.parametrize("command", ["hierarchy", "conserve"])
def test_periodic_explicit_center_base_is_a_config_error(tmp_path, capsys, command):
    bad = write_config(tmp_path, CH_CONFIG + "\n[solver]\nbase = center\n", name="bad.ini")
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [solver] base: ")
    assert "periodic_axis" in err
    good = write_config(tmp_path, CH_CONFIG + "\n[solver]\nbase = origin\n", name="good.ini")
    assert main([command, "--config", good, "--out", str(tmp_path / "good")]) == 0
    assert parse_config(write_config(tmp_path, CH_CONFIG, name="unset.ini")).base is None


CH_OPEN_CONFIG = CH_CONFIG.replace("periodic_axis = 1\n", "")


@pytest.mark.parametrize("command", ["hierarchy", "conserve"])
@pytest.mark.parametrize(
    "text, reason",
    [
        (CH_CONFIG + "start_values = 0.1\n", "periodic_axis = 1"),
        (CH_OPEN_CONFIG + "start_values = 0.1, 0.2, 0.3\n", "3 entries, but order 1"),
    ],
    ids=["periodic", "past-order"],
)
def test_start_values_that_would_be_ignored_are_config_errors(
    tmp_path, capsys, command, text, reason
):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [hierarchy] start_values: ")
    assert reason in err
    assert "Traceback" not in err


def test_start_values_up_to_the_order_are_used(tmp_path):
    cfg = write_config(tmp_path, CH_OPEN_CONFIG + "start_values = 0.1, 0.2\n")
    out = tmp_path / "out"
    assert main(["hierarchy", "--config", cfg, "--out", str(out)]) == 0
    orders = read_manifest(out)["results"]["orders"]
    assert [orders[key]["start_value"] for key in ("0", "1")] == [0.1, 0.2]


def _strict_json(text):
    def refuse(constant):
        raise ValueError("not strict JSON: %s" % constant)

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "value, threshold", [("nan", "nan"), ("inf", "inf")], ids=["nan", "inf"]
)
def test_non_finite_manifest_values_are_strict_json(
    tmp_path, monkeypatch, value, threshold
):
    fd = non_finite_frame(2, "omega", float(value))
    gate_in_memory(monkeypatch, fd)
    cfg = write_config(tmp_path, "[model]\nkind = external\nfield_file = unused\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    results = _strict_json((out / "manifest.json").read_text())["results"]
    assert results["res1"] == "nan"
    assert results["res2"] == value
    assert results["threshold"] == threshold
    assert results["pass"] is False


def test_manifest_values_spell_non_finite_floats():
    value = {"a": [1.5, float("-inf")], "b": (float("nan"),), "c": np.float64("inf"), "d": True}
    assert cli._json_value(value) == {"a": [1.5, "-inf"], "b": ["nan"], "c": "inf", "d": True}
