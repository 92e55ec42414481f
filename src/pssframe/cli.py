"""Configuration-driven command line.

Commands: verify, solve-frame, hierarchy, conserve, converge.  Every run
reads one INI config (see `config`), writes its outputs plus a manifest
into the output directory, and exits 0 on success, 1 when a gate fails,
2 on configuration problems.  Runs are deterministic: the same config and
flags produce byte-identical files.  Each `cmd_*` returns its exit code and
results, and `main` writes the manifest from them; a command that raises
writes none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from .config import RunConfig, on_chart, parse_config, run_labels
from .conservation import analyze, write_csv, write_q_svg
from .errors import (
    ConfigError,
    OrthogonalityError,
    PssframeError,
    StructureGateError,
)
from .fieldio import write_field
from .frames import load_frame_data
from .grid import GridChart
from .hierarchy import solve_hierarchy
from .models import (
    ch_evolve,
    ch_forms,
    ch_integral_drift,
    ch_pde_residual,
    ch_series_table,
    igsge_explicit_solution,
    igsge_forms,
    igsge_residual,
    sg_forms,
    sg_pde_residual,
    sg_solution,
)
from .rotation_solver import (
    file_structure_gate,
    solve_L_nd,
    solve_phi_2d,
    special_coordinates_check,
    structure_gate,
)


def _scaled_chart(cfg: RunConfig, scale):
    counts = tuple((c - 1) * scale + 1 for c in cfg.counts)
    spacing = tuple(s / scale for s in cfg.spacing)
    return GridChart(origin=cfg.origin, spacing=spacing, counts=counts)


def _host_bytes():
    """The host's physical memory in bytes, or None where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


@contextlib.contextmanager
def _allocatable(counts, scale):
    """Refuse a chart whose arrays numpy cannot allocate, as a ConfigError.

    An (n, n, *counts) array past the address space would fail with a
    ValueError anywhere in the run, and one past the host's memory could
    not be held, so either is refused before any array is made (the 1D
    arrays of such a chart can be large enough to hurt on their own);
    numpy's MemoryError while the model is built is caught.  The error
    names the counts, the scale and --grid-scale.
    """
    nbytes = 8 * len(counts) ** 2 * math.prod(counts)
    error = ConfigError(
        "chart counts %s at grid scale %d cannot be allocated (%.3g bytes per "
        "(n, n, *counts) array); lower --grid-scale" % (counts, scale, nbytes)
    )
    if nbytes > min(np.iinfo(np.intp).max, _host_bytes() or np.inf):
        raise error
    try:
        yield
    except MemoryError as exc:
        raise error from exc


def _ch_state(cfg: RunConfig, scale):
    """The configured Camassa-Holm evolution at a grid scale."""

    def profile(x):
        return cfg.u0_offset + cfg.u0_amplitude * np.cos(2.0 * np.pi * x / cfg.period)

    nx, nt = cfg.nx * scale, cfg.nt * scale
    with _allocatable((nx + 1, nt + 1), scale):
        return ch_evolve(profile, cfg.m, cfg.period, cfg.t_final, nx=nx, nt=nt, cfl=cfg.cfl)


def _build_model(cfg: RunConfig, scale):
    """Instantiate the configured model at a grid scale.

    Returns (frame_data, state) where state is the model object (None for
    external frame files).  The frame data holds no reference to the state,
    so a caller that needs only the frame drops the state at once.
    """
    kind = cfg.model_kind
    if kind == "camassa_holm":
        state = _ch_state(cfg, scale)
        return ch_forms(state, 0.0), state
    if kind == "sine_gordon":
        chart = _scaled_chart(cfg, scale)
        with _allocatable(chart.counts, scale):
            sol = sg_solution(chart, cfg.kink, cfg.velocity)
            return sg_forms(sol), sol
    if kind == "igsge":
        chart = _scaled_chart(cfg, scale)
        with _allocatable(chart.counts, scale):
            state = igsge_explicit_solution(chart, cfg.c)
            return igsge_forms(state), state
    if kind == "external":
        return _external(cfg, scale, load_frame_data), None
    raise ConfigError("unsupported model kind %r" % kind)


def _external(cfg: RunConfig, scale, read, *args):
    """read(field_file, *args) of the external frame file; a grid scale,
    and the file's OSError or ValueError, are a ConfigError naming it."""
    if scale != 1:
        raise ConfigError("--grid-scale is not applicable to external fields")
    try:
        return read(cfg.field_file, *args)
    except OSError as exc:
        raise ConfigError("%s: %s" % (cfg.field_file, exc.strerror or exc)) from exc
    except ValueError as exc:
        raise ConfigError("%s: %s" % (cfg.field_file, exc)) from exc


def _model_line(cfg: RunConfig, state):
    """The model's own residuals, a line of the verify report."""
    kind = cfg.model_kind
    if kind == "camassa_holm":
        values = (ch_pde_residual(state), ch_integral_drift(state))
        return "model: camassa_holm pde_residual=%.3e integral_drift=%.3e" % values
    if kind == "sine_gordon":
        return "model: sine_gordon pde_residual=%.3e" % sg_pde_residual(state.chart, state.u)
    if kind == "igsge":
        res = igsge_residual(state)
        values = (res.unit, res.gradient, res.coupling, res.mixed)
        return "model: igsge unit=%.3e gradient=%.3e coupling=%.3e mixed=%.3e" % values
    return "model: external file=%s" % cfg.field_file


def _solve(cfg, scale, command):
    """(frame data, chart keys, report) of the configured model's rotation.

    The model is built at the grid scale and its state dropped before the
    solve; keys holds the chart-dependent keys `on_chart` resolves for the
    command.  2D charts start from `phi0`, higher dimensions from `l0`, and
    `[tolerances] orth_tol` is enforced on the rotation.
    """
    fd = _build_model(cfg, scale)[0]
    keys = on_chart(cfg, fd.chart, command)
    if fd.dim == 2:
        phi0 = 0.0 if cfg.phi0 is None else cfg.phi0
        report = solve_phi_2d(fd, phi0, keys["base"], gate_factor=cfg.gate_factor)
    else:
        report = solve_L_nd(fd, keys["l0"], keys["base"], gate_factor=cfg.gate_factor)
    if not report.orth_residual <= cfg.orth_tol:
        raise OrthogonalityError(
            "orthogonality residual %.3e exceeds orth_tol %.3e"
            % (report.orth_residual, cfg.orth_tol)
        )
    return fd, keys, report


def _json_value(value):
    """value with every non-finite float replaced by "nan", "inf" or "-inf".

    Strict JSON has no NaN or Infinity, so a manifest spells them as strings.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return value


def _write(out_dir, name, writer, *args):
    """writer(path, *args) for the output file `name` in out_dir.

    An OSError while writing (a directory in the file's place, a full disk)
    becomes a ConfigError that names the path.
    """
    path = os.path.join(out_dir, name)
    try:
        writer(path, *args)
    except OSError as exc:
        raise ConfigError("%s: %s" % (path, exc.strerror or exc)) from exc


def _write_json(path, value):
    with open(path, "w") as fh:
        json.dump(value, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _write_manifest(out_dir, command, cfg_path, scale, cfg, results):
    with open(cfg_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": digest,
        "grid_scale": scale,
        "tolerances": {
            "gate_factor": cfg.gate_factor,
            "orth_tol": cfg.orth_tol,
            "det_rtol": cfg.det_rtol,
            "drift_tol": cfg.drift_tol,
            "order_floor": cfg.order_floor,
        },
        "results": results,
    }
    _write(out_dir, "manifest.json", _write_json, _json_value(manifest))


def _write_report_fields(out_dir, chart, report):
    _write(out_dir, "theta1.pssfield", write_field, chart, report.theta1)
    # the entries (i, j) in row-major order, as a component-major view
    rot = report.rotation.reshape(chart.counts + (-1,))
    _write(out_dir, "rotation.pssfield", write_field, chart, np.moveaxis(rot, -1, 0))
    if report.angle is not None:
        _write(out_dir, "phi.pssfield", write_field, chart, [report.angle])


def cmd_verify(cfg, out_dir, scale):
    try:
        if cfg.model_kind == "external":
            # the file is folded into the gate as it is read: no frame is held
            state = None
            gate = _external(cfg, scale, file_structure_gate, cfg.gate_factor)
        else:
            fd, state = _build_model(cfg, scale)
            gate = structure_gate(fd, cfg.gate_factor)
        (res1, res2), threshold, _ = gate
        ok = True
    except StructureGateError as exc:
        res1, res2, threshold, ok = exc.res1, exc.res2, exc.threshold, False
    print(_model_line(cfg, state))
    verdict = "pass" if ok else "FAIL"
    print("structure: res1=%.3e res2=%.3e threshold=%.3e %s" % (res1, res2, threshold, verdict))
    return (0 if ok else 1), {"res1": res1, "res2": res2, "threshold": threshold, "pass": ok}


def cmd_solve_frame(cfg, out_dir, scale):
    fd, keys, report = _solve(cfg, scale, "solve-frame")
    print(report.summary())
    results = {
        "compat_residual": report.compat_residual,
        "closed_residual": report.closed_residual,
        "orth_residual": report.orth_residual,
        "res1": report.structure[0],
        "res2": report.structure[1],
    }
    if cfg.coordinates_check:
        check = special_coordinates_check(
            fd, report, keys["coordinate_constants"], keys["base"], cfg.det_rtol
        )
        residuals = check.coordinate_residuals.tolist()
        line = "path=%.3e coordinates=%s" % (
            check.path_residual,
            ",".join("%.3e" % r for r in residuals),
        )
        if not all(map(math.isfinite, [check.path_residual, *residuals])):
            raise PssframeError("coordinate check certificate is not finite: " + line)
        print("coords: " + line)
        results.update(path_residual=check.path_residual, coordinate_residuals=residuals)
    # a run that fails the check leaves no field behind
    _write_report_fields(out_dir, fd.chart, report)
    if cfg.coordinates_check:
        _write(out_dir, "potential.pssfield", write_field, fd.chart, [check.potential])
    return 0, results


def _run_hierarchy(cfg, scale, command):
    """The chart, the integral drift, the solved hierarchy and the chart keys.

    The evolved state is dropped once its table and integral drift are
    taken, so the solve holds only the table (which shares the state's u_x).
    """
    state = _ch_state(cfg, scale)
    chart = state.chart
    keys = on_chart(cfg, chart, command)
    table = ch_series_table(state, cfg.order)
    drift = ch_integral_drift(state)
    del state
    start = dict(enumerate(cfg.start_values)) if cfg.start_values else None
    result = solve_hierarchy(
        chart,
        table,
        cfg.order,
        base=keys["base"],
        start_values=start,
        periodic_axis=cfg.periodic_axis,
        gate_factor=cfg.gate_factor,
    )
    return chart, drift, result, keys


def cmd_hierarchy(cfg, out_dir, scale):
    chart, _, result, _ = _run_hierarchy(cfg, scale, "hierarchy")
    per_order = {}
    for item in result.orders:
        _write(out_dir, "phi_%d.pssfield" % item.order, write_field, chart, [item.phi])
        _write(out_dir, "theta_%d.pssfield" % item.order, write_field, chart, item.form)
        per_order[str(item.order)] = {
            "compat_residual": item.compat_residual,
            "closed_residual": item.closed_residual,
            "start_value": item.start_value,
        }
    for text in result.summary_lines():
        print(text)
    return 0, {"orders": per_order}


def cmd_conserve(cfg, out_dir, scale):
    results = {}
    if cfg.model_kind == "camassa_holm":
        chart, drift_u, hier, keys = _run_hierarchy(cfg, scale, "conserve")
        orders = [item.order for item in hier.orders]
        reports = [analyze(chart, item.form, keys["time_axis"]) for item in hier.orders]
        print("model: camassa_holm integral_drift=%.3e" % drift_u)
        results["integral_drift"] = drift_u
    else:
        fd, keys, report = _solve(cfg, scale, "conserve")
        print(report.summary())
        reports = [analyze(fd.chart, report.theta1, keys["time_axis"])]
        orders = [0]

    worst_rel = 0.0
    per_order = {}
    for order, rep in zip(orders, reports):
        print("order %d %s rel_drift=%.3e" % (order, rep.summary(), rep.max_relative_drift()))
        worst_rel = max(worst_rel, rep.max_relative_drift())
        per_order[str(order)] = {
            "flux_residual": rep.max_flux_residual(),
            "drift": rep.max_drift(),
            "relative_drift": rep.max_relative_drift(),
        }
    _write(out_dir, "conservation.csv", write_csv, reports, orders)
    if cfg.svg:
        _write(out_dir, "q.svg", write_q_svg, reports, orders)

    results["orders"] = per_order
    ok = cfg.drift_tol is None or worst_rel <= cfg.drift_tol
    results["pass"] = ok
    return (0 if ok else 1), results


def _orders(h, errors):
    """(fit, pairs): the least-squares slope of log(error) against log(h),
    and the log ratio of each consecutive pair.  An order whose errors hold
    an exact zero is None: no order goes through one."""
    fit = None if 0.0 in errors else float(np.polyfit(np.log(h), np.log(errors), 1)[0])
    pairs = [
        None if 0.0 in (e0, e1) else float(np.log(e0 / e1) / np.log(h0 / h1))
        for h0, h1, e0, e1 in zip(h, h[1:], errors, errors[1:])
    ]
    return fit, pairs


def _order_text(order):
    return "null" if order is None else "%.3f" % order


def cmd_converge(cfg, out_dir, scale):
    rows = []  # one dict per scale, in converge.csv's column order
    for k in sorted(s * scale for s in cfg.scales):
        fd, _, report = _solve(cfg, k, "converge")
        rows.append(
            {
                "scale": k,
                "h_max": max(fd.chart.spacing),
                "res1": report.structure[0],
                "res2": report.structure[1],
                "compat": report.compat_residual,
                "closed": report.closed_residual,
                "orth": report.orth_residual,
            }
        )
        del fd, report  # gone before the next scale's model is built
        print(
            "scale %(scale)d: h=%(h_max).6g closed=%(closed).3e compat=%(compat).3e "
            "res1=%(res1).3e res2=%(res2).3e orth=%(orth).3e" % rows[-1]
        )

    closed = [row["closed"] for row in rows]
    closed_order, pair_orders = _orders([row["h_max"] for row in rows], closed)
    print(
        "orders: closed=%s pairs=%s floor=%.2f"
        % (_order_text(closed_order), ",".join(map(_order_text, pair_orders)), cfg.order_floor)
    )

    _write(out_dir, "converge.csv", _write_converge_csv, rows)

    ok = closed_order is not None and closed_order >= cfg.order_floor
    if closed_order is None:
        zeros = ", ".join(str(row["scale"]) for row in rows if row["closed"] == 0.0)
        print("error: closed residual is zero at scales %s: no order to fit" % zeros, file=sys.stderr)
    results = {"rows": rows, "closed_order": closed_order, "pair_orders": pair_orders, "pass": ok}
    return (0 if ok else 1), results


def _write_converge_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            scale, *values = row.values()
            fh.write("%d,%s\n" % (scale, ",".join("%.17g" % value for value in values)))


_COMMANDS = {
    "verify": cmd_verify,
    "solve-frame": cmd_solve_frame,
    "hierarchy": cmd_hierarchy,
    "conserve": cmd_conserve,
    "converge": cmd_converge,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pssframe",
        description="Frame rotations and conservation laws on constant-curvature charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument(
            "--grid-scale",
            type=int,
            default=1,
            help="refine every chart axis by this integer factor",
        )
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.grid_scale < 1:
            raise ConfigError("--grid-scale must be >= 1")
        run_labels(cfg, args.command)  # refuses the set keys this run does not read
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    out_dir = args.out or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        source = "--out" if args.out else "[output] directory"
        print(
            "config error: %s %s: %s" % (source, out_dir, exc.strerror or exc),
            file=sys.stderr,
        )
        return 2

    try:
        code, results = _COMMANDS[args.command](cfg, out_dir, args.grid_scale)
        _write_manifest(out_dir, args.command, args.config, args.grid_scale, cfg, results)
        return code
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (StructureGateError, OrthogonalityError) as exc:
        print("gate failure: %s" % exc, file=sys.stderr)
        return 1
    except PssframeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:  # after the model is built (see _allocatable)
        reason = str(exc) or "an array could not be allocated"
        print("error: out of memory: %s" % reason, file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
