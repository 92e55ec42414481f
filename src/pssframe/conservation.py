"""Conservation-law reports for closed 1-forms.

A closed form theta = f_time dx_time + sum_j f_j dx_j encodes one
conservation law per spatial axis: the flux identity

    d(f_time)/dx_j = d(f_j)/dt

(a sub-block of d(theta) = 0) makes Q_j(t) = integral of f_j along axis j
drift only by the boundary values of f_time.  `analyze` turns one form into
residuals, slice integrals, drifts, and boundary diagnostics; the caller
judges smallness against its own tolerance — the report is the diagnosis,
not a gate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .forms import interior_d, oneform

def _trapezoid_with_refinement(values, axis, spacing):
    """Composite trapezoid plus a coarse-grid Richardson partner.

    Returns the extrapolated value (4 T(h) - T(2h)) / 3 when the axis has an
    even number of intervals, the plain trapezoid otherwise.
    """
    fine = np.trapezoid(values, dx=spacing, axis=axis)
    count = values.shape[axis]
    if (count - 1) % 2 == 0 and count >= 3:
        idx = tuple(
            slice(None, None, 2) if k == axis else slice(None)
            for k in range(values.ndim)
        )
        coarse = np.trapezoid(values[idx], dx=2.0 * spacing, axis=axis)
        return (4.0 * fine - coarse) / 3.0
    return fine


@dataclass
class AxisConservation:
    """Conservation data of one spatial axis."""

    axis: int
    times: np.ndarray
    q_values: np.ndarray  # base transverse slice, one value per time sample
    q_scale: float  # max over time/slices of the trapezoid integral of |f_j|
    drift: float  # max |Q(t) - Q(t0)| over all transverse slices
    flux_residual: float
    boundary_values: tuple  # max |f_time| on the low / high face
    boundary_gap: float  # max |f_time(high) - f_time(low)|

    def relative_drift(self):
        """Drift normalized by the integrand magnitude.

        The L1 size of the coefficient dominates |Q| and stays a meaningful
        yardstick when cancellation drives the conserved value itself to
        zero (higher orders of an expansion family routinely do this).
        """
        return self.drift / max(self.q_scale, 1e-30)


@dataclass
class ConservationReport:
    time_axis: int
    axes: list  # AxisConservation per spatial axis
    cross_residuals: dict  # {(i, j): residual} spatial pairs, zero-based

    def max_flux_residual(self):
        return max((a.flux_residual for a in self.axes), default=0.0)

    def max_drift(self):
        return max((a.drift for a in self.axes), default=0.0)

    def max_relative_drift(self):
        return max((a.relative_drift() for a in self.axes), default=0.0)

    def summary(self):
        cross = max(self.cross_residuals.values(), default=0.0)
        return "conserve: flux=%.3e cross=%.3e drift=%.3e" % (
            self.max_flux_residual(),
            cross,
            self.max_drift(),
        )


def analyze(chart, theta, time_axis):
    """Conservation report of a (presumed closed) (n, *counts) 1-form on chart.

    time_axis is the zero-based chart axis playing the role of time; every
    other axis contributes one conserved quantity.  Q integrals use the
    composite trapezoid rule with one step of Richardson refinement;
    residuals are interior max-norms of central differences.
    """
    theta = oneform(chart, theta)
    n = chart.dim
    if not 0 <= time_axis < n:
        raise ValueError("time_axis out of range")
    f_time = theta[time_axis]
    times = chart.axis_coordinates(time_axis)

    axes = []
    for j in range(n):
        if j == time_axis:
            continue
        f_j = theta[j]
        # d(f_time)/dx_j - d(f_j)/dt, the dx_j ^ dt coefficient of d(theta)
        flux = interior_d(theta, j, time_axis, chart.spacing)
        flux_residual = float(np.max(np.abs(flux)))

        q = _trapezoid_with_refinement(f_j, j, chart.spacing[j])
        # q now has the shape of the chart with axis j removed; move time first
        t_pos = time_axis if time_axis < j else time_axis - 1
        q = np.moveaxis(q, t_pos, 0)
        drift = float(np.max(np.abs(q - q[:1])))
        q_scale = float(np.max(np.trapezoid(np.abs(f_j), axis=j, dx=chart.spacing[j])))

        base = chart.base_index("center")
        slice_idx = []
        for k in range(n):
            if k in (j, time_axis):
                continue
            slice_idx.append(base[k])
        q_base = q[(slice(None),) + tuple(slice_idx)]

        lo = tuple(slice(0, 1) if k == j else slice(None) for k in range(n))
        hi = tuple(slice(-1, None) if k == j else slice(None) for k in range(n))
        f_lo = f_time[lo]
        f_hi = f_time[hi]
        axes.append(
            AxisConservation(
                axis=j,
                times=times,
                q_values=np.asarray(q_base, dtype=float),
                q_scale=q_scale,
                drift=drift,
                flux_residual=flux_residual,
                boundary_values=(
                    float(np.max(np.abs(f_lo))),
                    float(np.max(np.abs(f_hi))),
                ),
                boundary_gap=float(np.max(np.abs(f_hi - f_lo))),
            )
        )

    cross = {}
    for i in range(n):
        for j in range(i + 1, n):
            if time_axis in (i, j):
                continue
            res = interior_d(theta, i, j, chart.spacing)
            cross[(i, j)] = float(np.max(np.abs(res)))

    return ConservationReport(time_axis=time_axis, axes=axes, cross_residuals=cross)


def write_csv(path, reports, orders=None):
    """Write reports as CSV rows `order,axis,t,Q,drift,flux_residual`.

    Axis indices are written one-based to match the chart axis labels.
    Values use repr-faithful decimal formatting so identical runs produce
    byte-identical files.
    """
    if orders is None:
        orders = list(range(len(reports)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["order", "axis", "t", "Q", "drift", "flux_residual"])
        for order, report in zip(orders, reports):
            for axis_data in report.axes:
                for t, q in zip(axis_data.times, axis_data.q_values):
                    writer.writerow(
                        [
                            order,
                            axis_data.axis + 1,
                            "%.17g" % t,
                            "%.17g" % q,
                            "%.17g" % axis_data.drift,
                            "%.17g" % axis_data.flux_residual,
                        ]
                    )


def write_q_svg(path, reports, orders=None, width=640, height=360):
    """Minimal static SVG of the Q(t) curves (one polyline per order/axis)."""
    if orders is None:
        orders = list(range(len(reports)))
    curves = []
    for order, report in zip(orders, reports):
        for axis_data in report.axes:
            curves.append((order, axis_data.axis + 1, axis_data.times, axis_data.q_values))
    if not curves:
        raise ValueError("nothing to plot")

    t_min = min(float(c[2][0]) for c in curves)
    t_max = max(float(c[2][-1]) for c in curves)
    q_min = min(float(np.min(c[3])) for c in curves)
    q_max = max(float(np.max(c[3])) for c in curves)
    if q_max == q_min:
        q_max = q_min + 1.0
    if t_max == t_min:
        t_max = t_min + 1.0
    pad = 40.0

    def sx(t):
        return pad + (t - t_min) / (t_max - t_min) * (width - 2 * pad)

    def sy(q):
        return height - pad - (q - q_min) / (q_max - q_min) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, (order, axis_label, times, values) in enumerate(curves):
        color = palette[idx % len(palette)]
        points = " ".join(
            "%.2f,%.2f" % (sx(float(t)), sy(float(q))) for t, q in zip(times, values)
        )
        lines.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
            % (color, points)
        )
        lines.append(
            '<text x="%d" y="%d" font-size="12" fill="%s">order %d, axis %d</text>'
            % (int(pad), int(pad) + 14 * idx, color, order, axis_label)
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
