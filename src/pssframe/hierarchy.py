"""Parameter expansions of the angle equation on 2D charts.

Coframe tables that depend polynomially on a spectral parameter give rise to
a whole family of closed forms at once: write the rotation angle as a
truncated power series in the parameter, match powers in the angle equation,
and each order contributes one conserved-current 1-form.  Order zero is the
nonlinear angle solve; every later order is a *linear* transport equation
whose coefficients only involve lower orders.

`EtaSeries` is a minimal truncated-series arithmetic over ndarray
coefficients (enough ring operations for the compositions needed here), and
`solve_hierarchy` runs the order-by-order integration with the same
staircase sweeps and exchanged-order compatibility certificate used by the
plain solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PssframeError
from .forms import ConnectionField, OneFormField, closedness_residual
from .frames import FrameData
from .grid import GridChart, ScalarField, midpoints
from .rotation_solver import (
    GATE_FACTOR_DEFAULT,
    SolveReport,
    additive_kernels,
    rkmk4_step,
    solve_phi_2d,
    sweep_scalar,
)


class EtaSeries:
    """Power series in the parameter, truncated at a fixed order.

    Coefficients live in `coeffs`, an ndarray whose leading axis indexes the
    power; the remaining axes (possibly none) are broadcast pointwise, so the
    same arithmetic serves scalars and whole grids of series.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim < 1:
            raise ValueError("series needs a leading power axis")

    @classmethod
    def from_terms(cls, terms, order, shape=()):
        """Build a series from a {power: coefficient} mapping."""
        coeffs = np.zeros((order + 1,) + tuple(shape))
        for power, value in terms.items():
            if not 0 <= power <= order:
                raise ValueError("power %d outside truncation order %d" % (power, order))
            coeffs[power] = value
        return cls(coeffs)

    @classmethod
    def constant(cls, value, order):
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((order + 1,) + value.shape)
        coeffs[0] = value
        return cls(coeffs)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    def coefficient(self, j):
        return self.coeffs[j]

    def _match(self, other):
        if not isinstance(other, EtaSeries):
            other = EtaSeries.constant(other, self.order)
        if other.order != self.order:
            raise ValueError("series truncation orders differ")
        return other

    def __add__(self, other):
        other = self._match(other)
        return EtaSeries(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        return EtaSeries(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._match(other)
        return EtaSeries(other.coeffs - self.coeffs)

    def __neg__(self):
        return EtaSeries(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return EtaSeries(self.coeffs * other)
        other = self._match(other)
        k = self.order
        shape = np.broadcast_shapes(self.coeffs.shape[1:], other.coeffs.shape[1:])
        out = np.zeros((k + 1,) + shape)
        for i in range(k + 1):
            for j in range(k + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return EtaSeries(out)

    __rmul__ = __mul__

    def shifted(self, power):
        """Multiply by the parameter raised to `power` (truncated)."""
        out = np.zeros_like(self.coeffs)
        if power <= self.order:
            out[power:] = self.coeffs[: self.order + 1 - power]
        return EtaSeries(out)

    def sin_cos(self):
        """Return (sin(series), cos(series)) as truncated series.

        The constant term is split off so the remainder has positive
        valuation and its sine/cosine are finite Taylor sums.
        """
        k = self.order
        head = self.coeffs[0]
        tail = self.coeffs.copy()
        tail[0] = 0.0
        psi = EtaSeries(tail)

        sin_psi = EtaSeries(np.zeros_like(self.coeffs))
        cos_psi = EtaSeries.from_terms({0: np.ones_like(head)}, k, head.shape)
        power = EtaSeries.from_terms({0: np.ones_like(head)}, k, head.shape)
        for m in range(1, k + 1):
            power = power * psi
            coeff = 1.0 / math.factorial(m)
            if m % 2 == 1:
                sign = -1.0 if (m // 2) % 2 else 1.0
                sin_psi = sin_psi + power * (sign * coeff)
            else:
                sign = -1.0 if (m // 2) % 2 else 1.0
                cos_psi = cos_psi + power * (sign * coeff)

        s0 = np.sin(head)
        c0 = np.cos(head)
        sin_full = EtaSeries(s0 * cos_psi.coeffs + c0 * sin_psi.coeffs)
        cos_full = EtaSeries(c0 * cos_psi.coeffs - s0 * sin_psi.coeffs)
        return sin_full, cos_full

    def evaluate(self, eta):
        """Evaluate the truncated polynomial at a parameter value."""
        out = np.zeros_like(self.coeffs[0])
        for j in range(self.order, -1, -1):
            out = out * eta + self.coeffs[j]
        return out


def expand_phi_system(table, phi):
    """Expand both sides of the angle equation in powers of the parameter.

    table is a 3 x 2 nest of EtaSeries: rows are the two dual forms and the
    connection form, columns their dx and dt coefficients.  Returns the
    series for (phi_x, phi_t) given the angle series phi.
    """
    s, c = phi.sin_cos()
    rhs_x = table[2][0] + s * table[0][0] + c * table[1][0]
    rhs_t = table[2][1] + s * table[0][1] + c * table[1][1]
    return rhs_x, rhs_t


def closed_form_series(table, phi):
    """Series for the two coefficients of the rotated closed form."""
    s, c = phi.sin_cos()
    fx = c * table[0][0] - s * table[1][0]
    ft = c * table[0][1] - s * table[1][1]
    return fx, ft


def _order_zero_frame(chart, table):
    def one_form(row):
        return OneFormField.from_arrays(
            chart, [row[0].coefficient(0), row[1].coefficient(0)]
        )

    omega = (one_form(table[0]), one_form(table[1]))
    connection = ConnectionField(chart, {(0, 1): one_form(table[2])})
    return FrameData(chart, omega, connection)


# ---------------------------------------------------------------------------
# periodic starting values via the circle return map

def _integrate_line(y0, h, node_fields, mid_fields, rhs):
    kernels = additive_kernels(rhs)
    y = y0
    count = node_fields[0].shape[0]
    for i in range(count - 1):
        lo = [f[i] for f in node_fields]
        md = [f[i] for f in mid_fields]
        hi = [f[i + 1] for f in node_fields]
        y = rkmk4_step(h, y, lo, md, hi, kernels)
    return y


def _periodic_angle_start(h, node_fields, rhs, samples=96, tol=1e-13):
    """Starting angle whose line integration closes up after one period.

    The displacement map y -> R(y) - y is continuous and 2*pi periodic, so a
    coarse scan followed by bisection on each bracketed multiple of 2*pi
    finds a fixed point of the return map on the circle when one exists.
    """
    mids = [midpoints(f, 0) for f in node_fields]
    grid = np.linspace(-np.pi, np.pi, samples + 1)
    disp = _integrate_line(grid, h, node_fields, mids, rhs) - grid

    for a, b, da, db in zip(grid[:-1], grid[1:], disp[:-1], disp[1:]):
        lo_k = int(np.ceil(min(da, db) / (2.0 * np.pi)))
        hi_k = int(np.floor(max(da, db) / (2.0 * np.pi)))
        for k in range(lo_k, hi_k + 1):
            target = 2.0 * np.pi * k
            fa = da - target
            fb = db - target
            if fa == 0.0:
                return float(a)
            if fb == 0.0:
                return float(b)
            if fa * fb > 0:
                continue
            left, right = float(a), float(b)
            f_left = fa
            while right - left > tol:
                mid = 0.5 * (left + right)
                f_mid = (
                    _integrate_line(mid, h, node_fields, mids, rhs) - mid - target
                )
                if f_left * f_mid <= 0:
                    right = mid
                else:
                    left, f_left = mid, f_mid
            return 0.5 * (left + right)
    raise PssframeError(
        "no periodic starting angle: the return map has no fixed point on the circle"
    )


def _periodic_linear_start(h, node_fields, rhs):
    """Fixed point of the affine return map of a linear transport line."""
    mids = [midpoints(f, 0) for f in node_fields]
    shift = _integrate_line(0.0, h, node_fields, mids, rhs)
    gain = _integrate_line(1.0, h, node_fields, mids, rhs) - shift
    denom = 1.0 - gain
    if abs(denom) < 1e-12 * (1.0 + abs(shift)):
        raise PssframeError("periodic linear order is resonant (unit return gain)")
    return float(shift / denom)


# ---------------------------------------------------------------------------
# the order-by-order solve

@dataclass
class OrderResult:
    """One order of the expansion: angle coefficient and its closed form."""

    order: int
    phi: ScalarField
    form: OneFormField
    closed_residual: float
    compat_residual: float
    start_value: float


@dataclass
class HierarchyResult:
    orders: list
    phi_series: EtaSeries
    base_index: tuple
    base_report: SolveReport

    def summary_lines(self):
        lines = []
        for item in self.orders:
            lines.append(
                "order %d: compat=%.3e closed=%.3e start=%.6g"
                % (item.order, item.compat_residual, item.closed_residual, item.start_value)
            )
        return lines


def solve_hierarchy(
    chart: GridChart,
    table,
    order,
    base="center",
    start_values=None,
    periodic_axis=None,
    *,
    gate_factor=GATE_FACTOR_DEFAULT,
):
    """Solve the angle expansion up to `order` and emit the closed forms.

    table entries must be EtaSeries truncated at `order` (or deeper; they
    are cut down).  start_values optionally pins the base value of each
    order's coefficient (default zero).  With periodic_axis=0 the starting
    values are instead chosen so each coefficient closes up over the first
    axis (the chart should span exactly one period), computed from return
    maps along the first-axis line through the base.
    """
    if chart.dim != 2:
        raise ValueError("the expansion solver works on 2D charts")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if periodic_axis not in (None, 0):
        raise ValueError("only periodicity along the first axis is supported")

    def cut(series):
        if series.order < order:
            raise ValueError("table series truncated below the requested order")
        return EtaSeries(series.coeffs[: order + 1])

    table = [[cut(entry) for entry in row] for row in table]
    counts = chart.counts

    if start_values is None:
        start_values = {}
    else:
        start_values = dict(start_values)

    base_idx = list(chart.base_index(base))
    if periodic_axis == 0:
        base_idx[0] = 0
    base_idx = tuple(base_idx)
    t_line = base_idx[1]

    # order zero: nonlinear angle solve on the constant-term coframe
    fd0 = _order_zero_frame(chart, table)
    f11_0 = table[0][0].coefficient(0)
    f12_0 = table[0][1].coefficient(0)
    f21_0 = table[1][0].coefficient(0)
    f22_0 = table[1][1].coefficient(0)

    if periodic_axis == 0:
        line_fields = [
            f11_0[:, t_line],
            f21_0[:, t_line],
            table[2][0].coefficient(0)[:, t_line],
        ]

        def line_rhs(s, y):
            return s[2] + np.sin(y) * s[0] + np.cos(y) * s[1]

        phi0_start = _periodic_angle_start(chart.spacing[0], line_fields, line_rhs)
    else:
        phi0_start = float(start_values.get(0, 0.0))

    report0 = solve_phi_2d(fd0, phi0_start, base_idx, gate_factor=gate_factor)
    phi_coeffs = np.zeros((order + 1,) + counts)
    phi_coeffs[0] = report0.rotation.angle.values

    fx0 = report0.theta1.coeffs[0].values
    ft0 = report0.theta1.coeffs[1].values
    results = [
        OrderResult(
            order=0,
            phi=ScalarField(chart, phi_coeffs[0].copy()),
            form=OneFormField.from_arrays(chart, [fx0, ft0]),
            closed_residual=report0.closed_residual,
            compat_residual=report0.compat_residual,
            start_value=phi0_start,
        )
    ]

    cos0 = np.cos(phi_coeffs[0])
    sin0 = np.sin(phi_coeffs[0])
    alpha_x = f11_0 * cos0 - f21_0 * sin0
    alpha_t = f12_0 * cos0 - f22_0 * sin0

    for j in range(1, order + 1):
        # source term: expand with this order's coefficient zeroed, so the
        # j-th power picks up everything except the linear alpha * phi_j part
        partial = EtaSeries(phi_coeffs.copy())
        partial.coeffs[j:] = 0.0
        rhs_x, rhs_t = expand_phi_system(table, partial)
        beta_x = rhs_x.coefficient(j)
        beta_t = rhs_t.coefficient(j)

        if periodic_axis == 0:
            lines = [alpha_x[:, t_line], beta_x[:, t_line]]

            def affine_rhs(s, y):
                return s[0] * y + s[1]

            start = _periodic_linear_start(chart.spacing[0], lines, affine_rhs)
        else:
            start = float(start_values.get(j, 0.0))

        fields = [alpha_x, beta_x, alpha_t, beta_t]

        def linear_rhs(axis, s, y):
            if axis == 0:
                return s[0] * y + s[1]
            return s[2] * y + s[3]

        sol = sweep_scalar(chart, base_idx, (0, 1), start, fields, linear_rhs)
        sol_ex = sweep_scalar(chart, base_idx, (1, 0), start, fields, linear_rhs)
        compat = float(np.max(np.abs(sol - sol_ex)))
        phi_coeffs[j] = sol

        results.append(
            OrderResult(
                order=j,
                phi=ScalarField(chart, sol.copy()),
                form=None,  # filled below once the full series is known
                closed_residual=0.0,
                compat_residual=compat,
                start_value=start,
            )
        )

    phi_series = EtaSeries(phi_coeffs)
    fx, ft = closed_form_series(table, phi_series)
    for j, item in enumerate(results):
        form = OneFormField.from_arrays(chart, [fx.coefficient(j), ft.coefficient(j)])
        item.form = form
        item.closed_residual = closedness_residual(form)

    return HierarchyResult(
        orders=results,
        phi_series=phi_series,
        base_index=base_idx,
        base_report=report0,
    )
