"""Parameter expansions of the angle equation on 2D charts.

Coframe tables that depend polynomially on a spectral parameter give rise to
a whole family of closed forms at once: write the rotation angle as a
truncated power series in the parameter, match powers in the angle equation,
and each order contributes one conserved-current 1-form.  Order zero is the
nonlinear angle solve; every later order is a *linear* transport equation
whose coefficients only involve lower orders.

The sine and cosine of the angle series are filled order by order with the
Taylor-mode recurrences (Griewank & Walther, *Evaluating Derivatives*,
ch. 13)

    s_j = (1/j) sum_{i=1..j} i phi_i c_{j-i},
    c_j = -(1/j) sum_{i=1..j} i phi_i s_{j-i},

O(K^2) products for K orders.  `solve_hierarchy` keeps the running s and c
across orders: the source term of order j needs only their orders below j
and the table powers that are not identically zero, and once phi_j is
solved its terms phi_j c_0 and -phi_j s_0 complete order j.  The closed
forms come from the same s and c.

`EtaSeries` is a minimal truncated-series arithmetic over ndarray
coefficients, and `solve_hierarchy` runs the order-by-order integration with
the same staircase sweeps and exchanged-order compatibility certificate used
by the plain solver.  Order zero is stepped line by line (`sweep_scalar`);
every later order is linear, y' = alpha y + beta, so its RK4 steps are
affine maps y -> A y + B built with the same tableau (`sweep_linear`,
`affine_fill`).  The slopes alpha are order zero's, so the slope blocks,
their midpoints and the gains A of both axis orders are built once
(`linear_fills`) and shared by every order; each order forms only its
source blocks, their midpoints, the shifts B and the line recurrence.
Periodic starting values come from return maps along the first-axis line
through the base: safeguarded Newton for the nonlinear order zero, with
the variational equation integrated alongside on Python floats, and for
every later order the composition of the line's affine step maps, whose
gain is again formed once.  Both run on the solver's one line engine
(`line_steps`, `integrate_line`, `affine_line`), which also steps every
sweep block that is a single line of nodes, on Python floats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import PssframeError
from .forms import closedness_residual
from .frames import FrameData
from .grid import GridChart, midpoints
from .rotation_solver import (
    GATE_FACTOR_DEFAULT,
    SolveReport,
    _structure_gate,
    additive_kernels,
    affine_gains,
    affine_line,
    affine_shifts,
    integrate_line,
    line_steps,
    linear_fills,
    solve_phi_2d,
    sweep_linear,
)
from .rotation_solver import angle_rhs as _angle_rhs


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
        """Return (sin(series), cos(series)) as truncated series."""
        s = np.empty_like(self.coeffs)
        c = np.empty_like(self.coeffs)
        s[0] = np.sin(self.coeffs[0])
        c[0] = np.cos(self.coeffs[0])
        for j in range(1, self.order + 1):
            _sin_cos_fill(self.coeffs, s, c, j, j)
        return EtaSeries(s), EtaSeries(c)

    def evaluate(self, eta):
        """Evaluate the truncated polynomial at a parameter value."""
        out = np.zeros_like(self.coeffs[0])
        for j in range(self.order, -1, -1):
            out = out * eta + self.coeffs[j]
        return out


def _sin_cos_fill(phi, s, c, j, top):
    """Fill order j of s = sin(phi), c = cos(phi) from the orders below j.

    phi, s and c are coefficient arrays with the power first.  The Taylor
    recurrences sum i = 1..top; top = j - 1 leaves out the phi_j terms,
    phi_j c_0 in s_j and -phi_j s_0 in c_j, for a caller that does not know
    phi_j yet.
    """
    s[j] = 0.0
    c[j] = 0.0
    for i in range(1, top + 1):
        w = i * phi[i]
        s[j] += w * c[j - i]
        c[j] -= w * s[j - i]
    s[j] /= j
    c[j] /= j


def _sparse(entry):
    """A table series with the powers whose coefficient is not identically zero."""
    coeffs = entry.coeffs
    return coeffs, [p for p in range(coeffs.shape[0]) if np.any(coeffs[p])]


def _table_product(j, terms, out):
    """Add the power-j coefficient of sum(series * entry) over terms to out.

    terms holds (series, entry) pairs: series a coefficient array with the
    power first, entry a `_sparse` table series, whose identically zero
    powers are skipped (the Camassa-Holm table has degree two, f21 = eta).
    """
    for series, (coeffs, powers) in terms:
        for p in powers:
            if p > j:
                break
            out += coeffs[p] * series[j - p]
    return out


def _table_series(terms):
    """The series sum(series * entry) over the (series, entry) terms."""
    series_list = [x for pair in terms for x in pair]
    order = series_list[0].order
    if any(x.order != order for x in series_list):
        raise ValueError("series truncation orders differ")
    shape = np.broadcast_shapes(*(x.coeffs.shape[1:] for x in series_list))
    out = np.zeros((order + 1,) + shape)
    sparse = [(series.coeffs, _sparse(entry)) for series, entry in terms]
    for j in range(order + 1):
        _table_product(j, sparse, out[j])
    return EtaSeries(out)


def expand_phi_system(table, phi):
    """Expand both sides of the angle equation in powers of the parameter.

    table is a 3 x 2 nest of EtaSeries: rows are the two dual forms and the
    connection form, columns their dx and dt coefficients.  Returns the
    series for (phi_x, phi_t) given the angle series phi.
    """
    s, c = phi.sin_cos()
    return tuple(
        table[2][col] + _table_series([(s, table[0][col]), (c, table[1][col])])
        for col in (0, 1)
    )


def closed_form_series(table, phi):
    """Series for the two coefficients of the rotated closed form."""
    s, c = phi.sin_cos()
    return tuple(
        _table_series([(c, table[0][col]), (-s, table[1][col])]) for col in (0, 1)
    )


def _order_zero_frame(chart, table):
    # rows: two dual forms and the connection form; columns: dx and dt
    block = np.array([[entry.coefficient(0) for entry in row] for row in table])
    return FrameData(chart, block[:2], block[2:])


# ---------------------------------------------------------------------------
# periodic starting values via the circle return map

def _integrate_line(y0, h, node_fields, mid_fields, rhs):
    """RK4 along a line of nodes from y0, y' = rhs(samples, y): the end state."""
    states = integrate_line(h, y0, node_fields, mid_fields, additive_kernels(rhs))
    return deque(states, maxlen=1).pop()


def _angle_return(h, steps, y):
    """R(y) and R'(y) of the angle equation's line, on Python floats.

    steps are the `line_steps` samples (s0, s1, s2) of `_angle_rhs`.  The
    angle is stepped together with its variational equation
    v' = (cos(y) s0 - sin(y) s1) v from v = 1, in the operation order of
    `rkmk4_step` on the additive group: u = (h/2) k, y + u, and at the end
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4), one float per entry of the stacked
    state.
    """

    def rhs(s, y, v):
        sin_y, cos_y = math.sin(y), math.cos(y)
        return s[2] + sin_y * s[0] + cos_y * s[1], (cos_y * s[0] - sin_y * s[1]) * v

    half, sixth = 0.5 * h, h / 6.0
    v = 1.0
    for lo, md, hi in steps:
        k1, l1 = rhs(lo, y, v)
        k2, l2 = rhs(md, y + half * k1, v + half * l1)
        k3, l3 = rhs(md, y + half * k2, v + half * l2)
        k4, l4 = rhs(hi, y + h * k3, v + h * l3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = v + sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return y, v


def _periodic_angle_start(h, node_fields, samples=96, tol=1e-13):
    """Starting angle whose line integration closes up after one period.

    node_fields are the (s0, s1, s2) samples of `_angle_rhs` along the line.
    The displacement map y -> R(y) - y is continuous and 2*pi periodic, so a
    coarse scan brackets a fixed point of the return map on the circle when
    one exists.  Inside the first bracket, safeguarded Newton solves
    R(y) - y = 2*pi*k with R'(y) from the variational equation carried in
    the same line integration (`_angle_return`, on Python floats); a step
    that leaves the bracket or does not halve the previous one is replaced
    by bisection.
    """
    mids = [midpoints(f, 0) for f in node_fields]
    grid = np.linspace(-np.pi, np.pi, samples + 1)
    disp = _integrate_line(grid, h, node_fields, mids, _angle_rhs) - grid
    steps = line_steps(node_fields, mids)

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
            left, right, f_left = float(a), float(b), fa
            y = left - fa * (right - left) / (fb - fa)
            step_old = right - left
            # bisection alone gets from 2*pi/samples to tol in < 50 steps
            for _ in range(100):
                r, dr = _angle_return(h, steps, y)
                f = r - y - target
                if f == 0.0:
                    break
                if (f < 0.0) == (f_left < 0.0):
                    left, f_left = y, f
                else:
                    right = y
                df = dr - 1.0
                newton = f / df if df != 0.0 else np.inf
                if left < y - newton < right and abs(newton) <= 0.5 * abs(step_old):
                    step = newton
                else:
                    step = y - 0.5 * (left + right)
                y -= step
                step_old = step
                if abs(step) <= tol:
                    break
            return float(y)
    raise PssframeError(
        "no periodic starting angle: the return map has no fixed point on the circle"
    )


def _periodic_linear_start(h, slope):
    """Fixed points of the affine return maps of linear transport lines.

    The lines are y' = slope y + source over the samples of one line.  The
    return map is the composition of the RK4 step maps y -> A y + B: its
    gain, the product of the A (`affine_gains`), depends on the slope
    alone and is formed here once.  Returns start(source), which forms the
    B (`affine_shifts`) and the shift, the recurrence from 0
    (`affine_line`), and returns the fixed point shift / (1 - gain).
    """
    mid = midpoints(slope, 0)
    A = affine_gains(h, slope[:-1], mid, slope[1:])
    denom = 1.0 - math.prod(A.tolist())

    def start(source):
        B = affine_shifts(
            h, (slope[:-1], source[:-1]), (mid, midpoints(source, 0)), (slope[1:], source[1:])
        )
        shift = deque(affine_line(A, B, 0.0), maxlen=1).pop()
        if abs(denom) < 1e-12 * (1.0 + abs(shift)):
            raise PssframeError("periodic linear order is resonant (unit return gain)")
        return float(shift / denom)

    return start


# ---------------------------------------------------------------------------
# the order-by-order solve

@dataclass
class OrderResult:
    """One order of the expansion: angle coefficient phi (*counts) and its
    closed form (2, *counts)."""

    order: int
    phi: np.ndarray
    form: np.ndarray
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
        if not all(np.isfinite(f).all() for f in line_fields):
            # no return map to scan: a non-finite coefficient fails the gate
            _structure_gate(fd0, gate_factor)
            raise PssframeError("the periodic start line holds a non-finite coefficient")
        phi0_start = _periodic_angle_start(chart.spacing[0], line_fields)
    else:
        phi0_start = float(start_values.get(0, 0.0))

    report0 = solve_phi_2d(fd0, phi0_start, base_idx, gate_factor=gate_factor)
    phi = np.zeros((order + 1,) + counts)
    phi[0] = report0.angle
    results = [
        OrderResult(
            order=0,
            phi=phi[0].copy(),
            form=None,  # every form is built from the full s and c below
            closed_residual=0.0,
            compat_residual=report0.compat_residual,
            start_value=phi0_start,
        )
    ]

    # running sin / cos of the angle series, filled one order at a time
    s = np.empty_like(phi)
    c = np.empty_like(phi)
    s[0] = np.sin(phi[0])
    c[0] = np.cos(phi[0])
    slopes = (f11_0 * c[0] - f21_0 * s[0], f12_0 * c[0] - f22_0 * s[0])
    (f11, f12), (f21, f22) = [[_sparse(e) for e in row] for row in table[:2]]
    # the slopes are order zero's: every order shares the slope blocks,
    # their midpoints and the step gains of both axis orders
    fills = [linear_fills(chart, base_idx, axes, slopes) for axes in ((0, 1), (1, 0))]
    line_start = None
    if periodic_axis == 0:
        line_start = _periodic_linear_start(chart.spacing[0], slopes[0][:, t_line])

    for j in range(1, order + 1):
        # source term: order j of the expansion without the phi_j terms, so
        # what is left of the j-th power is the linear alpha * phi_j part
        _sin_cos_fill(phi, s, c, j, j - 1)
        beta_x = _table_product(j, ((s, f11), (c, f21)), table[2][0].coeffs[j].copy())
        beta_t = _table_product(j, ((s, f12), (c, f22)), table[2][1].coeffs[j].copy())

        if line_start:
            start = line_start(beta_x[:, t_line])
        else:
            start = float(start_values.get(j, 0.0))

        sol, sol_ex = (sweep_linear(chart, base_idx, f, start, (beta_x, beta_t)) for f in fills)
        phi[j] = sol
        s[j] += sol * c[0]
        c[j] -= sol * s[0]

        results.append(
            OrderResult(
                order=j,
                phi=sol,
                form=None,
                closed_residual=0.0,
                compat_residual=float(np.max(np.abs(sol - sol_ex))),
                start_value=start,
            )
        )

    del fills, slopes, line_start
    np.negative(s, out=s)  # the forms take -s; negation is exact
    for j, item in enumerate(results):
        form = np.zeros((2,) + counts)
        _table_product(j, ((c, f11), (s, f21)), form[0])
        _table_product(j, ((c, f12), (s, f22)), form[1])
        item.form = form
        item.closed_residual = closedness_residual(chart, form)

    return HierarchyResult(
        orders=results,
        phi_series=EtaSeries(phi),
        base_index=base_idx,
        base_report=report0,
    )
