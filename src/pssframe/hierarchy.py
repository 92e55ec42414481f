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

`EtaSeries` is a minimal truncated-series arithmetic (a + b, -a, a * b)
with one coefficient per power, stored to the series' degree: a
polynomial table expanded to order K holds its degree's powers, not
K + 1, a constant power is a float and equal planes are one array.
`solve_hierarchy` runs the order-by-order integration with the same
staircase sweeps and exchanged-order certificate as the plain solver, and
holds each full-grid array once: every order is swept straight into its
row of the phi stack (each `OrderResult.phi` is a view of it), every
closed form is written over its order's rows of the sin/cos stack once
the last order is solved (each `OrderResult.form` is a view of it), and
every exchanged-order sweep streams its last block into the certificate
(`grid._streamed_compat`), so it is never whole.  Order zero runs the core of
`solve_phi_2d` (`angle_sweeps`: gate, angle sweep, streamed certificate)
and keeps only the angle and its certificate; its coframe is dropped once
the sweeps are done.  Order zero is stepped line by line (`sweep_scalar`);
every later order is linear, y' = alpha y + beta, so its RK4 steps are
affine maps y -> A y + B built with the same tableau (`sweep_linear`,
`affine_fill`).  The slopes alpha are order zero's, so the slope blocks,
their midpoints and the gains A of both axis orders are built once
(`linear_fills`) and shared by every order, and the slopes are dropped
once they and the periodic line start are built; each order forms only its
source blocks, their midpoints, the shifts B and the line recurrence.
Order zero's sweeps leave out an omega_1 or omega_2 row that vanishes
identically along an axis (`angle_system`; at order zero the Camassa-Holm
omega_2 has no dx term, so the x sweeps take sin(phi) alone).
Periodic starting values come from the first-axis line through the base:
order zero's from the monodromy of the line's angle equation lifted to a
linear so(2,1) system (`_periodic_angle_start`), every later order's from
the composition of the line's affine step maps, whose gain is formed once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import PssframeError
from .forms import closedness_residual
from .frames import FrameData
from .grid import GridChart, _streamed_compat, midpoints
from .rotation_solver import (
    GATE_FACTOR_DEFAULT,
    _structure_gate,
    additive_kernels,
    affine_gains,
    affine_line,
    affine_shifts,
    angle_sweeps,
    linear_fills,
    rkmk4_step,
    sweep_linear,
)


class EtaSeries:
    """Power series in the parameter, truncated at a fixed order.

    `coeffs` holds one coefficient per power, from power 0 to the series'
    degree: an ndarray of the series' `shape` (possibly ()), or a float
    for a power that is constant over the grid (0.0 for a zero power).  It
    is either one ndarray with the power first, as every arithmetic result
    is, or a tuple of such coefficients, as a table stores them; a tuple
    holds its arrays as given, so equal planes can be one shared array.  A
    float times a plane gives the doubles of the plane of that float, so
    the compact storage moves no result.  The powers above the degree, up
    to the truncation `order`, are zero and not stored, so a polynomial
    table costs its degree, not the order it is expanded to.  The
    arithmetic is a + b, -a and the truncated a * b of series of one
    order, broadcast pointwise; any other operand is a TypeError.
    """

    __slots__ = ("coeffs", "order", "shape")

    def __init__(self, coeffs, order=None, shape=None):
        if isinstance(coeffs, (tuple, list)):
            coeffs = tuple(
                np.asarray(c, dtype=float) if np.ndim(c) else float(c) for c in coeffs
            )
            planes = [c.shape for c in coeffs if isinstance(c, np.ndarray)]
            shape = tuple(np.broadcast_shapes(*planes) if shape is None else shape)
            if not coeffs or any(plane != shape for plane in planes):
                raise ValueError("series needs one coefficient of shape %s per power" % (shape,))
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.ndim < 1:
                raise ValueError("series needs a leading power axis")
            shape = coeffs.shape[1:]
        self.coeffs = coeffs
        self.shape = shape
        self.order = self.degree if order is None else int(order)
        if self.order < self.degree:
            raise ValueError("series stores powers above its truncation order")

    @classmethod
    def from_terms(cls, terms, order, shape=()):
        """Build a series from a {power: coefficient} mapping, stored to its degree.

        A coefficient is a float or an array of `shape`, held as given; the
        powers missing below the degree are 0.0.
        """
        for power in terms:
            if not 0 <= power <= order:
                raise ValueError("power %d outside truncation order %d" % (power, order))
        coeffs = [0.0] * (max(terms, default=0) + 1)
        for power, value in terms.items():
            coeffs[power] = value
        return cls(coeffs, order, shape)

    @property
    def degree(self):
        """The highest stored power."""
        return len(self.coeffs) - 1

    def coefficient(self, j):
        """The power-j coefficient over the series' shape.

        A float coefficient, and a power above the degree, come back as a
        read-only broadcast view of the value.
        """
        if j > self.order:
            raise IndexError("power %d outside truncation order %d" % (j, self.order))
        c = self.coeffs[j] if j <= self.degree else 0.0
        return c if np.ndim(c) == len(self.shape) else np.broadcast_to(c, self.shape)

    def dense(self):
        """The coefficients of every power up to the order, zeros filled in."""
        if isinstance(self.coeffs, np.ndarray) and self.degree == self.order:
            return self.coeffs
        out = np.zeros((self.order + 1,) + self.shape)
        for power, c in enumerate(self.coeffs):
            out[power] = c
        return out

    def _match(self, other):
        if not isinstance(other, EtaSeries):
            raise TypeError("series arithmetic needs a series, not %s" % type(other).__name__)
        if other.order != self.order:
            raise ValueError("series truncation orders differ")
        return other

    def __add__(self, other):
        other = self._match(other)
        return EtaSeries(self.dense() + other.dense())

    def __neg__(self):
        return EtaSeries(-self.dense())

    def __mul__(self, other):
        other = self._match(other)
        k = self.order
        shape = np.broadcast_shapes(self.shape, other.shape)
        out = np.zeros((min(k, self.degree + other.degree) + 1,) + shape)
        for i in range(self.degree + 1):
            for j in range(min(other.degree, k - i) + 1):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return EtaSeries(out, k)

    __rmul__ = __mul__

    def sin_cos(self):
        """Return (sin(series), cos(series)) as truncated series."""
        phi = self.dense()
        s = np.empty_like(phi)
        c = np.empty_like(phi)
        s[0] = np.sin(phi[0])
        c[0] = np.cos(phi[0])
        for j in range(1, self.order + 1):
            _sin_cos_fill(phi, s, c, j, j)
        return EtaSeries(s), EtaSeries(c)

    def evaluate(self, eta):
        """Evaluate the truncated polynomial at a parameter value."""
        out = np.zeros(self.shape)
        for j in range(self.degree, -1, -1):
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
    return coeffs, [p for p in range(len(coeffs)) if np.any(coeffs[p])]


def _table_product(j, terms, out):
    """Add the power-j coefficient of sum(series * entry) over terms to out.

    terms holds (series, entry) pairs: series a coefficient array with the
    power first, entry a `_sparse` table series, whose identically zero
    powers are skipped (the Camassa-Holm table has degree two, f21 = eta);
    a float coefficient multiplies the whole series plane.
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
    shape = np.broadcast_shapes(*(x.shape for x in series_list))
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
# periodic starting values from the monodromy of the start line

def _mul(a, b):
    # a @ b of 3 x 3 matrices or stacks of them, without BLAS: the first
    # float64 matmul pages in about 320 kB, and a CH run makes no other
    return (a[..., :, :, None] * b[..., None, :, :]).sum(-2)


def _lifted_field(s, u):
    """G u, G = [[0, -s2, -s0], [s2, 0, s1], [-s0, s1, 0]], for a stack of samples s."""
    s0, s1, s2 = (c[:, None] for c in s)
    u0, u1, u2 = u[..., 0, :], u[..., 1, :], u[..., 2, :]
    return np.stack([-s2 * u1 - s0 * u2, s2 * u0 + s1 * u2, -s0 * u0 + s1 * u1], -2)


# a monodromy that overflows is refused, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _periodic_angle_start(h, node_fields):
    """Starting angle whose line integration closes up after one period.

    node_fields are the (s0, s1, s2) samples of `angle_rhs` along the line.
    The angle equation phi' = s2 + s0 sin(phi) + s1 cos(phi) is the Riccati
    form of the linear so(2,1) system u' = G u on u = l (cos phi, sin phi, 1)
    (Sasaki 1979), with l'/l = -theta_1 along the line.  The RK4 step
    matrices of every interval are one vectorized `rkmk4_step` from I, and
    their product in line order is the monodromy M, whose null
    eigenvectors are the periodic starts (Magnus & Winkler, ch. 1-2).  A
    hyperbolic M (tr M > 3) has two, with eigenvalues l and 1/l; the start
    is the one with l = exp(-oint theta_1) > 1, the dominant eigenvector,
    which repeated squaring of M finds without LAPACK (`np.linalg.eig` added
    0.9 MB to the peak memory of the order-8 CH benchmark run).  An elliptic
    M (tr M < 3) has none on the circle, and a parabolic one (tr M = 3) one
    that round-off cannot place.  So tr M - 3 must exceed 3 max|M| times
    the sum over the steps S of their defect from SO(2,1), max|S^T J S - J|
    with J = diag(1, 1, -1), and of one rounding per product.
    """
    lo, hi = [f[:-1] for f in node_fields], [f[1:] for f in node_fields]
    mid = [midpoints(f, 0) for f in node_fields]
    steps = rkmk4_step(h, np.eye(3), lo, mid, hi, additive_kernels(_lifted_field))
    M = np.eye(3)
    for step in steps:
        M = _mul(step, M)
    if not np.isfinite(M).all():
        raise PssframeError("no periodic starting angle: the start line's monodromy overflows")
    J = np.array([1.0, 1.0, -1.0])
    defect = np.abs(_mul(np.swapaxes(steps, -1, -2) * J, steps) - np.diag(J)).max((-2, -1))
    tol = 3.0 * np.abs(M).max() * (defect.sum() + len(steps) * np.finfo(float).eps)
    if not np.trace(M) - 3.0 > tol:
        raise PssframeError(
            "no periodic starting angle: the return map has no fixed point on the circle"
        )
    # M^(2^64), rescaled, is a multiple of the projector v w^T / w^T v onto
    # the expanding v = (cos, sin, 1) along w = (cos, sin, -1) of the other
    # fixed point: its last column is the largest, a multiple of v
    for _ in range(64):
        M = _mul(M, M)
        M /= np.abs(M).max()
    u = np.copysign(1.0, M[2, 2]) * M[:, 2]  # u[2] > 0 picks (cos, sin) over its negative
    return math.atan2(u[1], u[0])


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
    closed form (2, *counts), views of the stacks of every order's."""

    order: int
    phi: np.ndarray
    form: np.ndarray
    closed_residual: float
    compat_residual: float
    start_value: float


@dataclass
class HierarchyResult:
    """The orders of a solved expansion; phi_series holds every phi_j, and
    each `OrderResult.phi` is a view of it."""

    orders: list
    phi_series: EtaSeries
    base_index: tuple

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
    axis (the chart should span exactly one period), computed from the
    monodromy and return maps of the first-axis line through the base.
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
        return EtaSeries(series.coeffs[: order + 1], order, series.shape)

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
            # no monodromy to form: a non-finite coefficient fails the gate
            _structure_gate(fd0, gate_factor)
            raise PssframeError("the periodic start line holds a non-finite coefficient")
        phi0_start = _periodic_angle_start(chart.spacing[0], line_fields)
    else:
        phi0_start = float(start_values.get(0, 0.0))

    # every order is swept straight into its row of the stack
    phi = np.zeros((order + 1,) + counts)
    # each order's start value and compat residual; its OrderResult is
    # built once its form is, from the full s and c below
    starts = [phi0_start]
    compats = [angle_sweeps(fd0, phi0_start, base_idx, gate_factor, out=phi[0])[1]]
    del fd0

    # running sin / cos of the angle series, filled one order at a time
    # into one stack: sc[j] holds (s_j, c_j), the rows that order j's
    # closed form takes once the last order is solved
    sc = np.empty((order + 1, 2) + counts)
    s, c = sc[:, 0], sc[:, 1]
    s[0] = np.sin(phi[0])
    c[0] = np.cos(phi[0])
    slopes = (f11_0 * c[0] - f21_0 * s[0], f12_0 * c[0] - f22_0 * s[0])
    (f11, f12), (f21, f22) = [[_sparse(e) for e in row] for row in table[:2]]
    # the slopes are order zero's: every order shares the slope blocks,
    # their midpoints and the step gains of both axis orders; the
    # exchanged-order sweep streams its last block into the certificate
    fills = linear_fills(chart, base_idx, (0, 1), slopes)
    fills_ex = linear_fills(chart, base_idx, (1, 0), slopes)
    line_start = None
    if periodic_axis == 0:
        line_start = _periodic_linear_start(chart.spacing[0], slopes[0][:, t_line].copy())
    del slopes

    for j in range(1, order + 1):
        # source term: order j of the expansion without the phi_j terms, so
        # what is left of the j-th power is the linear alpha * phi_j part
        _sin_cos_fill(phi, s, c, j, j - 1)
        sources = (
            _table_product(j, ((s, f11), (c, f21)), table[2][0].coefficient(j).copy()),
            _table_product(j, ((s, f12), (c, f22)), table[2][1].coefficient(j).copy()),
        )

        if line_start:
            start = line_start(sources[0][:, t_line])
        else:
            start = float(start_values.get(j, 0.0))

        sol = sweep_linear(chart, base_idx, fills, start, sources, out=phi[j])
        compat = _streamed_compat(
            sol, lambda cert: sweep_linear(chart, base_idx, fills_ex, start, sources, cert)
        )
        del sources
        s[j] += sol * c[0]
        c[j] -= sol * s[0]
        starts.append(start)
        compats.append(compat)

    del fills, fills_ex, line_start
    np.negative(s, out=s)  # the forms take -s; negation is exact
    # order j's form reads s and c up to order j only, so from the highest
    # order down each form is formed aside and then takes the rows sc[j]
    form = np.empty((2,) + counts)
    results = []
    for j in range(order, -1, -1):
        form.fill(0.0)
        _table_product(j, ((c, f11), (s, f21)), form[0])
        _table_product(j, ((c, f12), (s, f22)), form[1])
        sc[j] = form
        results.append(
            OrderResult(j, phi[j], sc[j], closedness_residual(chart, sc[j]), compats[j], starts[j])
        )

    return HierarchyResult(orders=results[::-1], phi_series=EtaSeries(phi), base_index=base_idx)
