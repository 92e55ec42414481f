"""Intrinsic generalized sine-Gordon system in n dimensions.

State is a pair {V, h} of dense arrays on an nD chart: a unit vector field
V (n, *counts) and an off-diagonal matrix h (n, n, *counts) of coefficient
fields, h[i, j] = h_ij (the diagonal is not read), subject to the
first-order system

    sum_i V_i^2 = 1
    dV_i/dx_j = V_j h_ji                       (i != j)
    dh_ij/dx_i + dh_ji/dx_j + sum_{s != i,j} h_si h_sj = V_i V_j   (i != j)
    dh_ij/dx_s = h_is h_sj                     (i, j, s distinct)

The attached coframe omega_i = V_i dx_i with connection
omega_ij = h_ij dx_j - h_ji dx_i has curvature -1 exactly on solutions.
The family V_1 = tanh(x_1), V_j = c_j sech(x_1) (sum c_j^2 = 1, x_1 > 0)
solves the system with h_1j = -c_j sech(x_1) and all other entries zero;
it is sampled analytically here, derivatives included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..frames import FrameData
from ..grid import GridChart, dense, lazy_zeros, partial_derivative


@dataclass
class IGSGEState:
    """Unit vector field V (n, *counts) plus coefficient fields h (n, n, *counts)."""

    chart: GridChart
    V: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        n, counts = self.chart.dim, self.chart.counts
        self.V = dense(self.V, (n,) + counts, "V")
        self.h = dense(self.h, (n, n) + counts, "h")

    @property
    def dim(self):
        return self.chart.dim

    def unit_residual(self):
        total = np.zeros(self.chart.counts)
        for v in self.V:
            total += v**2
        return float(np.max(np.abs(total - 1.0)))


def igsge_explicit_solution(chart: GridChart, c):
    """The tanh/sech solution family; requires x_1 > 0 on the chart.

    c has one entry per index 2..n and must be unit length.
    """
    n = chart.dim
    c = np.asarray(c, dtype=float)
    if c.shape != (n - 1,):
        raise ValueError("c needs n - 1 entries")
    if abs(float(np.sum(c * c)) - 1.0) > 1e-12:
        raise ValueError("c must have unit length")
    if chart.origin[0] <= 0.0:
        raise ValueError("the explicit solution needs x_1 > 0 on the chart")

    # the fields depend on x_1 alone: tanh and sech are taken on the x_1
    # axis and broadcast along the other axes
    x1 = chart.axis_coordinates(0).reshape((-1,) + (1,) * (n - 1))
    with np.errstate(over="ignore"):  # cosh overflows to Inf where sech is 0
        sech = 1.0 / np.cosh(x1)
    V = np.empty((n,) + chart.counts)
    V[0] = np.tanh(x1)
    # entries that stay zero are not written: only the written pages of a
    # large lazy_zeros array are resident
    h = lazy_zeros((n, n) + chart.counts)
    for j in range(1, n):
        np.multiply(c[j - 1], sech, out=V[j])
        np.multiply(-c[j - 1], sech, out=h[0, j])
    return IGSGEState(chart=chart, V=V, h=h)


@dataclass
class IGSGEResiduals:
    """Interior max-norm residual of each equation group."""

    unit: float
    gradient: float
    coupling: float
    mixed: float

    def max_residual(self):
        return max(self.unit, self.gradient, self.coupling, self.mixed)


def igsge_residual(state: IGSGEState):
    """Finite-difference residuals of the four equation groups."""
    chart = state.chart
    n = chart.dim
    inner = tuple(slice(1, -1) for _ in range(n))

    def d(values, axis):
        return partial_derivative(values, axis, chart.spacing[axis])

    unit = state.unit_residual()

    gradient = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            res = d(state.V[i], j) - state.V[j] * state.h[j, i]
            gradient = max(gradient, float(np.max(np.abs(res[inner]))))

    coupling = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            res = d(state.h[i, j], i) + d(state.h[j, i], j)
            for s in range(n):
                if s in (i, j):
                    continue
                res = res + state.h[s, i] * state.h[s, j]
            res = res - state.V[i] * state.V[j]
            coupling = max(coupling, float(np.max(np.abs(res[inner]))))

    mixed = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for s in range(n):
                if s in (i, j):
                    continue
                res = d(state.h[i, j], s) - (state.h[i, s] * state.h[s, j])
                mixed = max(mixed, float(np.max(np.abs(res[inner]))))

    return IGSGEResiduals(unit=unit, gradient=gradient, coupling=coupling, mixed=mixed)


def igsge_forms(state: IGSGEState):
    """Coframe omega_i = V_i dx_i, connection omega_ij = h_ij dx_j - h_ji dx_i.

    The rows left unwritten are declared to the bundle (`FrameData.zero_rows`),
    so that its row maxima take them as +0 without reading them; the
    bundle's arrays are then read-only.
    """
    chart = state.chart
    n = chart.dim
    pairs = list(combinations(range(n), 2))
    # entries that are identically zero are not written: only the written
    # pages of a large lazy_zeros array are resident
    zero_rows = np.ones((n + len(pairs), n), bool)
    omega = lazy_zeros((n, n) + chart.counts)
    for i in range(n):
        omega[i, i] = state.V[i]
        zero_rows[i, i] = False
    upper = lazy_zeros((len(pairs), n) + chart.counts)
    for p, (i, j) in enumerate(pairs):
        if np.any(state.h[i, j]):
            upper[p, j] = state.h[i, j]
            zero_rows[n + p, j] = False
        if np.any(state.h[j, i]):
            np.negative(state.h[j, i], out=upper[p, i])
            zero_rows[n + p, i] = False
    return FrameData(chart, omega, upper, zero_rows)
