"""Intrinsic generalized sine-Gordon system in n dimensions.

State is a pair {V, h}: a unit vector field V and an off-diagonal matrix h
of coefficient fields on an nD chart, subject to the first-order system

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

from ..errors import DegenerateFrameError
from ..forms import ConnectionField, OneFormField
from ..frames import FrameData
from ..grid import GridChart, ScalarField, partial_derivative

V_THRESHOLD_DEFAULT = 1e-8


@dataclass
class IGSGEState:
    """Unit vector field V plus off-diagonal coefficient fields h."""

    chart: GridChart
    V: tuple  # n ScalarFields
    h: dict  # {(i, j): ScalarField}, i != j, zero-based

    def __post_init__(self):
        n = self.chart.dim
        self.V = tuple(self.V)
        if len(self.V) != n:
            raise ValueError("V needs one component per axis")
        for f in self.V:
            f.chart.require_same(self.chart)
        full = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                entry = self.h.get((i, j))
                if entry is None:
                    entry = ScalarField.zeros(self.chart)
                else:
                    entry.chart.require_same(self.chart)
                full[(i, j)] = entry
        self.h = full

    @property
    def dim(self):
        return self.chart.dim

    def unit_residual(self):
        total = np.zeros(self.chart.counts)
        for f in self.V:
            total += f.values**2
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

    x1 = chart.meshgrid()[0]
    with np.errstate(over="ignore"):  # cosh overflows to Inf where sech is 0
        sech = 1.0 / np.cosh(x1)
    V = [ScalarField(chart, np.tanh(x1))]
    for j in range(1, n):
        V.append(ScalarField(chart, c[j - 1] * sech))
    h = {}
    for j in range(1, n):
        h[(0, j)] = ScalarField(chart, -c[j - 1] * sech)
    return IGSGEState(chart=chart, V=tuple(V), h=h)


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
            res = d(state.V[i].values, j) - state.V[j].values * state.h[(j, i)].values
            gradient = max(gradient, float(np.max(np.abs(res[inner]))))

    coupling = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            res = d(state.h[(i, j)].values, i) + d(state.h[(j, i)].values, j)
            for s in range(n):
                if s in (i, j):
                    continue
                res = res + state.h[(s, i)].values * state.h[(s, j)].values
            res = res - state.V[i].values * state.V[j].values
            coupling = max(coupling, float(np.max(np.abs(res[inner]))))

    mixed = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for s in range(n):
                if s in (i, j):
                    continue
                res = d(state.h[(i, j)].values, s) - (
                    state.h[(i, s)].values * state.h[(s, j)].values
                )
                mixed = max(mixed, float(np.max(np.abs(res[inner]))))

    return IGSGEResiduals(unit=unit, gradient=gradient, coupling=coupling, mixed=mixed)


def igsge_h_from_V(V, threshold=V_THRESHOLD_DEFAULT):
    """Recover h from V by h_ji = (dV_i/dx_j) / V_j where V_j is usable.

    Returns (h, valid) where valid[(j, i)] marks nodes with |V_j| above the
    threshold; masked nodes hold zero.  Raises when a divisor component is
    below threshold everywhere.
    """
    V = tuple(V)
    chart = V[0].chart
    n = chart.dim
    h = {}
    valid = {}
    for j in range(n):
        vj = V[j].values
        ok = np.abs(vj) > threshold
        if not ok.any():
            raise DegenerateFrameError(
                "component %d is below threshold on the whole chart" % (j + 1)
            )
        safe = np.where(ok, vj, 1.0)
        for i in range(n):
            if i == j:
                continue
            dvi = partial_derivative(V[i].values, j, chart.spacing[j])
            h[(j, i)] = ScalarField(chart, np.where(ok, dvi / safe, 0.0))
            valid[(j, i)] = ok
    return h, valid


def igsge_forms(state: IGSGEState):
    """Coframe omega_i = V_i dx_i, connection omega_ij = h_ij dx_j - h_ji dx_i."""
    chart = state.chart
    n = chart.dim
    # entries that are identically zero are not written: the zero pages of
    # np.zeros arrays that stay untouched cost no memory
    omega = tuple(OneFormField.zeros(chart) for _ in range(n))
    for i in range(n):
        omega[i].values[i] = state.V[i].values
    upper = np.zeros((n * (n - 1) // 2, n) + chart.counts)
    for p, (i, j) in enumerate(combinations(range(n), 2)):
        if np.any(state.h[(i, j)].values):
            upper[p, j] = state.h[(i, j)].values
        if np.any(state.h[(j, i)].values):
            np.negative(state.h[(j, i)].values, out=upper[p, i])
    return FrameData(chart, omega, ConnectionField(chart, upper))
