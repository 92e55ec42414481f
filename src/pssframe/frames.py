"""Orthonormal coframes, connection forms, and frame rotations.

`FrameData` bundles the dual coframe with the skew connection matrix as two
dense arrays: omega (n, n, *counts), where omega[i, k] is the dx_k
coefficient of omega_i, and connection (pairs, n, *counts), the one-forms
omega_ij of the pairs i < j in row-major order.  Only the upper triangle is
stored, so omega_ji = -omega_ij holds by construction; `connection_matrix`
expands it to the full skew matrix of one coefficient.
`structure_residuals` measures how well the bundle satisfies the first and
second structure equations at constant sectional curvature K;
`frame_change` rotates the bundle by a pointwise orthogonal matrix field;
`special_frame_residual` measures the defining conditions of the
distinguished frame whose first dual form is closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import fieldio
from .errors import DegenerateFrameError, OrthogonalityError
from .forms import interior_d
from .grid import GridChart, ScalarField, dense, partial_derivative

DET_RTOL_DEFAULT = 1e-8
ORTH_TOL_DEFAULT = 1e-12


@dataclass
class FrameRotationField:
    """Pointwise orthogonal matrix field L (shape (*counts, n, n)).

    For n = 2 rotations built from an angle field, `angle` keeps the
    (unwrapped) angle so cos/sin relations stay available to callers.
    `orth_residual` is `orthogonality_error()` of the matrix as constructed.
    """

    chart: GridChart
    matrix: np.ndarray
    angle: ScalarField = None
    orth_tol: float = ORTH_TOL_DEFAULT
    orth_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.chart.dim
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != tuple(self.chart.counts) + (n, n):
            raise ValueError("rotation matrix field has wrong shape")
        err = self.orth_residual = self.orthogonality_error()
        if not np.isfinite(err) or err > self.orth_tol:
            raise OrthogonalityError(
                "matrix field is not orthogonal: max |LL^T - I| = %.3e" % err
            )

    @classmethod
    def identity(cls, chart):
        n = chart.dim
        mat = np.broadcast_to(np.eye(n), chart.counts + (n, n)).copy()
        return cls(chart, mat)

    @classmethod
    def from_angle(cls, phi: ScalarField):
        """SO(2) rotation field [[cos, -sin], [sin, cos]] from an angle field."""
        if phi.chart.dim != 2:
            raise ValueError("angle rotations are for 2D charts")
        c, s = np.cos(phi.values), np.sin(phi.values)
        mat = np.empty(phi.chart.counts + (2, 2))
        mat[..., 0, 0] = c
        mat[..., 0, 1] = -s
        mat[..., 1, 0] = s
        mat[..., 1, 1] = c
        return cls(phi.chart, mat, angle=phi.copy())

    @classmethod
    def constant(cls, chart, matrix):
        mat = np.broadcast_to(
            np.asarray(matrix, dtype=float), chart.counts + np.shape(matrix)
        ).copy()
        return cls(chart, mat)

    def orthogonality_error(self):
        gram = np.matmul(self.matrix, np.ascontiguousarray(np.swapaxes(self.matrix, -1, -2)))
        gram -= np.eye(self.chart.dim)
        return float(np.max(np.abs(gram, out=gram)))

    def entry(self, i, j):
        return ScalarField(self.chart, self.matrix[..., i, j].copy())


@dataclass
class FrameData:
    """Dual coframe omega (n, n, *counts) + connection (pairs, n, *counts)."""

    chart: GridChart
    omega: np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        n, counts = self.chart.dim, self.chart.counts
        if n < 2:
            raise ValueError("frame data needs a chart of dimension >= 2")
        self.omega = dense(self.omega, (n, n) + counts, "coframe omega")
        pairs = (n * (n - 1) // 2, n)
        self.connection = dense(self.connection, pairs + counts, "connection")

    @property
    def dim(self):
        return self.chart.dim

    def coefficient_matrix(self):
        """F of shape (*counts, n, n) with F[..., i, k] = (omega_i)_k, a view."""
        return np.moveaxis(self.omega, (0, 1), (-2, -1))

    def max_abs(self):
        """Max |coefficient| over the bundle; NaN when any coefficient is NaN."""
        # one form at a time: |omega| of the whole coframe would be one more
        # full-size temporary
        worst = [np.max(np.abs(w)) for w in self.omega]
        return float(np.max(worst + [np.max(np.abs(self.connection))]))


def connection_matrix(upper, axis):
    """W (*counts, n, n) with W[..., i, j] the dx_axis coefficient of omega_ij.

    upper is a (pairs, n, *counts) connection; W is skew by construction.
    """
    n = upper.shape[1]
    out = np.zeros(upper.shape[2:] + (n, n))
    for (i, j), w in zip(combinations(range(n), 2), upper):
        out[..., i, j] = w[axis]
        out[..., j, i] = -w[axis]
    return out


def structure_residuals(fd: FrameData, curvature=-1.0):
    """Max-norm interior residuals of the two structure equations.

    res1: d(omega_i) - sum_{j != i} omega_j ^ omega_{ji}
    res2: d(omega_ij) - sum_{k != i, j} omega_ik ^ omega_kj + K omega_i ^ omega_j

    Formed on the strictly interior nodes only, one dx_k ^ dx_l coefficient
    at a time: d of a one-form by `interior_d`, wedges of interior
    views, and omega_ij for i > j as the stored omega_ji with its term's sign
    flipped (x - (-w) is x + w bit for bit), so each node gets the doubles of
    the full-grid `d_oneform` and `wedge`.  A NaN makes its max-norm NaN.
    """
    n = fd.dim
    pairs = list(combinations(range(n), 2))
    core, h = fd.chart.interior(), fd.chart.spacing
    omega = fd.omega

    def entry(i, j):  # omega_ij as (sign, stored upper entry)
        return (1 if i < j else -1), fd.connection[pairs.index((min(i, j), max(i, j)))]

    def wedge(a, b, k, l):
        w = a[k][core] * b[l][core]
        w -= a[l][core] * b[k][core]
        return w

    def subtract(r, sign, w):  # r - sign w, in place
        (np.subtract if sign > 0 else np.add)(r, w, out=r)

    res1, res2 = [], []
    # NaN and +-Inf coefficients pass on to the structure gate, which fails them
    with np.errstate(invalid="ignore", over="ignore"):
        for k, l in pairs:
            for i in range(n):
                r = interior_d(omega[i], k, l, h)
                for j in range(n):
                    if j != i:
                        sign, w = entry(j, i)
                        subtract(r, sign, wedge(omega[j], w, k, l))
                res1.append(np.max(np.abs(r)))
            for i, j in pairs:
                r = interior_d(entry(i, j)[1], k, l, h)
                for m in range(n):
                    if m != i and m != j:  # omega_ii = omega_jj = 0: a zero wedge
                        (s1, a), (s2, b) = entry(i, m), entry(m, j)
                        subtract(r, s1 * s2, wedge(a, b, k, l))
                r += wedge(omega[i], omega[j], k, l) * float(curvature)
                res2.append(np.max(np.abs(r)))
    return float(np.max(res1)), float(np.max(res2))


def special_frame_residual(fd: FrameData):
    """Max-norm over all nodes of the special-frame conditions.

    For the distinguished frame: theta_{1i} + theta_i = 0 (i >= 2) and
    theta_ij = 0 (2 <= i < j).  Algebraic, so no interior restriction.
    """
    n = fd.dim
    upper = fd.connection  # pairs (1, 2), ..., (1, n) come first
    worst = 0.0
    for i in range(1, n):
        worst = max(worst, float(np.max(np.abs(upper[i - 1] + fd.omega[i]))))
    if n > 2:
        worst = max(worst, float(np.max(np.abs(upper[n - 1 :]))))
    return worst


def frame_change(fd: FrameData, rot: FrameRotationField) -> FrameData:
    """Rotate the bundle: theta_i = L_ij omega_j, Theta = dL L^T + L W L^T.

    The rotated connection is skew-symmetrized (its analytic skewness holds
    only to stencil order for non-constant L) before its upper triangle is
    stored.
    """
    fd.chart.require_same(rot.chart)
    chart = fd.chart
    n = fd.dim
    L = rot.matrix
    L_ij = np.moveaxis(L, (-2, -1), (0, 1))  # L_ij[i, j] = L[..., i, j]

    # theta[i, k] = sum_j L_ij omega_j,k, summed over j in order
    theta = np.zeros((n, n) + chart.counts)
    for j in range(n):
        theta += L_ij[:, j, None] * fd.omega[j]

    rows, cols = np.triu_indices(n, 1)
    upper = np.empty((len(rows), n) + chart.counts)
    for a in range(n):
        dL = partial_derivative(L, a, chart.spacing[a])
        w_a = connection_matrix(fd.connection, a)
        total = np.einsum("...ik,...jk->...ij", dL, L)
        total += np.matmul(np.matmul(L, w_a), np.swapaxes(L, -1, -2))
        skew = 0.5 * (total - np.swapaxes(total, -1, -2))
        upper[:, a] = np.moveaxis(skew[..., rows, cols], -1, 0)

    return FrameData(chart, theta, upper)


def frame_vector_fields(fd: FrameData, det_rtol=DET_RTOL_DEFAULT):
    """Coordinate components of the frame vectors dual to the coframe.

    Returns (components, valid) where components[..., i, k] is the k-th
    coordinate component of e_i (so omega_j(e_i) = delta_ij) and valid marks
    nodes whose coefficient matrix passed the relative determinant test.
    Raises DegenerateFrameError when no node is invertible.
    """
    F = fd.coefficient_matrix()
    n = fd.dim
    scale = float(np.max(np.abs(F)))
    if scale == 0.0:
        raise DegenerateFrameError("coefficient matrix vanishes identically")
    det = np.linalg.det(F)
    valid = np.abs(det) > det_rtol * scale**n
    if not valid.any():
        raise DegenerateFrameError("coefficient matrix is singular everywhere")

    comps = np.zeros_like(F)
    safe = F[valid]
    inv = np.linalg.inv(safe)
    comps[valid] = np.swapaxes(inv, -1, -2)
    return comps, valid


def lie_bracket(chart: GridChart, x_comp, y_comp):
    """[X, Y]^k = X^m d_m Y^k - Y^m d_m X^k with the chart stencils.

    x_comp, y_comp: arrays of shape (*counts, n) of coordinate components.
    """
    n = chart.dim
    out = np.zeros_like(x_comp)
    for k in range(n):
        for m in range(n):
            d_yk = partial_derivative(y_comp[..., k], m, chart.spacing[m])
            d_xk = partial_derivative(x_comp[..., k], m, chart.spacing[m])
            out[..., k] += x_comp[..., m] * d_yk - y_comp[..., m] * d_xk
    return out


def save_frame_data(path, fd: FrameData):
    """Write a frame bundle as one pssfield file.

    Component order: omega_1..omega_n then omega_ij for i<j (row-major),
    each form contributing its n coefficients in axis order.
    """
    counts = fd.chart.counts
    comps = [fd.omega.reshape((-1,) + counts), fd.connection.reshape((-1,) + counts)]
    fieldio.write_field(path, fd.chart, np.concatenate(comps))


def load_frame_data(path):
    """Read a file written by `save_frame_data`; both arrays are views of one block.

    A NaN or infinite coefficient is refused with a ValueError naming it.
    """
    chart, stack = fieldio.read_field(path)
    bad = np.argwhere(~np.isfinite(stack))
    if bad.size:
        comp, *node = bad[0].tolist()
        raise ValueError(
            "non-finite coefficient %r in component %d at node %s"
            % (float(stack[tuple(bad[0])]), comp + 1, tuple(node))
        )
    n = chart.dim
    n_pairs = n * (n - 1) // 2
    if stack.shape[0] != n * n + n_pairs * n:
        raise ValueError("component count does not match frame data layout")
    omega = stack[: n * n].reshape((n, n) + chart.counts)
    upper = stack[n * n :].reshape((n_pairs, n) + chart.counts)
    return FrameData(chart, omega, upper)
