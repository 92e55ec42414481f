"""Shared fixtures: small analytic frames with known structure behavior."""

from itertools import combinations

import numpy as np
import pytest

from pssframe import (
    FrameData,
    GridChart,
    connection_matrix,
    frame_vector_fields,
    lie_bracket,
    special_coordinates_check,
)
from pssframe.models import igsge_explicit_solution, igsge_forms


def interior_max_abs(values):
    """Max |values| over nodes with every index strictly interior."""
    arr = np.asarray(values)
    core = arr[tuple(slice(1, -1) for _ in range(arr.ndim))]
    if core.size == 0:
        return 0.0
    return float(np.max(np.abs(core)))


def square_chart(n, lo=-1.0, hi=1.0):
    """Uniform n x n chart on [lo, hi]^2."""
    h = (hi - lo) / (n - 1)
    return GridChart((lo, lo), (h, h), (n, n))


def exp_metric_frame(n, lo=-1.0, hi=1.0):
    """Orthonormal coframe of ds^2 = dx^2 + e^{-2x} dy^2 (curvature -1).

    omega_1 = dx, omega_2 = e^{-x} dy, omega_12 = -e^{-x} dy.  This frame
    already satisfies omega_12 + omega_2 = 0, so the solved rotation is the
    identity and theta_1 = dx exactly.
    """
    chart = square_chart(n, lo, hi)
    x, _ = chart.meshgrid()
    zero = np.zeros(chart.shape)
    ex = np.exp(-x)
    omega = [[np.ones(chart.shape), zero], [zero, ex]]
    return FrameData(chart, omega, [[zero, -ex]])


def cosh_metric_frame(n, lo=-1.0, hi=1.0):
    """Orthonormal coframe of ds^2 = dx^2 + cosh(x)^2 dy^2 (curvature -1).

    omega_1 = dx, omega_2 = cosh(x) dy, omega_12 = sinh(x) dy.  Not special:
    solving for the rotation angle is a genuine quadrature here.
    """
    chart = square_chart(n, lo, hi)
    x, _ = chart.meshgrid()
    zero = np.zeros(chart.shape)
    omega = [[np.ones(chart.shape), zero], [zero, np.cosh(x)]]
    return FrameData(chart, omega, [[zero, np.sinh(x)]])


def half_space_frame(n, m):
    """Coframe of the upper half-space metric in n dimensions (curvature -1).

    omega_1 = dx_1, omega_i = e^{-x_1} dx_i, omega_1i = -e^{-x_1} dx_i and
    every other omega_ij = 0 on the uniform grid [0, 1]^n with m nodes per
    axis: the n-dimensional form of `exp_metric_frame`.  It is special
    already, so the solved rotation is the identity and theta_1 = dx_1.
    """
    chart = GridChart((0.0,) * n, (1.0 / (m - 1),) * n, (m,) * n)
    x1 = chart.meshgrid()[0]
    decay = np.exp(-x1)
    omega = np.zeros((n, n) + chart.counts)
    omega[0, 0] = 1.0
    upper = np.zeros((n * (n - 1) // 2, n) + chart.counts)
    for i in range(1, n):
        omega[i, i] = decay
        upper[i - 1, i] = -decay  # pairs (0, 1), ..., (0, n - 1) come first
    return FrameData(chart, omega, upper)


def varying_rotation_frame(m, K, weights):
    """half_space_frame(n, m) rotated by R(x) = exp(f(x) K), and R.

    f = sin(weights . x) and K is skew with K^3 = -K, so R = I + sin(f) K +
    (1 - cos f) K^2 and dR R^T = df K exactly.  The rotated bundle is then
    analytic at every node: theta = R omega and Theta_a = (d_a f) K +
    R W_a R^T.  A solve started from R(base)^T must return L = R^T.
    """
    n = len(weights)
    fd = half_space_frame(n, m)
    chart = fd.chart
    phase = sum(c * x for c, x in zip(weights, chart.meshgrid()))
    f = np.sin(phase)
    s, c = np.sin(f)[..., None, None], np.cos(f)[..., None, None]
    R = np.eye(n) + s * K + (1.0 - c) * (K @ K)
    theta = [sum(R[..., i, j] * fd.omega[j] for j in range(n)) for i in range(n)]
    rows, cols = np.triu_indices(n, 1)
    upper = np.empty((len(rows), n) + chart.counts)
    for a in range(n):
        big_theta = (weights[a] * np.cos(phase))[..., None, None] * K
        big_theta += R @ connection_matrix(fd.connection, a) @ np.swapaxes(R, -1, -2)
        upper[:, a] = np.moveaxis(big_theta[..., rows, cols], -1, 0)
    return FrameData(chart, theta, upper), R


def igsge_frame(n):
    """The acceptance igsge chart [0.5, 6] x [-4, 4]^2 with n^3 nodes, c = (0.6, 0.8)."""
    chart = GridChart(
        (0.5, -4.0, -4.0),
        (5.5 / (n - 1), 8.0 / (n - 1), 8.0 / (n - 1)),
        (n, n, n),
    )
    return igsge_forms(igsge_explicit_solution(chart, (0.6, 0.8)))


def rotated_l0(n, seed=20260817):
    """A fixed, seeded, non-identity orthogonal start matrix.

    The explicit solution's coframe already has the target shape, so an
    identity start makes the solve a no-op with exactly zero residuals;
    starting from a composed Givens rotation keeps the convergence
    measurement meaningful.
    """
    rng = np.random.default_rng(seed)
    L = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.uniform(0.3, 1.2)
            G = np.eye(n)
            G[i, i] = G[j, j] = np.cos(a)
            G[i, j] = -np.sin(a)
            G[j, i] = np.sin(a)
            L = L @ G
    return L


def flat_frame(n):
    """Coframe of the flat plane: fails every curvature -1 check."""
    chart = square_chart(n)
    omega = np.zeros((2, 2) + chart.counts)
    omega[0, 0] = omega[1, 1] = 1.0
    return FrameData(chart, omega, np.zeros((1, 2) + chart.counts))


@pytest.fixture
def chart41():
    return square_chart(41)


@pytest.fixture
def exp_frame():
    return exp_metric_frame(41)


@pytest.fixture
def cosh_frame():
    return cosh_metric_frame(41)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def non_finite_frame(dim, component, value, node="center"):
    """A curvature -1 frame with one coefficient set to value.

    component "omega" hits the dx_2 coefficient of omega_2, "connection"
    the dx_2 coefficient of omega_12; node is the center or the origin.
    """
    fd = exp_metric_frame(9) if dim == 2 else half_space_frame(3, 7)
    where = tuple(c // 2 if node == "center" else 0 for c in fd.chart.counts)
    target = fd.omega[1, 1] if component == "omega" else fd.connection[0, 1]
    target[where] = value
    return fd


def max_bracket(fd, report, constants=None, base="center"):
    """The largest Lie bracket of the scaled special frame: an oracle for
    `special_coordinates_check`.

    The frame fields are v = L F^-T (`frame_vector_fields`), rescaled to
    r_i v_i with the check's r_i = c_i exp(-G), and every bracket
    [v_1, r_i v_i] and [r_i v_i, r_j v_j] is formed with the chart stencils
    (`lie_bracket`).  Max-norm over the interior nodes whose whole stencil
    lies in the nondegenerate region; NaN when no node does.
    """
    n = fd.dim
    scalings = special_coordinates_check(fd, report, constants, base).scalings
    comps, valid = frame_vector_fields(fd)
    fields = [np.einsum("...j,...jk->...k", report.rotation[..., i, :], comps) for i in range(n)]
    for i in range(1, n):
        fields[i] *= scalings[i - 1][..., None]
    # the valid nodes whose neighbours along every axis are valid, interior
    core = valid.copy()
    for axis in range(n):
        for shift in (1, -1):
            core &= np.roll(valid, shift, axis)
    interior = np.zeros_like(core)
    interior[tuple(slice(1, -1) for _ in range(n))] = True
    core &= interior
    if not core.any():
        return float("nan")
    pairs = combinations(range(n), 2)
    brackets = [lie_bracket(fd.chart, fields[i], fields[j])[core] for i, j in pairs]
    return float(np.max([np.max(np.abs(b)) for b in brackets]))
