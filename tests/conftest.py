"""Shared fixtures: small analytic frames with known structure behavior."""

import os
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


SMAPS = "/proc/self/smaps"
needs_smaps = pytest.mark.skipif(
    not os.path.exists(SMAPS), reason="needs the per-mapping resident sizes of /proc/self/smaps"
)


def mappings_of(*arrays):
    """(Rss bytes, size bytes, perms) of each mapping of /proc/self/smaps that
    holds a byte of one of the arrays.  The kernel merges adjacent mappings
    of equal flags, so one of them can hold other arrays too."""
    spans = [(a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays]
    found, hit = [], False
    with open(SMAPS) as smaps:
        for line in smaps:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):
                lo, hi = (int(v, 16) for v in fields[0].split("-"))
                hit = any(lo < end and start < hi for start, end in spans)
                if hit:
                    found.append([0, hi - lo, fields[1]])
            elif hit and fields[0] == "Rss:":
                found[-1][0] = int(fields[1]) * 1024
    return found


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


def busemann_theta1(chart, L0, base):
    """The closed form theta_1 (n, *counts) of a solve from L0 at base on
    the chart of `half_space_frame`: an oracle written from the half-space
    model, not from solver code.

    With Y = e^{x_1} and X = (x_2, ..., x_n) the metric is the upper
    half-space's (|dX|^2 + dY^2) / Y^2.  The geodesic field whose covector
    at the base node is the first row of L0 runs to the ideal point
    xi = X_0 + Y_0 (1 + L0[0, 0]) / |a| * a / |a|, a = L0[0, 1:], and its
    dual is theta_1 = -dB_xi, B_xi = log((|X - xi|^2 + Y^2) / Y) (Bridson &
    Haefliger, ch. II.8).  In components, with D = |X - xi|^2 + Y^2:
    theta_1[0] = 1 - 2 Y^2 / D and theta_1[i] = -2 (X_i - xi_i) / D.  Needs
    a != 0, so that xi is finite.
    """
    x = chart.meshgrid()
    y, X = np.exp(x[0]), x[1:]
    y0, X0 = y[base], [xi[base] for xi in X]
    a = np.asarray(L0)[0, 1:]
    norm = np.linalg.norm(a)
    xi = [p + y0 * (1.0 + L0[0, 0]) / norm * ai / norm for p, ai in zip(X0, a)]
    d = sum((Xi - c) ** 2 for Xi, c in zip(X, xi)) + y**2
    return np.array([1.0 - 2.0 * y**2 / d] + [-2.0 * (Xi - c) / d for Xi, c in zip(X, xi)])


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


def writable_copy(fd):
    """A bundle of copies of fd's arrays, without its declared zero rows
    (`FrameData.zero_rows`): a declared bundle refuses writes, so a test
    that writes into a model's frame writes into this copy of it."""
    return FrameData(fd.chart, fd.omega.copy(), fd.connection.copy())


def igsge4_frame(m):
    """The igsge chart [0.5, 6] x [-4, 4]^3 with m^4 nodes, c = (0.48, 0.6, 0.64)."""
    chart = GridChart((0.5, -4.0, -4.0, -4.0), (5.5 / (m - 1),) + (8.0 / (m - 1),) * 3, (m,) * 4)
    return igsge_forms(igsge_explicit_solution(chart, (0.48, 0.6, 0.64)))


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
