"""Written-out operators that only the tests use, as oracles for the package.

The full-grid exterior derivative and wedge product, which the structure
gate's slabbed residuals are checked against; h recovered from V for the
igsge system; and the sine-Gordon angle system checked by finite
differences, with the finite-difference wrapper of a bare u.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from pssframe.errors import DegenerateFrameError
from pssframe.forms import closedness_residual, oneform
from pssframe.grid import GridChart, dense, partial_derivative
from pssframe.models import SineGordonSolution

V_THRESHOLD_DEFAULT = 1e-8


def d_scalar(chart: GridChart, f):
    """Exterior derivative of a scalar field (*counts): its gradient one-form."""
    f = dense(f, chart.counts, "scalar field")
    out = np.empty((chart.dim,) + chart.counts)
    for k in range(chart.dim):
        out[k] = partial_derivative(f, k, chart.spacing[k])
    return out


def d_oneform(chart: GridChart, theta):
    """Exterior derivative as a (pairs, *counts) two-form array, pairs k < l
    row-major: the coefficient of dx_k^dx_l is d_k theta_l - d_l theta_k."""
    theta = oneform(chart, theta)
    pairs = list(combinations(range(chart.dim), 2))
    out = np.empty((len(pairs),) + chart.counts)
    for p, (k, l) in enumerate(pairs):
        dk = partial_derivative(theta[l], k, chart.spacing[k])
        dl = partial_derivative(theta[k], l, chart.spacing[l])
        np.subtract(dk, dl, out=out[p])
    return out


def wedge(a, b):
    """Wedge product of two (n, *counts) one-forms as a (pairs, *counts) array."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("one-forms of shapes %s and %s" % (a.shape, b.shape))
    pairs = list(combinations(range(a.shape[0]), 2))
    out = np.empty((len(pairs),) + a.shape[1:])
    # NaN and +-Inf coefficients pass on without a warning
    with np.errstate(invalid="ignore"):
        for p, (k, l) in enumerate(pairs):
            np.multiply(a[k], b[l], out=out[p])
            out[p] -= a[l] * b[k]
    return out


def igsge_h_from_V(chart: GridChart, V, threshold=V_THRESHOLD_DEFAULT):
    """Recover h from V (n, *counts) by h_ji = (dV_i/dx_j) / V_j where V_j is usable.

    Returns (h, valid): h is (n, n, *counts) with a zero diagonal, and
    valid (n, *counts) marks in valid[j] the nodes with |V_j| above the
    threshold, which row j of h is taken on; masked nodes hold zero.
    Raises when a divisor component is below threshold everywhere.
    """
    n = chart.dim
    V = dense(V, (n,) + chart.counts, "V")
    h = np.zeros((n, n) + chart.counts)
    valid = np.abs(V) > threshold
    for j in range(n):
        ok = valid[j]
        if not ok.any():
            raise DegenerateFrameError(
                "component %d is below threshold on the whole chart" % (j + 1)
            )
        safe = np.where(ok, V[j], 1.0)
        for i in range(n):
            if i != j:
                dvi = partial_derivative(V[i], j, chart.spacing[j])
                h[j, i] = np.where(ok, dvi / safe, 0.0)
    return h, valid


def sg_from_values(chart: GridChart, u_values):
    """Wrap a bare sample u with finite-difference derivatives."""
    u = dense(u_values, chart.counts, "u")
    return SineGordonSolution(
        chart,
        u,
        partial_derivative(u, 0, chart.spacing[0]),
        partial_derivative(u, 1, chart.spacing[1]),
    )


@dataclass
class SGPhiCheck:
    """Residuals of the angle system plus the rotated form (2, *counts) it produces."""

    residual_x1: float
    residual_x2: float
    theta: np.ndarray
    closed_residual: float

    def max_residual(self):
        return max(self.residual_x1, self.residual_x2)


def sg_phi_system_check(sol: SineGordonSolution, phi):
    """Check an angle field phi (*counts) against the model's first-order system.

        phi_x1 = u_x2 / 2 + sin(phi) cos(u/2)
        phi_x2 = u_x1 / 2 + cos(phi) sin(u/2)

    Derivatives of phi are finite differences; residuals are interior
    max-norms.  Also returns the rotated form
    theta = cos(phi) cos(u/2) dx1 - sin(phi) sin(u/2) dx2 and its
    closedness residual.
    """
    chart = sol.chart
    half = 0.5 * sol.u
    p = dense(phi, chart.counts, "phi")
    p_x1 = partial_derivative(p, 0, chart.spacing[0])
    p_x2 = partial_derivative(p, 1, chart.spacing[1])
    r1 = p_x1 - (0.5 * sol.u_x2 + np.sin(p) * np.cos(half))
    r2 = p_x2 - (0.5 * sol.u_x1 + np.cos(p) * np.sin(half))

    theta = np.array([np.cos(p) * np.cos(half), -np.sin(p) * np.sin(half)])
    inner = (slice(1, -1), slice(1, -1))
    return SGPhiCheck(
        residual_x1=float(np.max(np.abs(r1[inner]))),
        residual_x2=float(np.max(np.abs(r2[inner]))),
        theta=theta,
        closed_residual=closedness_residual(chart, theta),
    )
