"""Sine-Gordon solutions and their frame data.

u_{x1x1} - u_{x2x2} = sin u.  Kink solutions are sampled with analytic
derivatives so that only the operators under test contribute discretization
error; user-supplied fields fall back to finite differences.

The coframe attached to a solution is

    omega_1  = cos(u/2) dx1
    omega_2  = sin(u/2) dx2
    omega_12 = (u_x2 / 2) dx1 + (u_x1 / 2) dx2

which satisfies the curvature -1 structure equations exactly when u solves
the equation.  In the language of the n-dimensional system in `igsge`, this
is the n = 2 case with V = (cos(u/2), sin(u/2)) and off-diagonal entries
h_12 = u_x1 / 2, h_21 = -u_x2 / 2 — the dx2 and negated dx1 coefficients of
the connection form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..forms import ConnectionField, OneFormField, closedness_residual
from ..frames import FrameData
from ..grid import GridChart, ScalarField, partial_derivative


@dataclass
class SineGordonSolution:
    """A field with consistent first derivatives on a 2D chart."""

    u: ScalarField
    u_x1: ScalarField
    u_x2: ScalarField

    @property
    def chart(self):
        return self.u.chart


def sg_solution(chart: GridChart, kind="static_kink", velocity=0.0):
    """Sample a kink solution with analytic derivatives.

    static_kink: u = 4 arctan(exp(x1)).  moving_kink: the same profile in
    the boosted variable (x1 - v x2) / sqrt(1 - v^2), |v| < 1.
    """
    if chart.dim != 2:
        raise ValueError("kink solutions live on 2D charts")
    if kind == "static_kink":
        velocity = 0.0
    elif kind != "moving_kink":
        raise ValueError("kind must be static_kink or moving_kink")
    v = float(velocity)
    if abs(v) >= 1.0:
        raise ValueError("kink velocity must satisfy |v| < 1")

    gamma = 1.0 / np.sqrt(1.0 - v * v)
    x1, x2 = chart.meshgrid()
    xi = gamma * (x1 - v * x2)
    # far out on the tails exp and cosh overflow to Inf, where arctan and
    # 1 / cosh take their exact limits
    with np.errstate(over="ignore"):
        u = 4.0 * np.arctan(np.exp(xi))
        sech = 1.0 / np.cosh(xi)
    return SineGordonSolution(
        u=ScalarField(chart, u),
        u_x1=ScalarField(chart, 2.0 * gamma * sech),
        u_x2=ScalarField(chart, -2.0 * gamma * v * sech),
    )


def sg_from_values(chart: GridChart, u_values):
    """Wrap a user-supplied sample with finite-difference derivatives."""
    u = np.asarray(u_values, dtype=float)
    return SineGordonSolution(
        u=ScalarField(chart, u),
        u_x1=ScalarField(chart, partial_derivative(u, 0, chart.spacing[0])),
        u_x2=ScalarField(chart, partial_derivative(u, 1, chart.spacing[1])),
    )


def sg_pde_residual(chart: GridChart, u_values):
    """Interior max of u_{x1x1} - u_{x2x2} - sin u by central differences."""
    u = np.asarray(u_values, dtype=float)
    h1, h2 = chart.spacing
    res = (
        (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h1**2
        - (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h2**2
        - np.sin(u[1:-1, 1:-1])
    )
    return float(np.max(np.abs(res)))


def sg_forms(u, u_x1=None, u_x2=None):
    """FrameData of a solution; see the module docstring for the forms.

    u may be a SineGordonSolution (analytic derivatives) or a ScalarField,
    in which case missing derivatives are taken by finite differences.
    """
    if isinstance(u, SineGordonSolution):
        sol = u
    else:
        chart = u.chart
        if u_x1 is None:
            u_x1 = ScalarField(chart, partial_derivative(u.values, 0, chart.spacing[0]))
        if u_x2 is None:
            u_x2 = ScalarField(chart, partial_derivative(u.values, 1, chart.spacing[1]))
        sol = SineGordonSolution(u=u, u_x1=u_x1, u_x2=u_x2)

    chart = sol.chart
    half = 0.5 * sol.u.values
    omega = np.zeros((2, 2) + chart.counts)
    np.cos(half, out=omega[0, 0])
    np.sin(half, out=omega[1, 1])
    upper = np.empty((1, 2) + chart.counts)
    np.multiply(0.5, sol.u_x2.values, out=upper[0, 0])
    np.multiply(0.5, sol.u_x1.values, out=upper[0, 1])
    forms = (OneFormField(chart, omega[0]), OneFormField(chart, omega[1]))
    return FrameData(chart, forms, ConnectionField(chart, upper))


@dataclass
class SGPhiCheck:
    """Residuals of the angle system plus the rotated form it produces."""

    residual_x1: float
    residual_x2: float
    theta: OneFormField
    closed_residual: float

    def max_residual(self):
        return max(self.residual_x1, self.residual_x2)


def sg_phi_system_check(u, phi, u_x1=None, u_x2=None):
    """Check an angle field against the model's first-order system.

        phi_x1 = u_x2 / 2 + sin(phi) cos(u/2)
        phi_x2 = u_x1 / 2 + cos(phi) sin(u/2)

    Derivatives of phi are finite differences; residuals are interior
    max-norms.  Also returns the rotated form
    theta = cos(phi) cos(u/2) dx1 - sin(phi) sin(u/2) dx2 and its
    closedness residual.
    """
    if isinstance(u, SineGordonSolution):
        sol = u
    else:
        sol = sg_from_values(u.chart, u.values)
        if u_x1 is not None:
            sol = SineGordonSolution(u=sol.u, u_x1=u_x1, u_x2=sol.u_x2)
        if u_x2 is not None:
            sol = SineGordonSolution(u=sol.u, u_x1=sol.u_x1, u_x2=u_x2)

    chart = sol.chart
    phi.chart.require_same(chart)
    half = 0.5 * sol.u.values
    p = phi.values
    p_x1 = partial_derivative(p, 0, chart.spacing[0])
    p_x2 = partial_derivative(p, 1, chart.spacing[1])
    r1 = p_x1 - (0.5 * sol.u_x2.values + np.sin(p) * np.cos(half))
    r2 = p_x2 - (0.5 * sol.u_x1.values + np.cos(p) * np.sin(half))

    theta = OneFormField.from_arrays(
        chart,
        [np.cos(p) * np.cos(half), -np.sin(p) * np.sin(half)],
    )
    inner = (slice(1, -1), slice(1, -1))
    return SGPhiCheck(
        residual_x1=float(np.max(np.abs(r1[inner]))),
        residual_x2=float(np.max(np.abs(r2[inner]))),
        theta=theta,
        closed_residual=closedness_residual(theta),
    )
