"""Sine-Gordon solutions and their frame data.

u_{x1x1} - u_{x2x2} = sin u.  Kink solutions are sampled with analytic
derivatives so that only the operators under test contribute discretization
error.

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

from ..frames import FrameData
from ..grid import GridChart, dense


@dataclass
class SineGordonSolution:
    """A field u with consistent first derivatives, each (*counts), on a 2D chart."""

    chart: GridChart
    u: np.ndarray
    u_x1: np.ndarray
    u_x2: np.ndarray

    def __post_init__(self):
        for name in ("u", "u_x1", "u_x2"):
            setattr(self, name, dense(getattr(self, name), self.chart.counts, name))


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
    return SineGordonSolution(chart, u, 2.0 * gamma * sech, -2.0 * gamma * v * sech)


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


def sg_forms(sol: SineGordonSolution):
    """FrameData of a solution; see the module docstring for the forms."""
    chart = sol.chart
    half = 0.5 * sol.u
    omega = np.zeros((2, 2) + chart.counts)
    np.cos(half, out=omega[0, 0])
    np.sin(half, out=omega[1, 1])
    upper = np.empty((1, 2) + chart.counts)
    np.multiply(0.5, sol.u_x2, out=upper[0, 0])
    np.multiply(0.5, sol.u_x1, out=upper[0, 1])
    return FrameData(chart, omega, upper)
