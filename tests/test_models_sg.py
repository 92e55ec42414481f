"""Kink solutions, their coframes, and the scalar angle system."""

import numpy as np
import pytest

from pssframe import GridChart, solve_phi_2d, structure_residuals
from pssframe.models import (
    IGSGEState,
    igsge_forms,
    sg_forms,
    sg_pde_residual,
    sg_solution,
)

from oracles import sg_from_values, sg_phi_system_check


def kink_chart(n, lo=(-8.0, -8.0), hi=(8.0, 8.0)):
    h = ((hi[0] - lo[0]) / (n - 1), (hi[1] - lo[1]) / (n - 1))
    return GridChart(lo, h, (n, n))


def test_static_kink_profile_and_derivatives():
    chart = kink_chart(81)
    sol = sg_solution(chart)
    u = sol.u
    assert np.all(np.diff(u[:, 0]) > 0)  # monotone front
    assert u[0, 0] == pytest.approx(0.0, abs=2e-3)
    assert u[-1, 0] == pytest.approx(2 * np.pi, abs=2e-3)
    assert u[40, 40] == pytest.approx(np.pi)  # center of the front
    assert np.max(np.abs(sol.u_x2)) == 0.0
    x1, _ = chart.meshgrid()
    assert np.max(np.abs(sol.u_x1 - 2.0 / np.cosh(x1))) < 1e-14


@pytest.mark.parametrize("kind,velocity", [("static_kink", 0.0), ("moving_kink", 0.6)])
def test_kink_satisfies_equation_to_stencil_order(kind, velocity):
    errs = []
    for n in (41, 81, 161):
        chart = kink_chart(n)
        sol = sg_solution(chart, kind=kind, velocity=velocity)
        errs.append(sg_pde_residual(chart, sol.u))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.9)
    assert errs[-1] < 1e-2


def test_moving_kink_at_zero_velocity_is_static():
    chart = kink_chart(33)
    a = sg_solution(chart, kind="static_kink")
    b = sg_solution(chart, kind="moving_kink", velocity=0.0)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.u_x1, b.u_x1)


def test_solution_argument_validation():
    chart = kink_chart(9)
    with pytest.raises(ValueError, match="kind"):
        sg_solution(chart, kind="breather")
    with pytest.raises(ValueError, match="velocity"):
        sg_solution(chart, kind="moving_kink", velocity=1.0)
    chart3 = GridChart((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    with pytest.raises(ValueError, match="2D"):
        sg_solution(chart3)


def test_from_values_matches_analytic_derivatives():
    chart = kink_chart(161)
    sol = sg_solution(chart)
    approx = sg_from_values(chart, sol.u)
    assert np.max(np.abs(approx.u_x1 - sol.u_x1)) < 5e-3
    assert np.max(np.abs(approx.u_x2)) < 1e-12


def test_kink_forms_satisfy_structure_equations_to_stencil_order():
    errs = []
    for n in (41, 81, 161):
        fd = sg_forms(sg_solution(kink_chart(n)))
        errs.append(max(structure_residuals(fd)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.8)


def test_forms_accept_scalar_field_with_fd_fallback():
    chart = kink_chart(81)
    sol = sg_solution(chart)
    fd_analytic = sg_forms(sol)
    fd_fd = sg_forms(sg_from_values(chart, sol.u))
    diff = fd_analytic.connection[0, 1] - fd_fd.connection[0, 1]
    assert np.max(np.abs(diff)) < 2e-2  # derivative discretization only
    assert np.array_equal(fd_analytic.omega[0], fd_fd.omega[0])


def test_solved_angle_satisfies_the_printed_first_order_system():
    chart = GridChart((0.5, -2.0), (3.5 / 80, 4.0 / 80), (81, 81))
    sol = sg_solution(chart)
    rep = solve_phi_2d(sg_forms(sol))
    check = sg_phi_system_check(sol, rep.angle)
    assert check.max_residual() < 5e-3  # finite-difference level
    assert check.closed_residual == pytest.approx(rep.closed_residual, rel=1e-10)
    for a in range(2):
        diff = check.theta[a] - rep.theta1[a]
        assert np.max(np.abs(diff)) < 1e-12


def test_phi_check_residual_is_large_for_wrong_angle():
    chart = kink_chart(41)
    sol = sg_solution(chart)
    x1, _ = chart.meshgrid()
    check = sg_phi_system_check(sol, 0.5 * x1)
    assert check.max_residual() > 0.1
    with pytest.raises(ValueError, match="phi needs shape"):
        sg_phi_system_check(sol, x1[1:])


def test_two_dimensional_reduction_matches_general_system():
    # V = (cos(u/2), sin(u/2)), h_12 = u_x1/2, h_21 = -u_x2/2 reproduces the
    # kink coframe through the general n-dimensional constructor
    chart = kink_chart(33)
    sol = sg_solution(chart, kind="moving_kink", velocity=0.3)
    fd_sg = sg_forms(sol)
    half = 0.5 * sol.u
    h = np.zeros((2, 2) + chart.counts)
    h[0, 1] = 0.5 * sol.u_x1
    h[1, 0] = -0.5 * sol.u_x2
    state = IGSGEState(chart, V=[np.cos(half), np.sin(half)], h=h)
    fd_gen = igsge_forms(state)
    assert np.array_equal(fd_sg.omega, fd_gen.omega)
    assert np.array_equal(fd_sg.connection, fd_gen.connection)
