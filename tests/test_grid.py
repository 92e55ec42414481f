"""Chart bookkeeping and stencil primitives."""

import numpy as np
import pytest

from pssframe import GridChart, midpoints, partial_derivative
from pssframe.errors import ChartMismatchError

from conftest import interior_max_abs, square_chart


def test_chart_coordinates_round_trip():
    chart = GridChart((-1.0, 2.0), (0.5, 0.25), (5, 9), ("x", "t"))
    assert chart.dim == 2
    assert chart.shape == (5, 9)
    x = chart.axis_coordinates(0)
    t = chart.axis_coordinates(1)
    assert np.allclose(x, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert t[0] == 2.0 and np.isclose(t[-1], 4.0)
    X, T = chart.meshgrid()
    assert X.shape == chart.shape
    assert np.allclose(X[:, 3], x) and np.allclose(T[2, :], t)


def test_base_index_specs():
    chart = GridChart((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (5, 4, 7))
    assert chart.base_index("center") == (2, 2, 3)
    assert chart.base_index("origin") == (0, 0, 0)
    assert chart.base_index((1, 0, 6)) == (1, 0, 6)
    with pytest.raises(ValueError):
        chart.base_index((1, 0))
    with pytest.raises(ValueError):
        chart.base_index((1, 0, 7))


def test_chart_mismatch_is_detected():
    a = square_chart(11)
    with pytest.raises(ChartMismatchError):
        a.require_same(square_chart(13))
    with pytest.raises(ChartMismatchError):
        a.require_same(square_chart(11, -1.0, 1.5))
    a.require_same(square_chart(11))  # identical chart passes


@pytest.mark.parametrize("axis", [0, 1])
def test_partial_derivative_exact_on_quadratics(axis):
    # the interior stencil and the one-sided edge stencil are both exact
    # for polynomials of degree <= 2
    chart = square_chart(9, 0.0, 2.0)
    x, y = chart.meshgrid()
    values = 1.0 + 2.0 * x - 0.5 * y + x * y + 3.0 * x**2 - y**2
    want = {0: 2.0 + y + 6.0 * x, 1: -0.5 + x - 2.0 * y}[axis]
    got = partial_derivative(values, axis, chart.spacing[axis])
    assert np.max(np.abs(got - want)) < 1e-12


def test_partial_derivative_second_order():
    errs = []
    for n in (17, 33, 65):
        chart = square_chart(n)
        x, y = chart.meshgrid()
        got = partial_derivative(np.sin(2 * x + y), 0, chart.spacing[0])
        errs.append(np.max(np.abs(got - 2 * np.cos(2 * x + y))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.9)


def test_partial_derivative_needs_three_nodes():
    with pytest.raises(ValueError):
        partial_derivative(np.zeros((2, 5)), 0, 1.0)


def test_midpoints_exact_on_cubics():
    xs = np.linspace(0.0, 1.0, 9)
    vals = xs**3 - 2 * xs**2 + 0.25
    mids = 0.5 * (xs[:-1] + xs[1:])
    got = midpoints(vals, 0)
    assert got.shape == (8,)
    assert np.max(np.abs(got - (mids**3 - 2 * mids**2 + 0.25))) < 1e-13


def test_midpoints_fourth_order():
    errs = []
    for n in (17, 33, 65):
        xs = np.linspace(0.0, 1.0, n)
        got = midpoints(np.exp(xs), 0)
        want = np.exp(0.5 * (xs[:-1] + xs[1:]))
        errs.append(np.max(np.abs(got - want)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 3.7)


def test_interior_max_abs_ignores_boundary():
    arr = np.zeros((5, 5))
    arr[0, :] = 100.0
    arr[2, 2] = 3.0
    assert interior_max_abs(arr) == 3.0
