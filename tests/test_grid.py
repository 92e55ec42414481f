"""Chart bookkeeping and stencil primitives."""

import gc
import mmap
import tracemalloc

import numpy as np
import pytest

from pssframe import GridChart, grid, midpoints, partial_derivative

from conftest import interior_max_abs, mappings_of, needs_smaps, square_chart


def test_chart_coordinates_round_trip():
    chart = GridChart((-1.0, 2.0), (0.5, 0.25), (5, 9))
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


def _one_temporary_midpoints(f, axis):
    # the interior rule as it was formed, with one full-size 9 f2 temporary
    g = np.moveaxis(f, axis, 0)
    out = np.empty((g.shape[0] - 1,) + g.shape[1:])
    out[1:-1] = 9.0 * g[1:-2]
    out[1:-1] -= g[:-3]
    out[1:-1] += 9.0 * g[2:-1]
    out[1:-1] -= g[3:]
    out[1:-1] /= 16.0
    out[0] = (5.0 * g[0] + 15.0 * g[1] - 5.0 * g[2] + g[3]) / 16.0
    out[-1] = (5.0 * g[-1] + 15.0 * g[-2] - 5.0 * g[-3] + g[-4]) / 16.0
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("temp_bytes", [1 << 18, 400, 8])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_midpoints_in_chunks_are_the_one_temporary_bits(rng, monkeypatch, axis, temp_bytes):
    f = rng.uniform(-3.0, 3.0, (17, 6, 11))
    monkeypatch.setattr(grid, "_MID_TEMP_BYTES", temp_bytes)
    assert np.array_equal(midpoints(f, axis), _one_temporary_midpoints(f, axis))


def test_midpoints_hold_no_full_size_temporary():
    f = np.ones((64, 128, 64))  # 4 MiB
    midpoints(f, 0)
    tracemalloc.start()
    try:
        midpoints(f, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, one temporary of at most _MID_TEMP_BYTES, and the few
    # rows of the boundary rule
    row = f.nbytes // 64
    assert peak <= 63 * row + grid._MID_TEMP_BYTES + 4 * row


def _rss(*arrays):
    return sum(rss for rss, _, _ in mappings_of(*arrays))


@needs_smaps
def test_lazy_zeros_reads_cost_no_memory_and_writes_cost_their_rows():
    gc.collect()  # no other mapping is unmapped while this one is measured
    rows, row = 16, 8 * 65536  # 8 MiB, past numpy's huge-page threshold
    a = grid.lazy_zeros((rows, 65536))
    assert a.shape == (rows, 65536) and a.dtype == np.float64 and a.flags.writeable
    assert [perms[3] for _, _, perms in mappings_of(a)] == ["p"]  # private
    # below numpy's huge-page threshold the array is numpy's own
    assert grid.lazy_zeros((7, 65536)).flags.owndata and not a.flags.owndata
    before = _rss(a)
    # a read maps the shared zero page; a shared mapping would back it
    assert np.max(a) == 0.0 and np.min(a) == 0.0
    assert _rss(a) == before
    written = (2, 7, 11)
    a[list(written)] = 1.5
    added = _rss(a) - before
    assert len(written) * row <= added <= len(written) * (row + mmap.PAGESIZE)
    assert np.count_nonzero(a) == len(written) * 65536


@pytest.mark.parametrize("shape", [(1 << 27, 1 << 30), (1 << 40, 1 << 30)])
def test_lazy_zeros_past_the_address_space_is_a_memory_error(shape):
    # 2^60 bytes: the kernel refuses the mapping; 2^73 bytes: no length
    # Python can pass
    with pytest.raises(MemoryError, match="Unable to map"):
        grid.lazy_zeros(shape)


def test_interior_max_abs_ignores_boundary():
    arr = np.zeros((5, 5))
    arr[0, :] = 100.0
    arr[2, 2] = 3.0
    assert interior_max_abs(arr) == 3.0
