"""Exterior calculus on sampled forms: d, wedge, closedness, potentials."""

import tracemalloc

import numpy as np
import pytest

from pssframe import closedness_residual, potential
from pssframe import grid
from pssframe.grid import GridChart

from conftest import interior_max_abs, square_chart
from oracles import d_oneform, d_scalar, wedge


def test_d_scalar_exact_on_quadratics():
    chart = square_chart(11, 0.0, 2.0)
    x, y = chart.meshgrid()
    df = d_scalar(chart, x**2 - 3 * x * y + y)
    assert np.max(np.abs(df[0] - (2 * x - 3 * y))) < 1e-12
    assert np.max(np.abs(df[1] - (-3 * x + 1))) < 1e-12


def test_d_of_d_scalar_is_round_off():
    # centered difference operators along distinct axes commute node-by-node,
    # so the interior closedness defect of an exact gradient is pure round-off
    for n in (21, 81):
        chart = square_chart(n)
        x, y = chart.meshgrid()
        assert closedness_residual(chart, d_scalar(chart, np.sin(x) * np.exp(y))) < 1e-12


def test_d_oneform_orientation():
    # d(a dx + b dy) = (dB/dx - dA/dy) dx^dy with the (0,1) coefficient
    # stored for the ordered pair
    chart = square_chart(11, 0.0, 1.0)
    x, y = chart.meshgrid()
    theta = np.array([-y, np.zeros(chart.shape)])
    dtheta = d_oneform(chart, theta)
    assert dtheta.shape == (1,) + chart.counts
    assert np.max(np.abs(dtheta[0] - 1.0)) < 1e-12
    assert closedness_residual(chart, theta) == pytest.approx(1.0)


def test_wedge_antisymmetry_and_bilinearity(rng):
    chart = square_chart(9)
    def rand_form():
        return rng.standard_normal((2,) + chart.shape)
    a, b, c = rand_form(), rand_form(), rand_form()
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.max(np.abs(ab + ba)) < 1e-14
    assert np.max(np.abs(wedge(a, a))) < 1e-14
    lhs = wedge(a, 2.0 * b) + wedge(a, c)
    rhs = wedge(a, 2.0 * b + c)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_wedge_matches_hand_value():
    chart = square_chart(5, 0.0, 1.0)
    x, y = chart.meshgrid()
    one = np.ones(chart.shape)
    alpha = np.array([one, 2 * one])          # dx + 2 dy
    beta = np.array([x, y])                   # x dx + y dy
    got = wedge(alpha, beta)[0]
    assert np.max(np.abs(got - (y - 2 * x))) < 1e-14


def test_potential_recovers_antiderivative_exactly_for_affine_coeffs():
    # trapezoid quadrature is exact on degree-1 coefficient lines, so the
    # staircase potential of (2x) dx + 3 dy reproduces x^2 + 3y bit-near
    chart = square_chart(21, -1.0, 3.0)
    x, y = chart.meshgrid()
    theta = np.array([2 * x, 3 * np.ones(chart.shape)])
    G, path_residual = potential(chart, theta, base="center")
    base = chart.base_index("center")
    want = x**2 + 3 * y
    want = want - want[base]
    assert path_residual < 1e-13
    assert np.max(np.abs(G - want)) < 1e-12
    assert abs(G[base]) == 0.0


def test_potential_converges_for_smooth_closed_form():
    errs, paths = [], []
    for n in (17, 33, 65):
        chart = square_chart(n)
        x, y = chart.meshgrid()
        g = np.sin(x) * np.cosh(y)
        theta = np.array([np.cos(x) * np.cosh(y), np.sin(x) * np.sinh(y)])
        G, path_residual = potential(chart, theta, base="origin")
        errs.append(np.max(np.abs(G - (g - g[0, 0]))))
        paths.append(path_residual)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    path_orders = np.log2(np.array(paths[:-1]) / np.array(paths[1:]))
    assert np.all(orders > 1.8)
    assert np.all(path_orders > 1.8)
    assert paths[-1] < 2e-4


def test_potential_flags_non_closed_input():
    chart = square_chart(41, 0.0, 2.0)
    x, y = chart.meshgrid()
    theta = np.array([-y, np.zeros(chart.shape)])
    _, path_residual = potential(chart, theta)
    # two staircase orders differ by the enclosed dtheta flux, an O(1) area
    assert path_residual > 0.1


def test_d_oneform_three_axes():
    from pssframe import GridChart

    chart3 = GridChart((0.0, 0.0, 0.0), (0.125, 0.125, 0.125), (9, 9, 9))
    x, y, z = chart3.meshgrid()
    theta = np.array([y * z, np.zeros(chart3.shape), x])
    dtheta = d_oneform(chart3, theta)
    # d(yz dx + 0 dy + x dz) = -z dx^dy + (1 - y) dx^dz + 0 dy^dz, pairs
    # in row-major order (0, 1), (0, 2), (1, 2)
    assert np.max(np.abs(dtheta[0] + z)) < 1e-12
    assert np.max(np.abs(dtheta[1] - (1 - y))) < 1e-12
    assert np.max(np.abs(dtheta[2])) < 1e-12


def _full_grid_closedness(chart, theta):
    # the residual as it was formed: the full-grid d(theta), one-sided
    # boundary rows included, then its interior max
    return float(np.max([interior_max_abs(c) for c in d_oneform(chart, theta)]))


@pytest.mark.parametrize("counts", [(17, 13), (9, 11, 7), (5, 6, 4, 7)])
def test_interior_closedness_is_the_full_grid_residual_bit_for_bit(rng, counts):
    dim = len(counts)
    chart = GridChart((0.1,) * dim, tuple(0.05 + 0.03 * k for k in range(dim)), counts)
    for _ in range(8):
        theta = rng.standard_normal((dim,) + counts)
        assert closedness_residual(chart, theta) == _full_grid_closedness(chart, theta)
    coords = chart.meshgrid()
    smooth = np.array([np.sin(coords[k] * coords[-1 - k]) for k in range(dim)])
    assert closedness_residual(chart, smooth) == _full_grid_closedness(chart, smooth)


@pytest.mark.parametrize("node", [(1, 3, 3, 2), (1, 0, 3, 2)], ids=["interior", "boundary"])
def test_interior_closedness_of_a_nan_form_is_nan(rng, node):
    # a boundary NaN of theta_2 reaches d(theta) at the interior node next
    # to it through the central difference along the first axis
    chart = GridChart((0.0, 0.0, 0.0), (0.1, 0.2, 0.1), (6, 7, 5))
    values = rng.standard_normal((3,) + chart.counts)
    values[node] = np.nan
    assert np.isnan(closedness_residual(chart, values))
    assert np.isnan(_full_grid_closedness(chart, values))


def _reference_potential(chart, theta, base="center"):
    """`potential` with its own staircase walker, as it was written before the
    walker was shared with the sweeps: the region of each axis tracked by the
    axes still pinned at the base, and a cumulative trapezoid per block."""
    base_idx = chart.base_index(base)

    def line_integral(f, axis, b, spacing):
        def sl(part):
            idx = [slice(None)] * f.ndim
            idx[axis] = part
            return tuple(idx)

        seg = 0.5 * spacing * (f[sl(slice(None, -1))] + f[sl(slice(1, None))])
        out = np.zeros_like(f)
        np.cumsum(seg, axis=axis, out=out[sl(slice(1, None))])
        out -= out[sl(slice(b, b + 1))]
        return out

    def staircase(axis_order):
        g = np.zeros(chart.counts)
        fixed = {k: base_idx[k] for k in range(chart.dim)}
        for axis in axis_order:
            region = tuple(
                slice(None) if k not in fixed or k == axis else slice(fixed[k], fixed[k] + 1)
                for k in range(chart.dim)
            )
            incr = line_integral(
                theta[axis][region], axis, base_idx[axis], chart.spacing[axis]
            )
            prev_region = tuple(
                slice(base_idx[axis], base_idx[axis] + 1) if k == axis else region[k]
                for k in range(chart.dim)
            )
            g[region] = g[prev_region] + incr
            del fixed[axis]
        return g

    order = list(range(chart.dim))
    g_fwd = staircase(order)
    return g_fwd, float(np.max(np.abs(g_fwd - staircase(order[::-1]))))


def _slab_cases(cases):
    """Each case whole and filled in slabs of at most 512 bytes (`grid._SLAB_BYTES`)."""
    return [
        pytest.param(*values, slab_bytes, id=name + suffix)
        for suffix, slab_bytes in (("", 1 << 62), ("-slabbed", 512))
        for name, values in cases
    ]


@pytest.mark.parametrize(
    "counts, slab_bytes",
    _slab_cases([("counts0", [(17, 13)]), ("counts1", [(9, 11, 7)]), ("counts2", [(5, 6, 4, 7)])]),
)
@pytest.mark.parametrize("base", ["center", "origin", "off-centre"])
def test_potential_walks_the_staircase_of_the_old_walker_bit_for_bit(
    monkeypatch, rng, counts, base, slab_bytes
):
    monkeypatch.setattr(grid, "_SLAB_BYTES", slab_bytes)
    dim = len(counts)
    chart = GridChart((0.3,) * dim, tuple(0.04 + 0.03 * k for k in range(dim)), counts)
    if base == "off-centre":
        base = tuple(c // 3 + k % 2 for k, c in enumerate(counts))
    coords = chart.meshgrid()
    smooth = [np.cos(coords[k]) * np.exp(coords[-1 - k]) for k in range(dim)]
    for values in [rng.standard_normal((dim,) + counts) for _ in range(3)] + [smooth]:
        G, path_residual = potential(chart, values, base)
        want_G, want_path = _reference_potential(chart, values, base)
        assert np.array_equal(G, want_G)
        assert path_residual == want_path


@pytest.mark.parametrize(
    "counts, node, slab_bytes",
    _slab_cases(
        [("counts0-node0", [(17, 13), (4, 2)]), ("counts1-node1", [(9, 11, 7), (2, 9, 1)])]
    ),
)
def test_nan_read_only_by_the_reversed_staircase_gives_nan_path_residual(
    monkeypatch, rng, counts, node, slab_bytes
):
    # a dx_0 coefficient off the base line of axis 0: the forward staircase
    # never reads it, the reversed one's last block does
    monkeypatch.setattr(grid, "_SLAB_BYTES", slab_bytes)
    dim = len(counts)
    chart = GridChart((0.0,) * dim, (0.1,) * dim, counts)
    values = rng.standard_normal((dim,) + counts)
    values[(0,) + node] = np.nan
    G, path_residual = potential(chart, values)
    assert np.isfinite(G).all()
    assert np.isnan(path_residual)


# tracemalloc peak in bytes of potential on a 257^2 chart: the primitive,
# one coefficient block and its trapezoid terms, and the streamed reverse
# sweep's buffer (1,718,155 while potential walked its own staircases)
POTENTIAL257_PEAK = 1_718_155


def test_potential_holds_one_primitive_and_one_block():
    chart = GridChart((0.5, -2.0), (3.5 / 256, 4.0 / 256), (257, 257))
    x, t = chart.meshgrid()
    theta = np.stack([np.cos(x) * np.exp(0.1 * t), 0.3 * np.sin(t + x)])
    tracemalloc.start()
    try:
        potential(chart, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= POTENTIAL257_PEAK
