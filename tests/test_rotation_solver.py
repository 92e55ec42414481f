"""Frame-rotation solves: exactness, convergence, equivariance, gates."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from pssframe import (
    GridChart,
    expm_skew,
    frame_change,
    solve_L_nd,
    solve_phi_2d,
    special_coordinates_check,
)
from pssframe import grid, rotation_solver
from pssframe.errors import StructureGateError
from pssframe.grid import _streamed_compat, _sweep, midpoints
from pssframe.models import sg_forms, sg_solution
from pssframe.rotation_solver import (
    AXIAL_KERNELS,
    MATRIX_KERNELS,
    _axial_fill,
    _dexpinv_axial,
    _matrix_fill,
    _affine_rows,
    _rodrigues,
    _solve_L_once,
    additive_kernels,
    affine_fill,
    affine_line,
    angle_rhs,
    linear_fills,
    rkmk4_fill,
    rkmk4_step,
    sweep_linear,
    sweep_scalar,
)

from conftest import (
    cosh_metric_frame,
    exp_metric_frame,
    flat_frame,
    half_space_frame,
    igsge_frame,
    max_bracket,
    rotated_l0,
    varying_rotation_frame,
)


def expm_reference(a, terms=40):
    """Plain truncated exponential series (reference for small norms)."""
    out = np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy()
    term = out.copy()
    for k in range(1, terms):
        term = np.matmul(term, a) / k
        out = out + term
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expm_skew_matches_series(n, rng):
    a = rng.standard_normal((60, n, n))
    a = 0.8 * (a - np.swapaxes(a, -1, -2))
    got = expm_reference(a)
    assert np.max(np.abs(expm_skew(a) - got)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expm_skew_is_orthogonal_for_large_angles(n, rng):
    a = rng.standard_normal((40, n, n)) * 5.0
    a = a - np.swapaxes(a, -1, -2)
    q = expm_skew(a)
    gram = np.matmul(q, np.swapaxes(q, -1, -2))
    assert np.max(np.abs(gram - np.eye(n))) < 1e-13
    assert np.allclose(np.linalg.det(q), 1.0, atol=1e-13)


def test_expm_skew_two_by_two_closed_form(rng):
    angles = rng.uniform(-10, 10, size=25)
    a = np.zeros((25, 2, 2))
    a[:, 1, 0] = angles
    a[:, 0, 1] = -angles
    got = expm_skew(a)
    assert np.max(np.abs(got[:, 0, 0] - np.cos(angles))) < 1e-15
    assert np.max(np.abs(got[:, 1, 0] - np.sin(angles))) < 1e-15


def test_expm_skew_small_angle_branch():
    w = np.array([1e-9, -2e-9, 0.5e-9])
    a = np.array(
        [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
    )
    got = expm_skew(a)
    assert np.max(np.abs(got - (np.eye(3) + a))) < 1e-17


@pytest.mark.parametrize("axes_order", [(0, 1), (1, 0)])
def test_affine_sweep_matches_the_stepwise_sweep(axes_order):
    # smooth linear transport y' = a y + b along each axis; the base is
    # interior, so both axes are stepped forward and backward
    chart = GridChart((0.0, -1.0), (1.0 / 32, 1.0 / 12), (33, 25))
    x, t = chart.meshgrid()
    slopes = (np.cos(x + t), 0.5 - x * t)
    sources = (np.sin(2.0 * x) * t, np.exp(-x) + t**2)
    base = (13, 9)

    def rhs(s, y):
        return s[0] * y + s[1]

    fields = [[slopes[axis], sources[axis]] for axis in (0, 1)]
    stepwise = sweep_scalar(chart, base, axes_order, 0.7, fields, rhs)
    fills = linear_fills(chart, base, axes_order, slopes)
    affine = sweep_linear(chart, base, fills, 0.7, sources)
    assert np.max(np.abs(affine - stepwise)) <= 1e-13 * np.max(np.abs(stepwise))
    assert affine[base] == 0.7


def _flat_sweep_scalar(chart, base, axes_order, init_value, node_fields, rhs):
    # sweep_scalar as it handed every block the fields of all axes, with
    # rhs(axis, samples, y) picking its own

    def system(axis, take):
        fill = rkmk4_fill(additive_kernels(lambda s, v: rhs(axis, s, v)))
        return [take(f) for f in node_fields], fill

    return _sweep(chart, base, axes_order, init_value, system)


@pytest.mark.parametrize("axes_order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("base", [(8, 8), (0, 5), (16, 0)])
def test_per_axis_fields_sweep_as_the_flat_fields(axes_order, base):
    fd = cosh_metric_frame(17)
    om1, om2, om12 = fd.omega[0], fd.omega[1], fd.connection[0]
    flat = [om1[0], om2[0], om12[0], om1[1], om2[1], om12[1]]

    def rhs(axis, s, y):
        w1, w2, w12 = s[3 * axis : 3 * axis + 3]
        return w12 + np.sin(y) * w1 + np.cos(y) * w2

    want = _flat_sweep_scalar(fd.chart, base, axes_order, 0.4, flat, rhs)
    got = sweep_scalar(fd.chart, base, axes_order, 0.4, [flat[:3], flat[3:]], angle_rhs)
    assert np.array_equal(got, want)


def _reference_rkmk4_fill(kernels, h, blk, b, node, mid):
    # the fill as it stepped every block, lines of one node included:
    # one rkmk4_step per line, on (1-element) arrays
    for i in range(b, blk.shape[0] - 1):
        lo, md, hi = [f[i] for f in node], [f[i] for f in mid], [f[i + 1] for f in node]
        blk[i + 1] = rkmk4_step(h, blk[i], lo, md, hi, kernels)
    for i in range(b, 0, -1):
        lo, md, hi = [f[i] for f in node], [f[i - 1] for f in mid], [f[i - 1] for f in node]
        blk[i - 1] = rkmk4_step(-h, blk[i], lo, md, hi, kernels)


def _affine_step_maps(h, lo, mid, hi):
    # the affine step maps as one function of the (a, b) samples: A one step
    # from 1 on y' = a y, B one step from 0 on y' = a y + b
    A = rkmk4_step(h, 1.0, lo[:1], mid[:1], hi[:1], additive_kernels(lambda s, y: s[0] * y))
    B = rkmk4_step(h, 0.0, lo, mid, hi, additive_kernels(lambda s, y: s[0] * y + s[1]))
    return A, B


def _reference_affine_fill(h, blk, b, node, mid):
    # the affine fill as it ran every block: A * previous + B into a new array
    A, B = _affine_step_maps(
        h, [f[b:-1] for f in node], [f[b:] for f in mid], [f[b + 1 :] for f in node]
    )
    for i in range(b, blk.shape[0] - 1):
        blk[i + 1] = A[i - b] * blk[i] + B[i - b]
    A, B = _affine_step_maps(
        -h, [f[1 : b + 1] for f in node], [f[:b] for f in mid], [f[:b] for f in node]
    )
    for i in range(b, 0, -1):
        blk[i - 1] = A[i - 1] * blk[i] + B[i - 1]


def _per_order_affine_fill(h, blk, b, node):
    # the in-place affine fill as it ran per order, node = (slope, source)
    # blocks: every call formed the slope's maps again
    mid = [midpoints(f, 0) for f in node]
    up = _affine_step_maps(
        h, [f[b:-1] for f in node], [f[b:] for f in mid], [f[b + 1 :] for f in node]
    )
    A, B = _affine_step_maps(
        -h, [f[1 : b + 1] for f in node], [f[:b] for f in mid], [f[:b] for f in node]
    )
    down = A[::-1], B[::-1]
    if blk.shape[1:] == (1,):
        y = blk[b, 0].item()
        blk[b:, 0] = list(affine_line(*up, y))
        blk[b::-1, 0] = list(affine_line(*down, y))
    else:
        rows = list(blk)
        _affine_rows(*up, rows[b:])
        _affine_rows(*down, rows[b::-1])


def _per_order_sweep_linear(chart, base, axes_order, init_value, slopes, sources):
    # the linear sweep as each order ran it, slope blocks and gains included

    def system(axis, take):
        return [take(slopes[axis]), take(sources[axis])], _per_order_affine_fill

    return _sweep(chart, base, axes_order, init_value, system)


def _fill_blocks(rng, fields, width, base):
    node = [np.ascontiguousarray(rng.uniform(-1.5, 1.5, (23, width))) for _ in range(fields)]
    mid = [midpoints(f, 0) for f in node]
    blk = np.empty((23, width))
    blk[base] = rng.uniform(-1.0, 1.0, width)
    return node, mid, blk


def _angle_field(s, y):
    return s[2] + np.sin(y) * s[0] + np.cos(y) * s[1]


@pytest.mark.parametrize("base", [0, 9, 22])
def test_one_node_rkmk4_fill_is_bitwise_the_array_loop(rng, base):
    node, mid, blk = _fill_blocks(rng, 3, 1, base)
    expected = blk.copy()
    kernels = additive_kernels(_angle_field)
    rkmk4_fill(kernels)(0.07, blk, base, node)
    _reference_rkmk4_fill(kernels, 0.07, expected, base, node, mid)
    assert np.array_equal(blk, expected)


def _wide_block(rng, layout, m):
    """Block fill, its kernels, the view of a state block the kernels see,
    coefficient blocks and a base line of one row layout, m lines long."""
    if layout == "scalar":
        kernels = additive_kernels(_angle_field)
        node = [rng.uniform(-1.5, 1.5, (m, 5)) for _ in range(3)]
        line = rng.uniform(-1.0, 1.0, 5)
        return rkmk4_fill(kernels), kernels, _same, node, line
    # lines of a 3D block (3 x 2 nodes) and of a 4D block (2 x 1 x 3 nodes);
    # the coefficients grow along the block, so that some n = 4 steps need
    # squarings in expm_skew and others do not
    nodes, n = ((3, 2), 3) if layout == "axial" else ((2, 1, 3), 4)
    grow = np.linspace(1.0, 12.0, m).reshape((m,) + (1,) * (len(nodes) + 2))
    line = np.linalg.qr(rng.normal(size=nodes + (n, n)))[0]
    if layout == "axial":
        node = [rng.uniform(-1.5, 1.5, (m, 3, 2) + nodes) * grow]
        return _axial_fill, AXIAL_KERNELS, _component_major, node, line
    w = rng.uniform(-1.5, 1.5, (m,) + nodes + (n, n)) * grow
    om = rng.uniform(-1.5, 1.5, (m,) + nodes + (n,)) * grow[..., 0]
    node = [om, w - np.swapaxes(w, -1, -2)]
    return _matrix_fill, MATRIX_KERNELS, _same, node, line


def _same(blk):
    return blk


def _component_major(blk):
    return np.moveaxis(blk, (-2, -1), (1, 2))


@pytest.mark.parametrize("where", ["first", "low", "centre", "high", "last"])
@pytest.mark.parametrize("m", [9, 10])
@pytest.mark.parametrize("layout", ["scalar", "axial", "matrix"])
def test_folded_rkmk4_fill_is_bitwise_the_unfolded_march(rng, layout, m, where):
    b = {"first": 0, "low": 2, "centre": (m - 1) // 2, "high": m - 3, "last": m - 1}[where]
    fill, kernels, view, node, line = _wide_block(rng, layout, m)
    mid = [midpoints(f, 0) for f in node]
    # a strided block, as `_sweep` hands the fill for every axis but the first
    blk = np.swapaxes(np.empty(line.shape[:1] + (m,) + line.shape[1:]), 0, 1)
    blk[b] = line
    expected = np.ascontiguousarray(blk)
    fill(0.07, blk, b, node)
    _reference_rkmk4_fill(kernels, 0.07, view(expected), b, node, mid)
    assert np.array_equal(blk, expected)


def _written_out_axial_element(samples, L):
    # the n = 3 algebra element with every 3 x 3 product written out
    (p,) = samples
    a = L[:, 0] * p[0, 1] + L[:, 1] * p[1, 1] + L[:, 2] * p[2, 1]
    lom = L[1:, 0] * p[0, 0] + L[1:, 1] * p[1, 0] + L[1:, 2] * p[2, 0]
    a[1] -= lom[1]
    a[2] += lom[0]
    return a


def _written_out_rodrigues(w):
    # Rodrigues' formula entry by entry, as R[i, j] = (...) row expressions
    w1, w2, w3 = w
    t2 = w1 * w1 + w2 * w2 + w3 * w3
    t = np.sqrt(t2)
    small = t < 1e-4
    tt = np.where(small, 1.0, t)
    s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / tt)
    c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(t)) / (tt * tt))
    d = 1.0 - c * t2
    return np.array(
        [
            [c * w1 * w1 + d, c * w1 * w2 - s * w3, c * w1 * w3 + s * w2],
            [c * w1 * w2 + s * w3, c * w2 * w2 + d, c * w2 * w3 - s * w1],
            [c * w1 * w3 - s * w2, c * w2 * w3 + s * w1, c * w3 * w3 + d],
        ]
    )


def _written_out_cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _written_out_dexpinv_axial(u, k):
    c1 = _written_out_cross(u, k)
    return k - 0.5 * c1 + _written_out_cross(u, c1) / 12.0


def _axial_layouts(rng):
    # component-major vectors (3, ...) as the kernels meet them: contiguous,
    # with the component axis innermost, and as strided folded lines; small
    # angles take the series branch, and a NaN must stay where it is
    w = rng.uniform(-1.5, 1.5, (3, 2, 5, 7))
    w[:, 0, 1] *= 1e-6
    w[1, 1, 2, 3] = np.nan
    inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(w, 0, -1)), -1, 0)
    return [w, inner, w[:, :, ::2], w[:, 0]]


def test_rodrigues_is_bitwise_the_written_out_formula(rng):
    for w in _axial_layouts(rng):
        assert np.array_equal(_rodrigues(w), _written_out_rodrigues(w), equal_nan=True)


def test_axial_dexpinv_is_bitwise_the_written_out_cross_products(rng):
    for u, k in zip(_axial_layouts(rng), _axial_layouts(rng)):
        got = _dexpinv_axial(0.1 * u, k)
        assert np.array_equal(got, _written_out_dexpinv_axial(0.1 * u, k), equal_nan=True)


def _written_out_axial_exp_mul(u, y):
    r = _written_out_rodrigues(u)
    out = np.empty(y.shape)
    for j in range(3):
        out[j] = r[j, 0] * y[0] + r[j, 1] * y[1] + r[j, 2] * y[2]
    return out


WRITTEN_OUT_KERNELS = (
    _written_out_axial_element,
    _written_out_dexpinv_axial,
    _written_out_axial_exp_mul,
)


@pytest.mark.parametrize("scale", [1.0, 1e-6], ids=["large", "small-angle"])
@pytest.mark.parametrize("det", [1.0, -1.0])
@pytest.mark.parametrize("nodes", [1, 2, 98])
def test_axial_kernels_are_bitwise_the_written_out_sums(rng, nodes, det, scale):
    # a block of lines of `nodes` nodes; base line 3 of 10 takes three
    # folded steps, then the upper half steps alone
    m, b = 10, 3
    line = np.linalg.qr(rng.normal(size=(nodes, 3, 3)))[0]
    line *= (det * np.sign(np.linalg.det(line)))[:, None, None]
    node = [rng.uniform(-1.5, 1.5, (m, 3, 2, nodes)) * scale]
    mid = [midpoints(f, 0) for f in node]
    blk = np.empty((m, nodes, 3, 3))
    blk[b] = line
    expected = blk.copy()
    _axial_fill(0.07, blk, b, node)
    written_out = rkmk4_fill(WRITTEN_OUT_KERNELS, fold_axis=2)
    written_out(0.07, np.moveaxis(expected, (-2, -1), (1, 2)), b, node)
    assert np.array_equal(blk, expected)
    # and each kernel on a folded line, a strided view as the fill sees it
    L = np.moveaxis(blk[b - 1 : b + 2 : 2], (0, -2, -1), (2, 0, 1))
    u = rng.uniform(-1.0, 1.0, (3, 2, nodes)) * scale
    p = np.moveaxis(node[0][b - 1 : b + 2 : 2], 0, 2)
    assert np.array_equal(AXIAL_KERNELS[0]([p], L), _written_out_axial_element([p], L))
    assert np.array_equal(AXIAL_KERNELS[2](u, L), _written_out_axial_exp_mul(u, L))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("base", [0, 9, 22])
def test_affine_fill_is_bitwise_the_array_loop(rng, base, width):
    node, mid, blk = _fill_blocks(rng, 2, width, base)
    expected = blk.copy()
    affine_fill(0.07, base, node[0])(0.07, blk, base, node[1:])
    _reference_affine_fill(0.07, expected, base, node, mid)
    assert np.array_equal(blk, expected)


@pytest.mark.parametrize("axes_order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("base", [(13, 9), (0, 9), (13, 0), (0, 0)])
def test_shared_fills_sweep_every_source_as_the_per_order_sweep(rng, axes_order, base):
    # one linear_fills serves several sources, as the hierarchy's orders
    # share order zero's slopes; every source gives the per-order sweep's bits
    chart = GridChart((0.0, -1.0), (1.0 / 32, 1.0 / 12), (33, 25))
    x, t = chart.meshgrid()
    slopes = (np.cos(x + t), 0.5 - x * t)
    fills = linear_fills(chart, base, axes_order, slopes)
    for k in range(3):
        sources = tuple(rng.uniform(-2.0, 2.0, chart.counts) for _ in range(2))
        start = rng.uniform(-1.0, 1.0)
        got = sweep_linear(chart, base, fills, start, sources)
        want = _per_order_sweep_linear(chart, base, axes_order, start, slopes, sources)
        assert np.array_equal(got, want)


def test_solve_is_exact_when_frame_is_already_special():
    # omega_12 + omega_2 = 0 holds node-by-node, so the update is zero and
    # every reported residual is exactly 0.0
    fd = exp_metric_frame(41)
    rep = solve_phi_2d(fd)
    assert rep.closed_residual == 0.0
    assert rep.compat_residual == 0.0
    assert rep.orth_residual == 0.0
    assert np.max(np.abs(rep.angle)) == 0.0
    assert np.max(np.abs(rep.theta1[0] - 1.0)) == 0.0
    assert np.max(np.abs(rep.theta1[1])) == 0.0
    assert rep.summary() == "solve: compat=0.000e+00 closed=0.000e+00 orth=0.000e+00"


def test_solve_phi_2d_convergence_frozen_values():
    # frozen reference residuals for the cosh-metric chart on [-1,1]^2
    want_closed = {41: 9.870440e-03, 81: 2.668011e-03, 161: 6.901934e-04}
    want_compat = {41: 2.700624e-07, 81: 1.672623e-08, 161: 1.040618e-09}
    closed = []
    for n, ref in want_closed.items():
        rep = solve_phi_2d(cosh_metric_frame(n))
        assert rep.closed_residual == pytest.approx(ref, rel=1e-5)
        assert rep.compat_residual == pytest.approx(want_compat[n], rel=1e-4)
        assert rep.orth_residual < 1e-14
        closed.append(rep.closed_residual)
    orders = np.log2(np.array(closed[:-1]) / closed[1:])
    assert np.all(orders > 1.8)  # second-order closedness
    compat = np.array(list(want_compat.values()))
    assert np.all(np.log2(compat[:-1] / compat[1:]) > 3.8)  # fourth-order sweeps


def test_matrix_and_angle_solvers_agree_in_two_dimensions():
    fd = cosh_metric_frame(81)
    rep_phi = solve_phi_2d(fd)
    rep_mat = solve_L_nd(fd)
    l11 = rep_mat.rotation[..., 0, 0]
    l21 = rep_mat.rotation[..., 1, 0]
    assert np.max(np.abs(l11 - np.cos(rep_phi.angle))) < 1e-12
    assert np.max(np.abs(l21 - np.sin(rep_phi.angle))) < 1e-12
    assert rep_mat.orth_residual < 1e-13
    for a in range(2):
        diff = rep_mat.theta1[a] - rep_phi.theta1[a]
        assert np.max(np.abs(diff)) < 1e-12


def test_solve_equivariance_under_constant_frame_rotation():
    # rotating the input coframe by a constant angle and shifting the initial
    # angle by the same amount reproduces the identical closed form
    from pssframe import frame_change

    fd = cosh_metric_frame(41)
    alpha = 0.35
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.broadcast_to(np.array([[c, -s], [s, c]]), fd.chart.counts + (2, 2))
    rotated = frame_change(fd, rot)

    rep = solve_phi_2d(fd, phi0=0.25)
    rep_rot = solve_phi_2d(rotated, phi0=0.25 - alpha)
    assert np.max(np.abs((rep.angle - alpha) - rep_rot.angle)) < 1e-12
    for a in range(2):
        diff = rep.theta1[a] - rep_rot.theta1[a]
        assert np.max(np.abs(diff)) < 1e-12


def test_solve_base_origin_variant():
    fd = cosh_metric_frame(41)
    rep = solve_phi_2d(fd, base="origin")
    assert rep.closed_residual < 2e-2
    assert rep.compat_residual < 1e-5
    base_angle = rep.angle[0, 0]
    assert base_angle == 0.0


def _kink_frame_65():
    return sg_forms(sg_solution(GridChart((-8.0, -8.0), (0.25, 0.25), (65, 65))))


@pytest.mark.parametrize(
    "case",
    [
        pytest.param((_kink_frame_65, solve_phi_2d, 0.0), id="kink-65^2"),
        pytest.param((lambda: igsge_frame(17), solve_L_nd, rotated_l0(3)), id="igsge-17^3"),
    ],
)
def test_theta1_does_not_depend_on_the_base_node(case):
    # a solve from base b, then solves from random bases b' started from the
    # first solve's rotation at b': both closed forms are the same up to the
    # two solves' own integrability certificates
    make_frame, solve, start = case
    fd = make_frame()
    rep = solve(fd, start)
    rotation_at = rep.angle if fd.dim == 2 else rep.rotation
    rng = np.random.default_rng(20260817)
    for _ in range(13):
        base = tuple(int(i) for i in rng.integers(0, fd.chart.counts))
        other = solve(fd, rotation_at[base], base)
        gap = np.max(np.abs(rep.theta1 - other.theta1))
        assert gap <= rep.compat_residual + other.compat_residual, base


def test_gate_blocks_flat_frame():
    fd = flat_frame(21)
    with pytest.raises(StructureGateError):
        solve_phi_2d(fd)
    with pytest.raises(StructureGateError):
        solve_L_nd(fd)


def test_gate_threshold_scales_with_gate_factor():
    fd = flat_frame(21)
    rep = solve_phi_2d(fd, gate_factor=1e12)  # absurd factor lets it through
    assert rep.structure[1] == pytest.approx(1.0)
    assert rep.gate_threshold > 1.0
    with pytest.raises(StructureGateError):
        solve_phi_2d(fd, gate_factor=10.0)


def test_gate_reports_pass_threshold_on_good_frames():
    fd = cosh_metric_frame(41)
    rep = solve_phi_2d(fd)
    assert np.isfinite(rep.gate_threshold)
    assert max(rep.structure) <= rep.gate_threshold


# igsge 17^3 from rotated_l0(3), solved with the skew-matrix RKMK4 kernels
# that n = 3 used before it moved to axial vectors
IGSGE17_COMPAT = 4.577953499766696e-05
IGSGE17_CLOSED = 0.0010382963055847773
IGSGE17_CORNERS = {
    (0, 0, 0): [
        [0.9942091150309189, -0.10385027067651643, 0.027628913656725852],
        [0.016382299725964274, -0.10762861525978054, -0.9940561862555607],
        [0.10620666572831113, 0.9887523463727793, -0.10530404406858465],
    ],
    (0, 0, -1): [
        [0.9938161882454746, -0.11089678485221888, -0.005593486450899611],
        [0.049639118946518145, 0.48877930793935565, -0.8709941136428752],
        [0.09932442726464187, 0.865330394265546, 0.49126160740361674],
    ],
    (0, -1, 0): [
        [0.996125273311423, -0.0859807008866481, 0.018486723486959632],
        [0.01758239707600487, -0.011263258191801049, -0.9997819753966196],
        [0.08617017571819299, 0.9962331344067744, -0.00970786932082276],
    ],
    (0, -1, -1): [
        [0.995953220798395, -0.08979856904830895, -0.0036604614708015677],
        [0.03939944747249127, 0.47285999362348624, -0.8802562751660784],
        [0.08077663969345057, 0.8765498522202109, 0.47448444764034314],
    ],
    (-1, 0, 0): [
        [-0.9786962041526832, -0.19841399256237238, 0.052779044445576496],
        [0.03130710609916875, -0.39827966554358285, -0.9167296074209598],
        [0.2029128016780228, -0.895547427873003, 0.39600656477541435],
    ],
    (-1, 0, -1): [
        [-0.9800399228282093, -0.19854873410922122, -0.010007489520564915],
        [0.08886703710263874, -0.3925078367514497, -0.915445382207642],
        [0.17783250372042977, -0.8980623576747464, 0.4023177877601238],
    ],
    (-1, -1, 0): [
        [-0.9683003373950417, -0.24420897399036717, 0.05250174876344993],
        [0.04994405485627533, -0.3952223808633064, -0.9172267228168034],
        [0.24474486304141632, -0.8855287949509673, 0.3948907511293807],
    ],
    (-1, -1, -1): [
        [-0.9696299688978537, -0.24437394268895365, -0.009954875679971878],
        [0.10721395728429327, -0.3881168472987568, -0.9153526534654911],
        [0.21982468191399562, -0.8886206665262348, 0.4025300240278741],
    ],
}


def test_three_dimensional_solve_matches_matrix_kernel_reference():
    rep = solve_L_nd(igsge_frame(17), rotated_l0(3))
    assert abs(rep.compat_residual - IGSGE17_COMPAT) <= 1e-13
    assert abs(rep.closed_residual - IGSGE17_CLOSED) <= 1e-13
    for corner, want in IGSGE17_CORNERS.items():
        assert np.max(np.abs(rep.rotation[corner] - np.array(want))) <= 1e-13


# tracemalloc peaks in bytes of solve_L_nd(igsge_frame(m), rotated_l0(3))
# with the reverse-order certificate streamed: at 25^3 every block is whole,
# at 49^3 (33.9 MB while the solve held the reverse state whole) the
# full-volume blocks are filled in slabs and L is the one full-grid state.
# Measured from empty free lists: 4,490,976 and 16,420,742 while each block
# fill copied its base line, 4,445,976 and 16,360,766 without the copy
IGSGE25_SOLVE_PEAK = 4_450_000
IGSGE49_SOLVE_PEAK = 16_400_000


def _traced_solve_peak(fd):
    # an untraced solve of the same frame makes every first-call
    # allocation, and a full collection empties the interpreter's free
    # lists, whose small objects would otherwise escape the trace in a
    # number that depends on the tests run before
    solve_L_nd(fd, rotated_l0(3))
    gc.collect()
    tracemalloc.start()
    try:
        solve_L_nd(fd, rotated_l0(3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_dimensional_solve_holds_no_block_twice():
    assert _traced_solve_peak(igsge_frame(25)) <= IGSGE25_SOLVE_PEAK


def test_three_dimensional_solve_holds_one_full_grid_state():
    assert _traced_solve_peak(igsge_frame(49)) <= IGSGE49_SOLVE_PEAK


def test_theta1_skipping_zero_coframe_rows_is_the_dense_sum_bit_for_bit():
    # igsge coframes are diagonal, so six of the nine rows of omega vanish
    fd = igsge_frame(17)
    rep = solve_L_nd(fd, rotated_l0(3))
    L = rep.rotation
    want = np.zeros_like(rep.theta1)
    for k in range(3):
        want += L[..., 0, k] * fd.omega[k]
    assert np.array_equal(rep.theta1, want)
    assert np.array_equal(np.signbit(rep.theta1), np.signbit(want))


def _whole_sweeps_compat(fd, L0):
    # the certificate as it was formed: both sweeps whole, then max |L - L_ex|
    base, order = fd.chart.base_index("center"), tuple(range(fd.dim))
    L = _solve_L_once(fd, L0, base, order)
    L_ex = _solve_L_once(fd, L0, base, order[::-1])
    return float(np.max(np.abs(L - L_ex)))


def _varying4(m):
    Q = rotated_l0(4)
    K = Q[:, 1:2] @ Q[:, :1].T - Q[:, :1] @ Q[:, 1:2].T
    fd, R = varying_rotation_frame(m, K, (1.0, 0.75, -0.5, 0.25))
    return fd, R[fd.chart.base_index("center")].T


@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(lambda: (cosh_metric_frame(33), rotated_l0(2)), id="n2"),
        pytest.param(lambda: (igsge_frame(17), rotated_l0(3)), id="n3"),
        pytest.param(lambda: _varying4(9), id="n4"),
    ],
)
def test_streamed_certificate_is_the_whole_sweeps_max(monkeypatch, frame):
    fd, L0 = frame()
    got = solve_L_nd(fd, L0).compat_residual
    monkeypatch.setattr(grid, "_SLAB_BYTES", 1 << 62)
    assert got == _whole_sweeps_compat(fd, L0)


def test_streamed_angle_certificate_is_the_whole_sweeps_max():
    fd = cosh_metric_frame(33)
    om1, om2, om12 = fd.omega[0], fd.omega[1], fd.connection[0]
    fields = [[om1[axis], om2[axis], om12[axis]] for axis in (0, 1)]
    base = fd.chart.base_index("center")
    phi = sweep_scalar(fd.chart, base, (0, 1), 0.3, fields, angle_rhs)
    phi_ex = sweep_scalar(fd.chart, base, (1, 0), 0.3, fields, angle_rhs)
    assert solve_phi_2d(fd, 0.3).compat_residual == float(np.max(np.abs(phi - phi_ex)))


def _report_arrays(rep):
    residuals = (rep.compat_residual, rep.closed_residual, rep.orth_residual)
    return [rep.rotation, rep.theta1, np.array(residuals)] + (
        [] if rep.angle is None else [rep.angle]
    )


@pytest.mark.parametrize(
    "solve, exact",
    [
        pytest.param(lambda: solve_phi_2d(cosh_metric_frame(33), 0.3), True, id="angle-2d"),
        pytest.param(lambda: solve_L_nd(cosh_metric_frame(33), rotated_l0(2)), True, id="n2"),
        pytest.param(lambda: solve_L_nd(igsge_frame(13), rotated_l0(3)), True, id="n3"),
        pytest.param(lambda: solve_L_nd(*_varying4(9)), False, id="n4"),
    ],
)
def test_slabbed_sweeps_give_the_whole_block_fill(monkeypatch, solve, exact):
    whole = _report_arrays(solve())
    widths = []

    def recorded(*args):
        slabs = grid_slabs(*args)
        widths.extend(s[-1].stop - s[-1].start for s in slabs if s)
        return slabs

    grid_slabs = grid._slabs
    monkeypatch.setattr(grid, "_SLAB_BYTES", 2048)
    monkeypatch.setattr(grid, "_slabs", recorded)
    slabbed = _report_arrays(solve())
    assert len(widths) > 4 and min(widths) >= 2  # slabbed, and never one node wide
    for got, want in zip(slabbed, whole):
        if exact:
            assert np.array_equal(got, want)
        else:  # n >= 4: expm_skew scales by the max norm of the stack it is given
            assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("axes_order", [(0, 1), (1, 0)])
def test_slabbed_linear_sweep_gives_the_whole_block_fill(monkeypatch, rng, axes_order):
    chart = GridChart((0.0, -1.0), (1.0 / 32, 1.0 / 12), (33, 25))
    x, t = chart.meshgrid()
    slopes = (np.cos(x + t), 0.5 - x * t)
    sources = tuple(rng.uniform(-2.0, 2.0, chart.counts) for _ in range(2))
    base = (13, 9)
    whole = sweep_linear(chart, base, linear_fills(chart, base, axes_order, slopes), 0.4, sources)
    monkeypatch.setattr(grid, "_SLAB_BYTES", 1024)
    fills = linear_fills(chart, base, axes_order, slopes)
    assert len(fills) > 2
    assert np.array_equal(sweep_linear(chart, base, fills, 0.4, sources), whole)


@pytest.mark.parametrize("slab_bytes", [4 << 20, 1024], ids=["whole", "slabbed"])
@pytest.mark.parametrize("axes_order", [(0, 1), (1, 0)])
def test_streamed_linear_certificate_is_the_whole_sweeps_max(monkeypatch, rng, slab_bytes, axes_order):
    chart = GridChart((0.0, -1.0), (1.0 / 32, 1.0 / 12), (33, 25))
    x, t = chart.meshgrid()
    slopes = (np.cos(x + t), 0.5 - x * t)
    sources = tuple(rng.uniform(-2.0, 2.0, chart.counts) for _ in range(2))
    base = (13, 9)
    monkeypatch.setattr(grid, "_SLAB_BYTES", slab_bytes)
    exchanged = axes_order[::-1]
    sol = sweep_linear(chart, base, linear_fills(chart, base, axes_order, slopes), 0.4, sources)
    sol_ex = sweep_linear(chart, base, linear_fills(chart, base, exchanged, slopes), 0.4, sources)
    fills = linear_fills(chart, base, exchanged, slopes, streamed=True)
    got = _streamed_compat(sol, lambda sink: sweep_linear(chart, base, fills, 0.4, sources, sink))
    assert got == float(np.max(np.abs(sol - sol_ex)))
    out = np.full(chart.counts, np.nan)
    fills = linear_fills(chart, base, axes_order, slopes)
    assert sweep_linear(chart, base, fills, 0.4, sources, out=out) is out
    assert np.array_equal(out, sol)


@pytest.mark.parametrize("slab_bytes", [4 << 20, 2048], ids=["whole", "slabbed"])
@pytest.mark.parametrize(
    "solve, node",
    [
        pytest.param(lambda fd: solve_phi_2d(fd, 0.3, gate_factor=None), (0, 0), id="angle-2d"),
        pytest.param(
            lambda fd: solve_L_nd(fd, rotated_l0(2), gate_factor=None), (32, 32), id="n2"
        ),
        pytest.param(
            lambda fd: solve_L_nd(fd, rotated_l0(3), gate_factor=None), (0, 12, 12), id="n3"
        ),
    ],
)
def test_non_finite_value_in_the_reverse_sweep_gives_nan_compat(monkeypatch, slab_bytes, solve, node):
    # a dx_1 coefficient off the forward sweep's first line: only the reverse
    # sweep's last block reads it, so L stays finite and L_ex does not
    fd = cosh_metric_frame(33) if len(node) == 2 else igsge_frame(13)
    fd.omega[0, 0][node] = np.nan
    monkeypatch.setattr(grid, "_SLAB_BYTES", slab_bytes)
    rep = solve(fd)
    assert np.isnan(rep.compat_residual)
    assert np.isfinite(rep.closed_residual) and np.isfinite(rep.orth_residual)


def test_three_dimensional_solve_is_reflection_equivariant():
    # D = diag(1, 1, -1) fixes e_1, so D L solves the equation whenever L
    # does, with the same first row; an improper start must keep det = -1
    fd = igsge_frame(17)
    reflect = np.diag([1.0, 1.0, -1.0])
    L0 = rotated_l0(3)
    rep = solve_L_nd(fd, L0)
    rep_d = solve_L_nd(fd, reflect @ L0)
    assert np.max(np.abs(reflect @ rep.rotation - rep_d.rotation)) <= 1e-13
    for a in range(3):
        diff = rep.theta1[a] - rep_d.theta1[a]
        assert np.max(np.abs(diff)) <= 1e-13


@pytest.mark.parametrize("n, m", [(3, 13), (4, 9)])
@pytest.mark.parametrize("proper", [True, False])
def test_solve_L_nd_recovers_constant_rotation_of_half_space(n, m, proper):
    # theta = R omega with the special half-space coframe omega: the exact
    # answer is L = R^T everywhere and theta_1 = dx_1
    fd = half_space_frame(n, m)
    R = rotated_l0(n, seed=7)
    if not proper:
        R = np.diag([1.0] * (n - 1) + [-1.0]) @ R
    rotated = frame_change(fd, np.broadcast_to(R, fd.chart.counts + (n, n)))
    rep = solve_L_nd(rotated, R.T)
    assert np.max(np.abs(rep.rotation - R.T)) <= 1e-13
    for a in range(n):
        want = 1.0 if a == 0 else 0.0
        assert np.max(np.abs(rep.theta1[a] - want)) <= 1e-13


def varying_rotation_order(K, weights, sizes):
    """Observed order of max |L - R^T| of `varying_rotation_frame` solves."""
    errors, spacings = [], []
    for m in sizes:
        fd, R = varying_rotation_frame(m, K, weights)
        base = fd.chart.base_index("center")
        rep = solve_L_nd(fd, R[base].T)
        errors.append(np.max(np.abs(rep.rotation - np.swapaxes(R, -1, -2))))
        spacings.append(fd.chart.spacing[0])
    return np.polyfit(np.log(spacings), np.log(errors), 1)[0], errors


def test_three_dimensional_solve_recovers_a_varying_rotation_at_fourth_order():
    # K is the hat matrix of a fixed unit axis
    k1, k2, k3 = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    K = np.array([[0.0, -k3, k2], [k3, 0.0, -k1], [-k2, k1, 0.0]])
    order, errors = varying_rotation_order(K, (2.0, 1.5, -1.0), (9, 17, 33))
    assert order >= 3.5, (errors, order)


# 4D solves as the whole-block sweep engine gave them: residuals (compat,
# closed, orth) and the rotation at four corners of the chart
FOUR_D_CORNERS = ((0, 0, 0, 0), (-1, -1, -1, -1), (0, -1, 0, -1), (-1, 0, -1, 0))
HALF_SPACE4_REFERENCE = (
    (2.220446049250313e-16, 6.661338147750939e-16, 2.220446049250313e-16),
    [
        [
            [0.15752701399924127, 0.18393626784814684, 0.48476059975528074, 0.8404521700581647],
            [-0.9281662914280584, 0.05028983860693661, -0.22456517151912636, 0.2924871814800748],
            [0.2027092472979649, -0.7517621649380026, -0.4804487256596945, 0.40364790404459644],
            [0.26944672270610387, 0.6312622504717913, -0.6955189908819612, 0.2125082776617608],
        ],
        [
            [0.1575270139992412, 0.18393626784814676, 0.48476059975528074, 0.8404521700581647],
            [-0.9281662914280584, 0.05028983860693661, -0.22456517151912636, 0.2924871814800748],
            [0.2027092472979648, -0.7517621649380026, -0.4804487256596945, 0.40364790404459633],
            [0.26944672270610387, 0.6312622504717913, -0.6955189908819612, 0.21250827766176075],
        ],
        [
            [0.1575270139992413, 0.18393626784814698, 0.48476059975528074, 0.8404521700581647],
            [-0.9281662914280584, 0.05028983860693657, -0.22456517151912636, 0.2924871814800748],
            [0.20270924729796488, -0.7517621649380026, -0.48044872565969443, 0.4036479040445965],
            [0.26944672270610387, 0.6312622504717913, -0.6955189908819612, 0.2125082776617606],
        ],
        [
            [0.15752701399924124, 0.18393626784814676, 0.48476059975528074, 0.8404521700581647],
            [-0.9281662914280584, 0.05028983860693661, -0.22456517151912636, 0.2924871814800748],
            [0.2027092472979648, -0.7517621649380026, -0.4804487256596945, 0.40364790404459633],
            [0.26944672270610387, 0.6312622504717913, -0.6955189908819612, 0.21250827766176075],
        ],
    ],
)
VARYING4_REFERENCE = (
    (8.855104376981338e-07, 1.2766093212546181e-06, 2.886579864025407e-15),
    [
        [
            [0.9999999999999104, 2.078936609724757e-07, -1.0378577097159237e-07, -3.5449071806951954e-07],
            [-2.0789358457412774e-07, 0.9999999999999573, 8.824006586844337e-08, 1.900880609671408e-07],
            [1.0378583238803085e-07, -8.82400673598648e-08, 0.9999999999999827, 1.2132345732162749e-07],
            [3.5449074478160896e-07, -1.9008797651741597e-07, -1.2132351089687163e-07, 0.9999999999999116],
        ],
        [
            [0.6494670784893715, 0.3687118838088131, 0.19709150668439632, 0.6351369920651065],
            [-0.0034798787890202975, 0.8755525938906528, -0.1734943148203649, -0.4508827658050106],
            [-0.31264641322408315, 0.15340966110197746, 0.935499291568921, -0.059655441099194406],
            [-0.6931324726920612, 0.2718909302460878, -0.23642279118548182, 0.6242971737544337],
        ],
        [
            [0.7444244038248159, 0.298311026293898, 0.18407694646698844, 0.5682943923363469],
            [-0.03201793860533983, 0.9092646045665551, -0.1523898885060504, -0.3859922957404775],
            [-0.2683287754566587, 0.13774621824833358, 0.9529720817676745, -0.029493371994352334],
            [-0.610579091403777, 0.2554885317038511, -0.18637921298226293, 0.7260727045389189],
        ],
        [
            [0.9136366339563966, 0.14716941790414567, 0.12570224714688122, 0.3575027392745459],
            [-0.05718456895828507, 0.9693390080751227, -0.09221845101495345, -0.22047124481300545],
            [-0.1541723833645168, 0.08727006697244691, 0.98410848396671, 0.012054186122378427],
            [-0.3717914770050337, 0.17637172468487639, -0.08500114198862782, 0.9074353520878087],
        ],
    ],
)


def _half_space4_solve():
    fd = half_space_frame(4, 9)
    R = rotated_l0(4, seed=7)
    rotated = frame_change(fd, np.broadcast_to(R, fd.chart.counts + (4, 4)))
    return solve_L_nd(rotated, R.T)


def _varying4_solve():
    Q = rotated_l0(4)
    K = Q[:, 1:2] @ Q[:, :1].T - Q[:, :1] @ Q[:, 1:2].T
    fd, R = varying_rotation_frame(13, K, (1.0, 0.75, -0.5, 0.25))
    return solve_L_nd(fd, R[fd.chart.base_index("center")].T)


@pytest.mark.parametrize(
    "solve, reference",
    [
        pytest.param(_half_space4_solve, HALF_SPACE4_REFERENCE, id="half-space-9^4"),
        pytest.param(_varying4_solve, VARYING4_REFERENCE, id="varying-rotation-13^4"),
    ],
)
def test_four_dimensional_solve_matches_the_frozen_reference(solve, reference):
    rep = solve()
    residuals, corners = reference
    got = (rep.compat_residual, rep.closed_residual, rep.orth_residual)
    assert np.max(np.abs(np.subtract(got, residuals))) <= 1e-13
    for corner, want in zip(FOUR_D_CORNERS, corners):
        assert np.max(np.abs(rep.rotation[corner] - np.array(want))) <= 1e-13


def test_four_dimensional_solve_recovers_a_varying_rotation_at_fourth_order():
    # K = Q (E_21 - E_12) Q^T turns the plane of Q's first two columns
    Q = rotated_l0(4)
    K = Q[:, 1:2] @ Q[:, :1].T - Q[:, :1] @ Q[:, 1:2].T
    order, errors = varying_rotation_order(K, (1.0, 0.75, -0.5, 0.25), (7, 9, 13))
    assert order >= 3.5, (errors, order)


def test_initial_rotation_must_be_orthogonal():
    fd = cosh_metric_frame(21)
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_L_nd(fd, L0=bad)


def test_special_coordinates_on_exp_metric_are_exact():
    # theta_1 = dx exactly, so G = x - x_base exactly, and the dual form
    # e^G theta_2 = e^{-x_base} dy of r_2 v_2 is exact; the rescaled fields
    # r_2 v_2 = e^{-x} e^{x} d/dy = d/dy commute with v_1 = d/dx
    fd = exp_metric_frame(41)
    rep = solve_phi_2d(fd)
    check = special_coordinates_check(fd, rep)
    assert check.path_residual < 1e-13
    assert check.coordinate_residuals.shape == (1,)
    assert check.coordinate_residuals[0] < 1e-13
    assert max_bracket(fd, rep) < 1e-10
    x, _ = fd.chart.meshgrid()
    base = fd.chart.base_index("center")
    assert np.max(np.abs(check.potential - (x - x[base]))) < 1e-12
    assert np.max(np.abs(check.scalings[0] - np.exp(-(x - x[base])))) < 1e-12


def test_special_coordinates_scaling_constants():
    fd = exp_metric_frame(31)
    rep = solve_phi_2d(fd)
    check = special_coordinates_check(fd, rep, constants=[2.0])
    assert np.max(np.abs(check.scalings[0])) == pytest.approx(
        2.0 * np.exp(1.0 - 0.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        special_coordinates_check(fd, rep, constants=[1.0, 1.0])


def test_special_coordinates_converge_on_cosh_metric():
    errs = []
    for n in (21, 41, 81):
        fd = cosh_metric_frame(n)
        rep = solve_phi_2d(fd)
        errs.append(special_coordinates_check(fd, rep).coordinate_residuals[0])
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.5)


def kink_ladder():
    """Kink solves on [0.5, 4] x [-2, 2] at 65^2, 129^2 and 257^2."""
    for n in (65, 129, 257):
        chart = GridChart((0.5, -2.0), (3.5 / (n - 1), 4.0 / (n - 1)), (n, n))
        fd = sg_forms(sg_solution(chart))
        yield fd, solve_phi_2d(fd)


def igsge3d_ladder():
    """igsge 3D solves on [0.5, 6] x [-4, 4]^2 at 13^3, 25^3 and 49^3, rotated start."""
    for n in (13, 25, 49):
        fd = igsge_frame(n)
        yield fd, solve_L_nd(fd, rotated_l0(3))


def _coordinate_orders(ladder):
    """The order in h of each coordinate residual between neighbouring solves."""
    h, residuals = [], []
    for fd, report in ladder:
        h.append(max(fd.chart.spacing))
        residuals.append(special_coordinates_check(fd, report).coordinate_residuals)
    h, residuals = np.array(h)[:, None], np.array(residuals)
    return np.log(residuals[:-1] / residuals[1:]) / np.log(h[:-1] / h[1:])


@pytest.mark.parametrize("ladder", [kink_ladder, igsge3d_ladder], ids=["kink", "igsge3d"])
def test_coordinate_residuals_converge_at_second_order(ladder):
    orders = _coordinate_orders(ladder())
    assert orders.shape[1] == (1 if ladder is kink_ladder else 2)
    assert np.all(orders >= 1.7), orders


def test_coordinate_residuals_converge_in_four_dimensions():
    Q = rotated_l0(4)
    K = Q[:, 1:2] @ Q[:, :1].T - Q[:, :1] @ Q[:, 1:2].T

    def ladder():
        for m in (5, 9, 13):
            fd, R = varying_rotation_frame(m, K, (1.0, 0.75, -0.5, 0.25))
            yield fd, solve_L_nd(fd, R[fd.chart.base_index("center")].T)

    orders = _coordinate_orders(ladder())
    assert orders.shape[1] == 3
    assert np.all(orders >= 1.7), orders


def _flip_g(monkeypatch, solves):
    """Mutation: G comes back with its sign flipped, so the check forms e^-G theta_i."""
    potential = rotation_solver.potential
    firsts = [report.theta1 for _, report in solves]

    def flipped(chart, theta, base="center"):
        g, residual = potential(chart, theta, base)
        return (-g if any(theta is t for t in firsts) else g), residual

    monkeypatch.setattr(rotation_solver, "potential", flipped)


def _transpose_rows(monkeypatch, solves):
    """Mutation: theta_i takes row i of L^T, a column of L, for row i of L."""
    rotated_form = rotation_solver.rotated_form
    monkeypatch.setattr(
        rotation_solver,
        "rotated_form",
        lambda fd, L, i, row_max: rotated_form(fd, np.swapaxes(L, -1, -2), i, row_max),
    )


@pytest.mark.parametrize("mutate", [_flip_g, _transpose_rows], ids=["exp-minus-G", "wrong-row"])
@pytest.mark.parametrize("ladder", [kink_ladder, igsge3d_ladder], ids=["kink", "igsge3d"])
def test_coordinate_certificate_catches_mutations(monkeypatch, ladder, mutate):
    # the unmutated residuals fall by 4 per halving (at most 1e-2); a mutant
    # reads above 0.4 at every resolution and does not converge
    solves = list(ladder())
    good = [special_coordinates_check(*solve).coordinate_residuals for solve in solves]
    mutate(monkeypatch, solves)
    bad = [special_coordinates_check(*solve).coordinate_residuals for solve in solves]
    assert np.max(good) < 1e-2
    assert np.min(bad) > 0.4
    assert np.all(np.array(bad[-1]) > 0.5 * np.array(bad[0]))
