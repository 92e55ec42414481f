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
from pssframe import FrameData, grid, hierarchy, rotation_solver
from pssframe.errors import StructureGateError
from pssframe.frames import live_rows
from pssframe.grid import _Block, _lines, _streamed_compat, _sweep, midpoints
from pssframe.models import ch_evolve, ch_series_table, sg_forms, sg_solution
from pssframe.rotation_solver import (
    MATRIX_KERNELS,
    _axial_fill,
    _axial_kernels,
    _dexpinv_axial,
    _matrix_fill,
    _affine_rows,
    _rodrigues,
    _solve_L_once,
    additive_kernels,
    affine_fill,
    affine_line,
    angle_rhs,
    angle_sweeps,
    angle_system,
    linear_fills,
    rkmk4_fill,
    rkmk4_step,
    sweep_linear,
    sweep_scalar,
)

from conftest import (
    busemann_theta1,
    cosh_metric_frame,
    exp_metric_frame,
    flat_frame,
    half_space_frame,
    igsge4_frame,
    igsge_frame,
    max_bracket,
    rotated_l0,
    varying_rotation_frame,
    writable_copy,
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


@pytest.mark.parametrize("n", [2, 4, 5])
def test_expm_skew_gives_each_matrix_of_a_stack_its_own_bits(rng, n):
    # max norms over four decades: from no squarings to about eight
    a = rng.standard_normal((40, n, n)) * np.geomspace(0.01, 30.0, 40)[:, None, None]
    a -= np.swapaxes(a, -1, -2)
    alone = np.stack([expm_skew(x) for x in a])
    assert np.array_equal(expm_skew(a), alone)
    shape = (8, 5, n, n)
    assert np.array_equal(expm_skew(a[::-1].reshape(shape)), alone[::-1].reshape(shape))


@pytest.mark.parametrize("n", [2, 4, 5])
def test_expm_skew_gives_nan_for_non_finite_entries_quietly(rng, n):
    a = rng.standard_normal((3, n, n)) * 5.0
    a -= np.swapaxes(a, -1, -2)
    a[0, 0, 1] = np.nan
    a[1, 0, 1], a[1, 1, 0] = np.inf, -np.inf
    got = expm_skew(a)  # a RuntimeWarning fails the test
    assert np.isnan(got[0]).any() and np.isnan(got[1]).all()
    assert np.array_equal(got[2], expm_skew(a[2]))


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
    stepwise = sweep_scalar(chart, base, axes_order, 0.7, fields, [rhs, rhs])
    fills = linear_fills(chart, base, axes_order, slopes)
    affine = sweep_linear(chart, base, fills, 0.7, sources)
    assert np.max(np.abs(affine - stepwise)) <= 1e-13 * np.max(np.abs(stepwise))
    assert affine[base] == 0.7


def _flat_sweep_scalar(chart, base, axes_order, init_value, node_fields, rhs):
    # sweep_scalar as it handed every block the fields of all axes, with
    # rhs(axis, samples, y) picking its own

    def system(axis, take):
        fill = rkmk4_fill(additive_kernels(lambda s, v: rhs(axis, s, v)))
        return _lines([take(f) for f in node_fields]), fill

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
    got = sweep_scalar(fd.chart, base, axes_order, 0.4, [flat[:3], flat[3:]], [angle_rhs] * 2)
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


def _per_order_affine_fill(h, blk, sample):
    # the in-place affine fill as it ran per order, node = (slope, source)
    # blocks: every call formed the slope's maps again
    b, node = blk.b, sample(0, blk.m)
    with blk.rows(0, blk.m) as rows:
        _per_order_affine_rows(h, rows, b, node)


def _per_order_affine_rows(h, blk, b, node):
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
        return _lines([take(slopes[axis]), take(sources[axis])]), _per_order_affine_fill

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
    rkmk4_fill(kernels)(0.07, _Block(blk, base), _lines(node))
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
        node = [rng.uniform(-1.5, 1.5, (m, 6, 1) + nodes) * grow]
        return _axial_fill(*ALL_ROWS), AXIAL_KERNELS, _component_major, node, line
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
    fill(0.07, _Block(blk, b), _lines(node))
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


ALL_ROWS = ((0, 1, 2), (0, 1, 2))
# the kernels of a P that holds all six rows
AXIAL_KERNELS = _axial_kernels(*ALL_ROWS)
# (omega rows, w rows) that a P keeps: all, the igsge coframe's along its
# first axis, evenly spaced gaps, and a kept half that is empty
KEPT_ROWS = [ALL_ROWS, ((0,), (1, 2)), ((0, 2), (1,)), ((), (0, 2)), ((1,), ())]


def _kept_planes(p, om, w):
    # the P of `_axial_system`, (m, K, 1, ...), from a six-plane P
    # (m, 3, 2, ...) of the written-out kernels whose other rows are zero
    return np.concatenate([p[:, list(om), 0], p[:, list(w), 1]], axis=1)[:, :, None]


def _zero_rows_left_out(p, om, w):
    p[:, [k for k in range(3) if k not in om], 0] = 0.0
    p[:, [k for k in range(3) if k not in w], 1] = 0.0
    return p


@pytest.mark.parametrize("rows", KEPT_ROWS, ids=["all", "igsge", "gaps", "no-omega", "no-w"])
@pytest.mark.parametrize("scale", [1.0, 1e-6], ids=["large", "small-angle"])
@pytest.mark.parametrize("det", [1.0, -1.0])
@pytest.mark.parametrize("nodes", [1, 2, 98])
def test_axial_kernels_are_bitwise_the_written_out_sums(rng, nodes, det, scale, rows):
    # a block of lines of `nodes` nodes; base line 3 of 10 takes three
    # folded steps, then the upper half steps alone.  The written-out
    # kernels read all six planes, the rows the fill leaves out being zero
    m, b = 10, 3
    line = np.linalg.qr(rng.normal(size=(nodes, 3, 3)))[0]
    line *= (det * np.sign(np.linalg.det(line)))[:, None, None]
    six = _zero_rows_left_out(rng.uniform(-1.5, 1.5, (m, 3, 2, nodes)) * scale, *rows)
    node = [_kept_planes(six, *rows)]
    blk = np.empty((m, nodes, 3, 3))
    blk[b] = line
    expected = blk.copy()
    _axial_fill(*rows)(0.07, _Block(blk, b), _lines(node))
    written_out = rkmk4_fill(WRITTEN_OUT_KERNELS, fold_axis=2)
    written_out(0.07, _Block(np.moveaxis(expected, (-2, -1), (1, 2)), b), _lines([six]))
    assert np.array_equal(blk, expected)
    # and each kernel on a folded line, a strided view as the fill sees it
    L = np.moveaxis(blk[b - 1 : b + 2 : 2], (0, -2, -1), (2, 0, 1))
    u = rng.uniform(-1.0, 1.0, (3, 2, nodes)) * scale
    p = np.moveaxis(node[0][b - 1 : b + 2 : 2], 0, 2)
    p_six = np.moveaxis(six[b - 1 : b + 2 : 2], 0, 2)
    got = _axial_kernels(*rows)[0]([p], L)
    assert np.array_equal(got, _written_out_axial_element([p_six], L))
    assert np.array_equal(AXIAL_KERNELS[2](u, L), _written_out_axial_exp_mul(u, L))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("base", [0, 9, 22])
def test_affine_fill_is_bitwise_the_array_loop(rng, base, width):
    node, mid, blk = _fill_blocks(rng, 2, width, base)
    expected = blk.copy()
    affine_fill(0.07, base, node[0])(0.07, _Block(blk, base), _lines(node[1:]))
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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _kept_windows(certificate, kept):
    """certificate, whose fold first writes each window into its lines of
    the full-grid array kept: the lines the streamed sweep hands on, NaN
    elsewhere."""
    forward, fold = certificate

    def keep(take, rows):
        take(kept)[...] = rows
        fold(take, rows)

    return forward, keep


def _forward_and_streamed_sweeps(chart, base, slopes, sources):
    """The forward sweep filled into out, every line the exchanged-order
    sweep streams into `_streamed_compat`, and that certificate."""
    out = np.empty(chart.counts)
    sweep_linear(chart, base, linear_fills(chart, base, (0, 1), slopes), 0.7, sources, out=out)
    fills_ex = linear_fills(chart, base, (1, 0), slopes)
    kept = np.full(chart.counts, np.nan)

    def reverse(cert):
        sweep_linear(chart, base, fills_ex, 0.7, sources, _kept_windows(cert, kept))

    return out, kept, _streamed_compat(out, reverse)


@pytest.mark.parametrize("block_nodes", [1, 75])
@pytest.mark.parametrize("base", [(0, 0), (16, 12), (32, 24)])
def test_affine_fill_chunks_keep_the_bits_of_the_whole_block(monkeypatch, rng, base, block_nodes):
    # one interval per chunk (block_nodes 1), or three with a shorter last
    # chunk (75 on the 25-node lines of the axis-0 block), against one chunk
    chart = GridChart((0.0, -1.0), (1.0 / 32, 1.0 / 12), (33, 25))
    x, t = chart.meshgrid()
    slopes = (np.cos(x + t), 0.5 - x * t)
    sources = tuple(rng.uniform(-2.0, 2.0, chart.counts) for _ in range(2))
    want = _forward_and_streamed_sweeps(chart, base, slopes, sources)
    monkeypatch.setattr(rotation_solver, "_BLOCK_NODES", block_nodes)
    got = _forward_and_streamed_sweeps(chart, base, slopes, sources)
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))
    assert _bits(got[2]) == _bits(want[2])


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


def _phi_solve(fd, L0, base):
    # the angle whose rotation has L0's first row
    return solve_phi_2d(fd, math.atan2(-L0[0, 1], L0[0, 0]), base)


def _busemann_pair_orders(solve, n, seed, sizes):
    # orders of the max theta_1 error against the Busemann truth on
    # half_space_frame(n, m), the spacing halving from size to size
    L0 = rotated_l0(n, seed)
    errors = []
    for m in sizes:
        fd = half_space_frame(n, m)
        base = (m // 3,) * n
        want = busemann_theta1(fd.chart, L0, base)
        errors.append(np.max(np.abs(solve(fd, L0, base).theta1 - want)))
    errors = np.array(errors)
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("solve", [solve_L_nd, _phi_solve], ids=["matrix", "angle"])
def test_theta1_converges_to_the_busemann_form_in_two_dimensions(solve, seed):
    orders = _busemann_pair_orders(solve, 2, seed, (9, 17, 33, 65))
    assert np.all(orders > 3.5), orders


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_theta1_converges_to_the_busemann_form_in_three_dimensions(seed):
    orders = _busemann_pair_orders(solve_L_nd, 3, seed, (9, 17, 33))
    assert np.all(orders > 3.5), orders


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
# with the reverse-order certificate streamed: L is the one full-grid
# state.  Measured from empty free lists: 4,490,976 and 16,420,742 while
# each block fill copied its base line, 4,445,976 and 16,360,766 without
# the copy, 3,173,818 and 13,085,286 since the coefficient slabs leave out
# the rows that vanish identically (5 of 18 planes kept), and 3,017,442 and
# 13,088,776 since the fills sample their coefficients a chunk of lines at
# a time and the streamed block hands on windows of lines in place of a
# slab buffer (at 49^3 the peak is then closedness_residual's, after the
# sweeps; 33.9 MB while the solve held the reverse state whole); each
# guard is the next multiple of 50,000 bytes.  tracemalloc does not see
# the mapped arrays of `grid.lazy_zeros` (the 49^3 igsge coframe and
# connection); the frame is built before the trace starts, so these guards
# trace only the solve, and no guard may be lowered because an allocation
# moved out of tracemalloc's sight
IGSGE25_SOLVE_PEAK = 3_050_000
IGSGE49_SOLVE_PEAK = 13_100_000
# the same of solve_L_nd(igsge4_frame(13), rotated_l0(4)), whose matrix
# kernels keep every row: 19,964,552 while each block's coefficients and
# their midpoints were whole and the streamed block was cut by a budget on
# its whole state, 13,753,912 since they are sampled a chunk at a time
IGSGE4D_SOLVE_PEAK = 13_800_000
# the same of solve_phi_2d on the 257^2 moving kink (velocity 0.5, phi0 0.3)
# on the kink workload's chart: 5,962,856 while cos(phi) and sin(phi) lived
# through the epilogue, 4,905,816 since they are dropped once the rotation
# holds them
KINK257_SOLVE_PEAK = 4_950_000


def _traced_peak(solve):
    # an untraced solve makes every first-call allocation, and a full
    # collection empties the interpreter's free lists, whose small objects
    # would otherwise escape the trace in a number that depends on the
    # tests run before
    solve()
    gc.collect()
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_solve_peak(fd):
    L0 = rotated_l0(fd.dim)
    return _traced_peak(lambda: solve_L_nd(fd, L0))


def test_three_dimensional_solve_holds_no_block_twice():
    assert _traced_solve_peak(igsge_frame(25)) <= IGSGE25_SOLVE_PEAK


def test_three_dimensional_solve_holds_one_full_grid_state():
    assert _traced_solve_peak(igsge_frame(49)) <= IGSGE49_SOLVE_PEAK


def test_four_dimensional_solve_holds_one_full_grid_state():
    assert _traced_solve_peak(igsge4_frame(13)) <= IGSGE4D_SOLVE_PEAK


def test_angle_solve_drops_cos_and_sin_before_the_epilogue():
    chart = GridChart((0.5, -2.0), (3.5 / 256, 4.0 / 256), (257, 257))
    fd = sg_forms(sg_solution(chart, "moving_kink", 0.5))
    assert _traced_peak(lambda: solve_phi_2d(fd, 0.3)) <= KINK257_SOLVE_PEAK


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


def _same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _six_plane_system(fd, sigma):
    # the n = 3 system with every coefficient row: P (3, 2, ...) holds all
    # six planes, and the written-out element reads each of them
    conn = fd.connection
    fill = rkmk4_fill(
        (_written_out_axial_element,) + AXIAL_KERNELS[1:],
        fold_axis=2,
        view=lambda rows: np.moveaxis(rows, (-2, -1), (1, 2)),
    )

    def system(axis, take):
        shape = take(conn[0, axis]).shape
        p = np.empty(shape[:1] + (3, 2) + shape[1:])
        for k in range(3):
            p[:, k, 0] = take(fd.omega[k, axis])
        np.multiply(sigma, take(conn[2, axis]), out=p[:, 0, 1])
        np.multiply(-sigma, take(conn[1, axis]), out=p[:, 1, 1])
        np.multiply(sigma, take(conn[0, axis]), out=p[:, 2, 1])
        return _lines([p]), fill

    return system


def _six_plane_sweeps(fd, L0):
    system = _six_plane_system(fd, 1.0 if np.linalg.det(L0) > 0 else -1.0)
    base, order = fd.chart.base_index("center"), (0, 1, 2)
    return [_sweep(fd.chart, base, axes, L0, system) for axes in (order, order[::-1])]


STARTS = {
    "rotated": lambda: rotated_l0(3),
    "reflected": lambda: rotated_l0(3) @ np.diag([1.0, 1.0, -1.0]),
    "identity": lambda: np.eye(3),
}


@pytest.mark.parametrize("start", list(STARTS))
def test_three_dimensional_solve_without_zero_rows_is_the_six_plane_solve(start):
    # the igsge coframe is diagonal and only its h_1j connection rows are
    # nonzero: the solve keeps 5 of the 18 coefficient planes of its axes
    fd = igsge_frame(13)
    assert np.count_nonzero(live_rows(fd.row_max_abs())) == 5
    L0 = STARTS[start]()
    rep = solve_L_nd(fd, L0)
    L, L_ex = _six_plane_sweeps(fd, L0)
    _same_bits(rep.rotation, L)
    assert rep.compat_residual == float(np.max(np.abs(L - L_ex)))
    if start == "identity":  # the frame is already special
        assert rep.compat_residual == 0.0 and rep.closed_residual == 0.0


def test_a_row_nonzero_at_one_node_is_kept():
    fd = writable_copy(igsge_frame(9))
    fd.omega[1, 0][2, 3, 4] = 0.5
    live = live_rows(fd.row_max_abs())
    assert live[1, 0] and np.count_nonzero(live) == 6
    rep = solve_L_nd(fd, rotated_l0(3), gate_factor=None)
    _same_bits(rep.rotation, _six_plane_sweeps(fd, rotated_l0(3))[0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_frame_leaves_out_no_row(value):
    # the non-finite coefficient sits in a row that is otherwise zero
    fd = writable_copy(igsge_frame(9))
    fd.connection[2, 0][6, 4, 4] = value  # on the first swept line
    live = live_rows(fd.row_max_abs())
    assert live.all()
    base, L0 = fd.chart.base_index("center"), rotated_l0(3)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN reaches the exp updates
        got = _solve_L_once(fd, L0, base, (0, 1, 2), live)
        want = _six_plane_sweeps(fd, L0)[0]
    assert np.isnan(got).any()
    _same_bits(got, want)


def _all_rows_angle_sweeps(fd, phi0):
    om1, om2, om12 = fd.omega[0], fd.omega[1], fd.connection[0]
    fields = [[om1[axis], om2[axis], om12[axis]] for axis in (0, 1)]
    base = fd.chart.base_index("center")
    phi = sweep_scalar(fd.chart, base, (0, 1), phi0, fields, [angle_rhs] * 2)
    phi_ex = sweep_scalar(fd.chart, base, (1, 0), phi0, fields, [angle_rhs] * 2)
    return phi, float(np.max(np.abs(phi - phi_ex)))


def _ch_order_zero_frame():
    state = ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=0.5,
        nx=64,
        nt=8,
    )
    return hierarchy._order_zero_frame(state.chart, ch_series_table(state, 0))


def _signed_zero_frames(count=12):
    # diagonal coframes whose rows hold zeros of both signs and whose
    # connection is +-0: every axis leaves a row out, and the kept sums
    # meet -0 partial sums
    rng = np.random.default_rng(20260817)
    chart = GridChart((0.0, 0.0), (0.1, 0.1), (9, 9))
    for _ in range(count):
        signed_zeros = rng.choice([-0.0, 0.0], (4, 9, 9))
        omega = np.zeros((2, 2, 9, 9))
        omega[0, 1], omega[1, 0] = signed_zeros[:2]
        for i in range(2):
            omega[i, i] = rng.choice([-1.0, 0.0, 1.0], (9, 9)) * rng.uniform(0.5, 1.0, (9, 9))
        yield FrameData(chart, omega, signed_zeros[None, 2:])


ANGLE_FRAMES = {
    # (frame, rows of omega_1 and omega_2 that the sweeps keep, per axis)
    "static-kink": (_kink_frame_65, [[True, False], [False, True]]),
    "ch-order-0": (_ch_order_zero_frame, [[True, True], [False, True]]),
}


@pytest.mark.parametrize("phi0", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("frame", list(ANGLE_FRAMES))
def test_angle_sweeps_without_zero_rows_are_the_all_rows_sweeps(frame, phi0):
    make, kept = ANGLE_FRAMES[frame]
    fd = make()
    assert live_rows(fd.row_max_abs())[:2].tolist() == kept
    phi, compat, *_ = angle_sweeps(fd, phi0, fd.chart.base_index("center"), None)
    want, want_compat = _all_rows_angle_sweeps(fd, phi0)
    _same_bits(phi, want)
    assert compat == want_compat


@pytest.mark.parametrize("phi0", [0.0, -0.0, 0.3])
def test_angle_sweeps_keep_the_bits_of_signed_zero_rows(phi0):
    # a -0 start keeps every row: a left-out +-0 term can flip the sign of
    # a zero state there
    for fd in _signed_zero_frames():
        phi, compat, *_ = angle_sweeps(fd, phi0, fd.chart.base_index("center"), None)
        want, want_compat = _all_rows_angle_sweeps(fd, phi0)
        _same_bits(phi, want)
        assert compat == want_compat


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_angle_sweeps_of_a_non_finite_frame_leave_out_no_row(value):
    fd = _kink_frame_65()
    fd.omega[1, 0][40, 32] = value  # on the first swept line of a zero row
    assert live_rows(fd.row_max_abs()).all()
    with np.errstate(invalid="ignore", over="ignore"):  # NaN reaches sin and cos
        phi, compat, *_ = angle_sweeps(fd, 0.0, fd.chart.base_index("center"), None)
        want, want_compat = _all_rows_angle_sweeps(fd, 0.0)
    assert np.isnan(phi).any() and np.isnan(compat) and np.isnan(want_compat)
    _same_bits(phi, want)


def test_theta1_in_two_dimensions_is_the_written_out_first_row():
    fd = _kink_frame_65()
    rep = solve_phi_2d(fd)
    row = rep.rotation[..., 0, :]
    _same_bits(rep.theta1, row[..., 0] * fd.omega[0] + row[..., 1] * fd.omega[1])


def _whole_sweeps_compat(fd, L0):
    # the certificate as it was formed: both sweeps whole, then max |L - L_ex|
    base, order = fd.chart.base_index("center"), tuple(range(fd.dim))
    live = live_rows(fd.row_max_abs())
    L = _solve_L_once(fd, L0, base, order, live)
    L_ex = _solve_L_once(fd, L0, base, order[::-1], live)
    return float(np.max(np.abs(L - L_ex)))


def _varying4(m):
    Q = rotated_l0(4)
    K = Q[:, 1:2] @ Q[:, :1].T - Q[:, :1] @ Q[:, 1:2].T
    fd, R = varying_rotation_frame(m, K, (1.0, 0.75, -0.5, 0.25))
    return fd, R[fd.chart.base_index("center")].T


def _chunk_per_interval(monkeypatch):
    # every chunk of a march holds one step, one interval per direction
    monkeypatch.setattr(rotation_solver, "_chunk_steps", lambda line_nbytes: 1)
    monkeypatch.setattr(rotation_solver, "_BLOCK_NODES", 1)


def _narrowest_cut(monkeypatch):
    # every block of more than one transverse node is cut into slabs two
    # or three nodes wide, each marched one step per chunk
    monkeypatch.setattr(grid, "_CHUNK_BYTES", 1)


SETTINGS = {
    "default": lambda monkeypatch: None,
    "chunk-per-interval": _chunk_per_interval,
    "narrowest-cut": _narrowest_cut,
}


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(lambda: (cosh_metric_frame(33), rotated_l0(2)), id="n2"),
        pytest.param(lambda: (igsge_frame(17), rotated_l0(3)), id="n3"),
        pytest.param(lambda: _varying4(9), id="n4"),
    ],
)
def test_streamed_certificate_is_the_whole_sweeps_max(monkeypatch, frame, setting):
    fd, L0 = frame()
    want = _whole_sweeps_compat(fd, L0)
    SETTINGS[setting](monkeypatch)
    assert solve_L_nd(fd, L0).compat_residual == want


def test_streamed_angle_certificate_is_the_whole_sweeps_max():
    fd = cosh_metric_frame(33)
    assert solve_phi_2d(fd, 0.3).compat_residual == _all_rows_angle_sweeps(fd, 0.3)[1]


def _report_arrays(rep):
    residuals = (rep.compat_residual, rep.closed_residual, rep.orth_residual)
    return [rep.rotation, rep.theta1, np.array(residuals)] + (
        [] if rep.angle is None else [rep.angle]
    )


@pytest.mark.parametrize("setting", ["chunk-per-interval", "narrowest-cut"])
@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda: solve_phi_2d(cosh_metric_frame(33), 0.3), id="angle-2d"),
        pytest.param(lambda: solve_L_nd(cosh_metric_frame(33), rotated_l0(2)), id="n2"),
        pytest.param(lambda: solve_L_nd(igsge_frame(13), rotated_l0(3)), id="n3"),
        pytest.param(lambda: solve_L_nd(*_varying4(9)), id="n4"),
    ],
)
def test_slabbed_sweeps_give_the_whole_block_fill(monkeypatch, solve, setting):
    whole = _report_arrays(solve())
    widths, steps = [], []

    def recorded_slabs(*args):
        slabs = grid_slabs(*args)
        widths.extend(s[-1].stop - s[-1].start for s in slabs if s)
        return slabs

    def recorded_steps(*args):
        steps.append(chunk_steps(*args))
        return steps[-1]

    grid_slabs = grid._slabs
    SETTINGS[setting](monkeypatch)
    chunk_steps = rotation_solver._chunk_steps
    monkeypatch.setattr(grid, "_slabs", recorded_slabs)
    monkeypatch.setattr(rotation_solver, "_chunk_steps", recorded_steps, raising=True)
    got = _report_arrays(solve())
    assert steps and set(steps) == {1}  # a chunk per march step
    if setting == "narrowest-cut":
        # slabbed, never one node wide and never wider than three
        assert len(widths) > 4 and set(widths) <= {2, 3}
    else:
        assert not widths
    for g, w in zip(got, whole):
        assert np.array_equal(_bits(g), _bits(w))


def test_transverse_halves_of_a_four_dimensional_block_get_the_whole_fill(rng):
    # the coefficients grow across the block's second axis, so that the
    # steps of its two halves need different numbers of squarings
    m, nodes, n, b = 6, (4, 1, 3), 4, 2
    grow = np.linspace(0.05, 12.0, nodes[0]).reshape((1, nodes[0], 1, 1, 1, 1))
    w = rng.uniform(-1.5, 1.5, (m,) + nodes + (n, n)) * grow
    om = rng.uniform(-1.5, 1.5, (m,) + nodes + (n,)) * grow[..., 0]
    node = [om, w - np.swapaxes(w, -1, -2)]
    whole = np.empty((m,) + nodes + (n, n))
    whole[b] = np.linalg.qr(rng.normal(size=nodes + (n, n)))[0]
    halves = whole.copy()
    _matrix_fill(0.3, _Block(whole, b), _lines(node))
    for half in (slice(0, 2), slice(2, 4)):
        _matrix_fill(0.3, _Block(halves[:, half], b), _lines([f[:, half] for f in node]))
    assert np.array_equal(halves, whole)


def _linear_problem(rng, counts):
    # a chart of the given counts, smooth slopes and random sources per axis
    # and an off-centre base
    dim = len(counts)
    chart = GridChart((0.0,) * dim, tuple(0.6 / (c - 1) for c in counts), counts)
    coords = chart.meshgrid()
    slopes = tuple(np.cos(coords[k] + coords[-1 - k]) for k in range(dim))
    sources = tuple(rng.uniform(-2.0, 2.0, counts) for _ in range(dim))
    return chart, tuple(c // 3 + k % 2 for k, c in enumerate(counts)), slopes, sources


LINEAR_COUNTS = [
    pytest.param((33, 25), id="n2"),
    pytest.param((9, 11, 7), id="n3"),
    pytest.param((5, 6, 4, 7), id="n4"),
]


@pytest.mark.parametrize("setting", ["chunk-per-interval", "narrowest-cut"])
@pytest.mark.parametrize("counts", LINEAR_COUNTS)
def test_slabbed_linear_sweep_gives_the_whole_block_fill(monkeypatch, rng, counts, setting):
    chart, base, slopes, sources = _linear_problem(rng, counts)
    orders = [tuple(range(len(counts))), tuple(range(len(counts)))[::-1]]
    whole = [
        sweep_linear(chart, base, linear_fills(chart, base, o, slopes), 0.4, sources)
        for o in orders
    ]
    SETTINGS[setting](monkeypatch)
    for axes_order, want in zip(orders, whole):
        fills = linear_fills(chart, base, axes_order, slopes)
        assert (len(fills) > len(counts)) == (setting == "narrowest-cut")
        got = sweep_linear(chart, base, fills, 0.4, sources)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("counts", LINEAR_COUNTS)
def test_streamed_linear_certificate_is_the_whole_sweeps_max(monkeypatch, rng, counts, setting):
    chart, base, slopes, sources = _linear_problem(rng, counts)
    axes_order = tuple(range(len(counts)))
    exchanged = axes_order[::-1]
    sol = sweep_linear(chart, base, linear_fills(chart, base, axes_order, slopes), 0.4, sources)
    sol_ex = sweep_linear(chart, base, linear_fills(chart, base, exchanged, slopes), 0.4, sources)
    SETTINGS[setting](monkeypatch)
    fills = linear_fills(chart, base, exchanged, slopes)
    got = _streamed_compat(sol, lambda cert: sweep_linear(chart, base, fills, 0.4, sources, cert))
    assert got == float(np.max(np.abs(sol - sol_ex)))
    out = np.full(chart.counts, np.nan)
    fills = linear_fills(chart, base, axes_order, slopes)
    assert sweep_linear(chart, base, fills, 0.4, sources, out=out) is out
    assert np.array_equal(out, sol)


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_streamed_certificate_covers_the_base_hyperplane_of_the_last_block(
    monkeypatch, rng, setting
):
    # y' = -4 y along axis 0 without source, and sources E(x0) g(x1, x2)
    # along axes 1 and 2, E = exp(-4 x0): the sweeps differ by about
    # E(x0) times their difference on the plane x0 = 0, which holds the base
    # and which the two orders fill along axes 1, 2 and 2, 1.  So the max
    # lies on that plane only, the last block's base line in the exchanged
    # order.
    chart = GridChart((0.0,) * 3, (0.075,) * 3, (9, 11, 7))
    base = (0, 4, 3)
    x0 = chart.meshgrid()[0]
    slopes = (np.full(chart.counts, -4.0), np.zeros(chart.counts), np.zeros(chart.counts))
    sources = (np.zeros(chart.counts),) + tuple(
        np.exp(-4.0 * x0) * rng.uniform(-2.0, 2.0, chart.counts[1:]) for _ in range(2)
    )
    sol, sol_ex = (
        sweep_linear(chart, base, linear_fills(chart, base, axes, slopes), 0.4, sources)
        for axes in ((0, 1, 2), (2, 1, 0))
    )
    gap = np.abs(sol - sol_ex)
    assert np.max(gap[0]) > np.max(gap[1:])
    SETTINGS[setting](monkeypatch)
    fills = linear_fills(chart, base, (2, 1, 0), slopes)
    got = _streamed_compat(sol, lambda cert: sweep_linear(chart, base, fills, 0.4, sources, cert))
    assert got == float(np.max(gap))


@pytest.mark.parametrize("setting", ["default", "narrowest-cut"])
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
def test_non_finite_value_in_the_reverse_sweep_gives_nan_compat(monkeypatch, setting, solve, node):
    # a dx_1 coefficient off the forward sweep's first line: only the reverse
    # sweep's last block reads it, so L stays finite and L_ex does not
    fd = cosh_metric_frame(33) if len(node) == 2 else writable_copy(igsge_frame(13))
    fd.omega[0, 0][node] = np.nan
    SETTINGS[setting](monkeypatch)
    rep = solve(fd)
    assert np.isnan(rep.compat_residual)
    assert np.isfinite(rep.closed_residual) and np.isfinite(rep.orth_residual)


def _rotation_sweeps(fd, L0):
    # the forward sweep of solve_L_nd and its exchanged-order sweep, whole
    base, order = fd.chart.base_index("center"), tuple(range(fd.dim))
    live = live_rows(fd.row_max_abs())
    return [_solve_L_once(fd, L0, base, o, live) for o in (order, order[::-1])], base


def _angle_sweeps_whole(fd, phi0=0.3):
    # the sweeps of angle_sweeps, the exchanged order whole
    live = live_rows(fd.row_max_abs())
    om1, om2, om12 = fd.omega[0], fd.omega[1], fd.connection[0]
    fields, rhs = zip(
        *(angle_system(om1[a], om2[a], om12[a], live[0, a], live[1, a]) for a in (0, 1))
    )
    base = fd.chart.base_index("center")
    return [sweep_scalar(fd.chart, base, o, phi0, fields, rhs) for o in ((0, 1), (1, 0))], base


FIRST_LINE_CASES = {
    "igsge-25^3": lambda: _rotation_sweeps(igsge_frame(25), rotated_l0(3)),
    # the exchanged order's first block is (65, 1): stepped on Python floats
    "kink-65^2": lambda: _angle_sweeps_whole(_kink_frame_65()),
    "ch-order-0": lambda: _angle_sweeps_whole(_ch_order_zero_frame()),
    "igsge-9^4": lambda: _rotation_sweeps(igsge4_frame(9), rotated_l0(4)),
}


@pytest.mark.parametrize("case", list(FIRST_LINE_CASES))
def test_exchanged_order_first_line_is_the_forward_states_line(case):
    # the line through the base along the forward order's last axis, which
    # a streamed certificate copies from the forward state
    (state, state_ex), base = FIRST_LINE_CASES[case]()
    line = base[:-1]
    assert np.array_equal(_bits(state_ex[line]), _bits(state[line]))


def _counted_steps(monkeypatch, fd):
    calls = []

    def counted(*args):
        calls.append(None)
        return step(*args)

    step = rotation_solver.rkmk4_step
    monkeypatch.setattr(rotation_solver, "rkmk4_step", counted)
    solve_L_nd(fd, rotated_l0(3))
    return len(calls)


@pytest.mark.parametrize("m, steps", [(25, 60), (49, 120)])
def test_igsge_solve_takes_one_folded_step_per_interval_pair(monkeypatch, m, steps):
    # forward: 3 blocks of (m - 1) / 2 folded steps, no block cut; the
    # certificate copies its first line and steps the other two blocks
    assert _counted_steps(monkeypatch, igsge_frame(m)) == steps


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
