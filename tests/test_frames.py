"""Frame bundles: structure equations, rotations, dual vectors, persistence."""

import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from pssframe import (
    FrameData,
    GridChart,
    frame_change,
    frame_vector_fields,
    lie_bracket,
    load_frame_data,
    orthogonality_error,
    require_orthogonal,
    save_frame_data,
    read_field,
    special_frame_residual,
    structure_residuals,
)
from pssframe.errors import (
    DegenerateFrameError,
    OrthogonalityError,
    PssframeError,
    StructureGateError,
)

from pssframe.models import ch_evolve, ch_forms, sg_forms, sg_solution
from pssframe import frames
from pssframe.rotation_solver import (
    expm_skew,
    solve_L_nd,
    solve_phi_2d,
    special_coordinates_check,
)

from conftest import (
    cosh_metric_frame,
    exp_metric_frame,
    flat_frame,
    half_space_frame,
    igsge_frame,
    interior_max_abs,
    non_finite_frame,
    square_chart,
    varying_rotation_frame,
    writable_copy,
)
from oracles import d_oneform, wedge


def test_structure_residuals_second_order_on_exp_metric():
    errs = []
    for n in (21, 41, 81):
        res1, res2 = structure_residuals(exp_metric_frame(n))
        errs.append(max(res1, res2))
    errs = np.array(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders > 1.9)
    assert errs[-1] < 3e-4


def test_structure_residuals_second_order_on_cosh_metric():
    errs = []
    for n in (21, 41, 81):
        res1, res2 = structure_residuals(cosh_metric_frame(n))
        errs.append(max(res1, res2))
    errs = np.array(errs)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(orders > 1.9)


def connection_entry(fd, i, j):
    """omega_ij as a one-form: the stored upper entry, or a negated copy of it."""
    upper = fd.connection[list(combinations(range(fd.dim), 2)).index((min(i, j), max(i, j)))]
    return upper if i < j else -upper


def full_grid_structure_residuals(fd, curvature=-1.0):
    """`structure_residuals` as the full-grid forms spell it: d and wedge at
    every node, negated copies of the entries below the diagonal, and only
    then the interior read off."""
    n = fd.dim

    def interior(two_form):
        return float(np.max([interior_max_abs(c) for c in two_form]))

    res1 = []
    for i in range(n):
        resid = d_oneform(fd.chart, fd.omega[i])
        for j in range(n):
            if j != i:
                resid -= wedge(fd.omega[j], connection_entry(fd, j, i))
        res1.append(interior(resid))
    res2 = []
    for i in range(n):
        for j in range(i + 1, n):
            resid = d_oneform(fd.chart, connection_entry(fd, i, j))
            for k in range(n):
                if k != i and k != j:
                    resid -= wedge(connection_entry(fd, i, k), connection_entry(fd, k, j))
            resid += wedge(fd.omega[i], fd.omega[j]) * float(curvature)
            res2.append(interior(resid))
    return float(np.max(res1)), float(np.max(res2))


def _ch_order_zero_frame():
    state = ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=0.5,
        nx=64,
        nt=8,
    )
    return ch_forms(state, 0.0)


def _four_dimensional_varying_rotation_frame():
    K = np.zeros((4, 4))
    K[0, 1], K[2, 3] = -1.0, -1.0
    return varying_rotation_frame(7, K - K.T, (1.0, -0.5, 0.7, 0.3))[0]


def _kink_frame():
    return sg_forms(sg_solution(square_chart(33, -4.0, 4.0), "moving_kink", 0.3))


def _random_frame(dim, m, seed):
    # every coefficient nonzero, so every term moves the last bits of the max
    rng = np.random.default_rng(seed)
    chart = GridChart((0.0,) * dim, (0.1,) * dim, (m,) * dim)
    omega = np.array([rng.uniform(-1, 1, (dim,) + chart.counts) for _ in range(dim)])
    upper = rng.uniform(-1, 1, (dim * (dim - 1) // 2, dim) + chart.counts)
    return FrameData(chart, omega, upper)


def _nan_frame():
    fd = writable_copy(igsge_frame(13))
    fd.connection[2, 1, 6, 4, 7] = np.nan
    return fd


def _inf_beside_zero_row_frame():
    # omega_12's dx_3 row vanishes identically but for this +inf; its
    # wedge partner omega_1 has identically zero dx_2 and dx_3 rows, so
    # only the products that 0 * inf turns into NaN carry it, and the zero
    # rows must not be skipped
    fd = writable_copy(igsge_frame(13))
    assert not fd.omega[0, 1:].any()
    fd.connection[0, 2, 6, 4, 7] = np.inf
    return fd


_FRAMES = {
    "igsge13": lambda: igsge_frame(13),
    "igsge17": lambda: igsge_frame(17),
    "kink": _kink_frame,
    "ch-order-0": _ch_order_zero_frame,
    "varying-4d": _four_dimensional_varying_rotation_frame,
    "nan": _nan_frame,
    "inf-2d": lambda: non_finite_frame(2, "omega", np.inf),
    "inf-beside-zero-row": _inf_beside_zero_row_frame,
    "flat": lambda: flat_frame(21),
    "half-space-4d": lambda: half_space_frame(4, 7),
}


@pytest.mark.parametrize("make", list(_FRAMES.values()), ids=list(_FRAMES))
@pytest.mark.parametrize("curvature", [-1.0, 0.0, 0.5])
def test_structure_residuals_are_bitwise_the_full_grid_forms(make, curvature):
    fd = make()
    got = structure_residuals(fd, curvature)
    with np.errstate(invalid="ignore"):  # K = 0 times an infinite wedge
        want = full_grid_structure_residuals(fd, curvature)
    # max-norms are never -0.0, so equal doubles are equal bits
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("block_nodes", [1, 300])
@pytest.mark.parametrize(
    "name", ["igsge13", "kink", "varying-4d", "nan", "inf-beside-zero-row", "half-space-4d"]
)
def test_structure_residuals_in_small_slabs_are_the_full_grid_forms(monkeypatch, name, block_nodes):
    # one plane per slab, or a few planes with a shorter last slab
    fd = _FRAMES[name]()
    monkeypatch.setattr(frames, "_BLOCK_NODES", block_nodes)
    got = structure_residuals(fd)
    assert np.array_equal(got, full_grid_structure_residuals(fd), equal_nan=True)


def test_structure_residuals_take_the_given_row_maxima():
    fd = igsge_frame(13)
    row_max = fd.row_max_abs()
    assert row_max.shape == (3 + 3, 3)
    assert row_max[0, 0] > 0.0 and row_max[0, 1] == row_max[0, 2] == 0.0
    assert structure_residuals(fd, row_max=row_max) == structure_residuals(fd)


def test_row_max_abs_is_the_max_of_each_row_and_nan_for_a_nan_row():
    fd = _random_frame(3, 5, seed=1)
    rows = np.concatenate([fd.omega, fd.connection])
    assert np.array_equal(fd.row_max_abs(), np.max(np.abs(rows), axis=(2, 3, 4)))
    fd.connection[1, 2, 2, 3, 4] = np.nan
    got = fd.row_max_abs()
    assert np.isnan(got[3 + 1, 2]) and np.isfinite(np.delete(got.ravel(), 4 * 3 + 2)).all()


# tracemalloc peak in bytes of structure_residuals on a 513^2 moving-kink
# frame: a few slab temporaries of at most _BLOCK_NODES doubles each
# (6,401,440 while the residuals were formed on the whole interior)
STRUCTURE513_PEAK = 335_094


def test_structure_residuals_hold_no_full_grid_temporary():
    structure_residuals(flat_frame(9))  # warm-up
    chart = GridChart((-4.0, -4.0), (8.0 / 512,) * 2, (513, 513))
    fd = sg_forms(sg_solution(chart, "moving_kink", 0.3))
    tracemalloc.start()
    try:
        structure_residuals(fd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STRUCTURE513_PEAK


@pytest.mark.parametrize("dim, m", [(3, 7), (4, 5)])
def test_structure_residuals_are_bitwise_the_full_grid_forms_on_random_frames(dim, m):
    # a reordered sum moves the last bits of a few nodes only, so many
    # frames give the max-norm many chances to land on one of them
    for seed in range(24):
        fd = _random_frame(dim, m, seed)
        assert structure_residuals(fd) == full_grid_structure_residuals(fd)


def test_flat_frame_violates_curvature_equation():
    res1, res2 = structure_residuals(flat_frame(21))
    assert res1 == 0.0
    assert res2 == pytest.approx(1.0)
    # and the same bundle is consistent with curvature 0
    res1_flat, res2_flat = structure_residuals(flat_frame(21), curvature=0.0)
    assert max(res1_flat, res2_flat) == 0.0


def test_special_frame_residual_values():
    assert special_frame_residual(exp_metric_frame(31)) == 0.0
    got = special_frame_residual(cosh_metric_frame(31))
    # omega_12 + omega_2 = (sinh x + cosh x) dy = e^x dy, largest at x = 1
    assert got == pytest.approx(np.e, rel=1e-12)


def test_frame_change_identity_is_identity():
    fd = cosh_metric_frame(21)
    rotated = frame_change(fd, np.broadcast_to(np.eye(2), fd.chart.counts + (2, 2)))
    assert np.array_equal(rotated.omega, fd.omega)
    assert np.allclose(rotated.connection[0, 1], fd.connection[0, 1], atol=1e-15)


def test_frame_change_round_trip_with_smooth_rotation():
    fd = cosh_metric_frame(33)
    x, y = fd.chart.meshgrid()
    phi = 0.3 * x + 0.1 * y * y
    c, s = np.cos(phi), np.sin(phi)
    rot = np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))
    inv = np.swapaxes(rot, -1, -2)
    back = frame_change(frame_change(fd, rot), inv)
    assert np.max(np.abs(back.omega - fd.omega)) < 1e-12
    # connection round trip only holds to stencil order (dL terms)
    assert np.max(np.abs(back.connection - fd.connection)) < 5e-3


def test_frame_change_by_constant_rotation_preserves_structure():
    fd = cosh_metric_frame(41)
    base = structure_residuals(fd)
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.broadcast_to(np.array([[c, -s], [s, c]]), fd.chart.counts + (2, 2))
    rotated = frame_change(fd, rot)
    res = structure_residuals(rotated)
    assert max(res) <= 2.0 * max(base) + 1e-12


def test_rotation_field_rejects_non_orthogonal_matrix():
    fd = exp_metric_frame(5)
    bad = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]), fd.chart.counts + (2, 2))
    with pytest.raises(ValueError, match="not orthogonal"):
        frame_change(fd, bad)
    with pytest.raises(ValueError, match="rotation needs shape"):
        frame_change(fd, np.eye(2))


def test_non_orthogonal_rotation_raises_package_error():
    chart = square_chart(5)
    bad = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]), chart.counts + (2, 2))
    with pytest.raises(OrthogonalityError) as info:
        require_orthogonal(bad)
    assert isinstance(info.value, PssframeError)
    assert str(info.value) == "matrix field is not orthogonal: max |LL^T - I| = 5.000e-01"


def test_frame_vector_fields_of_exp_metric():
    fd = exp_metric_frame(31)
    comps, valid = frame_vector_fields(fd)
    assert valid.all()
    x, _ = fd.chart.meshgrid()
    assert np.max(np.abs(comps[..., 0, 0] - 1.0)) < 1e-13
    assert np.max(np.abs(comps[..., 0, 1])) < 1e-13
    assert np.max(np.abs(comps[..., 1, 0])) < 1e-13
    assert np.max(np.abs(comps[..., 1, 1] - np.exp(x))) < 1e-10


def test_frame_vector_fields_masks_degenerate_nodes():
    fd = exp_metric_frame(31)
    x, _ = fd.chart.meshgrid()
    omega = fd.omega.copy()
    omega[1, 1] *= x
    fd2 = FrameData(fd.chart, omega, fd.connection)
    comps, valid = frame_vector_fields(fd2, det_rtol=1e-8)
    assert not valid[15, :].any()  # the x = 0 grid line is singular
    assert valid[0, :].all() and valid[-1, :].all()
    assert np.all(comps[15, :, :, :] == 0.0)


def test_frame_vector_fields_raises_when_singular_everywhere():
    fd = exp_metric_frame(9)
    omega = fd.omega.copy()
    omega[1] = 0.0
    fd2 = FrameData(fd.chart, omega, fd.connection)
    with pytest.raises(DegenerateFrameError):
        frame_vector_fields(fd2)


@pytest.mark.parametrize("n", [2, 3])
def test_relative_determinant_test_cannot_overflow(n):
    # diag(1, e^400, ...): |det| / max|F|^n = e^-400 at every node, where
    # det_rtol * max|F|^n used to overflow a Python float
    chart = GridChart((0.0,) * n, (1.0,) * n, (5,) * n)
    omega = np.zeros((n, n) + chart.counts)
    omega[0, 0] = 1.0
    for i in range(1, n):
        omega[i, i] = math.exp(400.0)
    fd = FrameData(chart, omega, np.zeros((n * (n - 1) // 2, n) + chart.counts))
    with pytest.raises(DegenerateFrameError, match="singular everywhere"):
        frame_vector_fields(fd)
    with pytest.raises(DegenerateFrameError, match="singular everywhere"):
        frame_vector_fields(exp_metric_frame(33, -400.0, -399.0))


@pytest.mark.parametrize("n", [2, 3])
def test_well_conditioned_coframe_near_e400_stays_valid(rng, n):
    # F = e^400 (I + ones) (1 + noise): every entry near e^400, condition
    # about n + 1, |det| far past the largest double
    chart = GridChart((0.0,) * n, (1.0,) * n, (5,) * n)
    M = np.eye(n) + np.ones((n, n))
    F = M * (1.0 + 1e-3 * rng.standard_normal(chart.counts + (n, n)))
    omega = np.moveaxis(F * math.exp(400.0), (-2, -1), (0, 1))
    fd = FrameData(chart, omega, np.zeros((n * (n - 1) // 2, n) + chart.counts))
    comps, valid = frame_vector_fields(fd)
    assert valid.all()
    want = np.swapaxes(np.linalg.inv(F), -1, -2) * math.exp(-400.0)
    assert np.max(np.abs(comps - want)) <= 1e-13 * np.max(np.abs(want))


def _stack_frame(matrices):
    """A 2D FrameData whose coefficient matrices are the (nodes, 2, 2) stack."""
    nodes = len(matrices)
    chart = GridChart((0.0, 0.0), (1.0, 1.0), (nodes // 100, 100))
    omega = np.moveaxis(matrices, (1, 2), (0, 1)).reshape((2, 2) + chart.counts)
    return FrameData(chart, omega, np.zeros((1, 2) + chart.counts))


def _conditioned_stack(rng, nodes, log10_cond):
    """Rotation x diag(s, s / cond) x rotation, s over six decades."""

    def rotations(angle):
        c, s = np.cos(angle), np.sin(angle)
        return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (1, 2))

    s = 10.0 ** rng.uniform(-3.0, 3.0, nodes)
    diag = np.zeros((nodes, 2, 2))
    diag[:, 0, 0] = s
    diag[:, 1, 1] = s / 10.0 ** rng.uniform(*log10_cond, nodes)
    angles = rng.uniform(0.0, 2.0 * np.pi, (2, nodes))
    return rotations(angles[0]) @ diag @ rotations(angles[1])


def test_two_dimensional_duals_mask_nan_and_singular_nodes_quietly():
    fd = exp_metric_frame(9)
    omega = fd.omega.copy()
    omega[0, 0, 2, 3] = np.nan
    omega[1, :, 5, 5] = np.inf
    omega[:, 0, 6, 1] = 0.0  # the first column vanishes: no pivot
    valid = frames._nonsingular_2d(omega, 1.0, 1e-8)
    assert np.count_nonzero(~valid) == 3
    assert not valid[2, 3] and not valid[5, 5] and not valid[6, 1]
    # a NaN in the frame makes the scale NaN: no node passes, as before
    fd.omega[0, 0, 2, 3] = np.nan
    with pytest.raises(DegenerateFrameError):
        frame_vector_fields(fd)


def test_two_dimensional_mask_is_the_lapack_determinant_mask(rng):
    # cond 1 to 1e12 and scales over six decades put |det(F / scale)| on
    # both sides of det_rtol; 20,000 nodes span three blocks of the loop
    fd = _stack_frame(_conditioned_stack(rng, 20000, (0.0, 12.0)))
    scale = np.max(np.abs(fd.omega))
    want = np.abs(np.linalg.det(fd.coefficient_matrix() / scale)) > 1e-8
    valid = frames.nonsingular_nodes(fd, 1e-8)
    assert 0 < np.count_nonzero(want) < want.size
    assert np.array_equal(valid, want)


def test_vanishing_coframe_is_refused_by_name():
    fd = exp_metric_frame(9)
    fd.omega[...] = 0.0
    with pytest.raises(DegenerateFrameError, match="coefficient matrix vanishes identically"):
        frames.nonsingular_nodes(fd)


@pytest.mark.parametrize("n", [2, 3])
def test_duals_are_lapack_bits(rng, n):
    fd = _stack_frame(_conditioned_stack(rng, 2000, (0.0, 6.0))) if n == 2 else igsge_frame(9)
    comps, valid = frame_vector_fields(fd, det_rtol=0.0)
    F = fd.coefficient_matrix()
    assert valid.all()
    assert np.array_equal(comps, np.swapaxes(np.linalg.inv(F), -1, -2))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("perturbation", ["none", "random", "off-diagonal"])
def test_orthogonality_error_matches_the_matmul_gram(rng, n, perturbation):
    chart = GridChart((0.0,) * n, (1.0,) * n, (6,) * (n - 1) + (40,))
    q, _ = np.linalg.qr(rng.standard_normal(chart.counts + (n, n)))
    if perturbation == "random":
        L = q + 1e-13 * rng.standard_normal(q.shape)
    elif perturbation == "off-diagonal":
        # L = (I + e K) q with K symmetric and zero on its diagonal: the
        # Gram error 2 e K lies off the diagonal
        K = rng.standard_normal(q.shape)
        K += np.swapaxes(K, -1, -2)
        K *= 1.0 - np.eye(n)
        L = q + 1e-13 * (K @ q)
    else:
        L = q
    gram = np.matmul(L, np.swapaxes(L, -1, -2)) - np.eye(n)
    expected = float(np.max(np.abs(gram)))
    err = orthogonality_error(L)
    if n == 2:  # written-out sums; BLAS may fuse its multiply-adds
        assert abs(err - expected) <= 2.0 * np.finfo(float).eps
    else:
        assert err == expected


@pytest.mark.parametrize("n", [3, 4])
def test_blocked_orthogonality_error_is_the_whole_gram(rng, monkeypatch, n):
    # blocks of 7 nodes, the last one shorter, give the whole matmul's max
    chart = GridChart((0.0,) * n, (1.0,) * n, (5,) * (n - 1) + (9,))
    q, _ = np.linalg.qr(rng.standard_normal(chart.counts + (n, n)))
    L = q + 1e-13 * rng.standard_normal(q.shape)
    gram = np.matmul(L, np.swapaxes(L, -1, -2)) - np.eye(n)
    monkeypatch.setattr(frames, "_BLOCK_NODES", 7)
    assert orthogonality_error(L) == float(np.max(np.abs(gram)))


@pytest.mark.parametrize("node", [0, 30, 224], ids=["first-block", "middle-block", "last-block"])
def test_blocked_orthogonality_error_is_nan_for_a_nan_entry_in_any_block(monkeypatch, node):
    L = np.broadcast_to(np.eye(3), (5, 5, 9, 3, 3)).copy()
    L[..., 1, 1] += 1e-3  # a finite error in every block
    L.reshape(-1, 3, 3)[node, 2, 0] = np.nan
    monkeypatch.setattr(frames, "_BLOCK_NODES", 7)
    assert np.isnan(orthogonality_error(L))


@pytest.mark.parametrize("n", [2, 3])
def test_orthogonality_error_is_nan_for_a_nan_entry(n):
    chart = GridChart((0.0,) * n, (1.0,) * n, (4,) * n)
    L = np.broadcast_to(np.eye(n), chart.counts + (n, n)).copy()
    L[(1,) * n + (n - 1, 0)] = np.nan
    assert np.isnan(orthogonality_error(L))
    with pytest.raises(OrthogonalityError, match="nan"):
        require_orthogonal(L)


def test_two_dimensional_coordinate_check_needs_no_lapack_or_matmul(monkeypatch):
    fd = cosh_metric_frame(21)
    rep = solve_phi_2d(fd)

    def refuse(*args, **kwargs):
        raise AssertionError("per-node LAPACK or BLAS call on a 2D chart")

    for module, name in [(np.linalg, "det"), (np.linalg, "inv"), (np, "matmul")]:
        monkeypatch.setattr(module, name, refuse)
    check = special_coordinates_check(fd, rep)
    assert np.isfinite(check.coordinate_residuals).all()


def test_lie_bracket_of_exp_metric_frame_vectors():
    # [e_1, e_2] = [d/dx, e^x d/dy] = e^x d/dy = e_2
    fd = exp_metric_frame(41)
    comps, valid = frame_vector_fields(fd)
    assert valid.all()
    bracket = lie_bracket(fd.chart, comps[..., 0, :], comps[..., 1, :])
    diff = bracket - comps[..., 1, :]
    inner = (slice(1, -1), slice(1, -1), slice(None))
    assert np.max(np.abs(diff[inner])) < 2e-3


def test_save_load_round_trip(tmp_path):
    fd = cosh_metric_frame(13)
    path = tmp_path / "frame.pssfield"
    save_frame_data(path, fd)
    back = load_frame_data(path)
    assert back.chart.counts == fd.chart.counts
    assert np.array_equal(back.omega, fd.omega)
    assert np.array_equal(back.connection, fd.connection)


@pytest.mark.parametrize("n", [3, 4])
def test_save_load_round_trip_pins_the_component_order(tmp_path, n):
    fd = half_space_frame(n, 5)
    # a varying rotation makes every stored component distinct
    x = fd.chart.meshgrid()
    skew = np.zeros(fd.chart.counts + (n, n))
    for i in range(n):
        for j in range(i + 1, n):
            skew[..., i, j] = 0.2 * (i + 1) * x[0] + 0.1 * (j + 1) * x[-1] + 0.05 * j
            skew[..., j, i] = -skew[..., i, j]
    fd = frame_change(fd, expm_skew(skew))
    path = tmp_path / "frame.pssfield"
    save_frame_data(path, fd)
    back = load_frame_data(path)

    # file layout: omega_1..omega_n, then omega_12, omega_13, ..., omega_(n-1)n,
    # each form's n coefficients in axis order
    _, stack = read_field(path)
    want = [fd.omega[i, a] for i in range(n) for a in range(n)]
    want += [
        connection_entry(fd, i, j)[a]
        for i in range(n)
        for j in range(i + 1, n)
        for a in range(n)
    ]
    assert len(stack) == len(want)
    assert len({comp.tobytes() for comp in stack}) == len(stack)
    for comp, w in zip(stack, want):
        assert np.array_equal(comp, w)

    assert np.array_equal(back.omega, fd.omega)
    assert np.array_equal(back.connection, fd.connection)


@pytest.mark.parametrize(
    "field, omega_shape, connection_shape",
    [
        ("coframe omega", (2, 5, 5), (1, 2, 5, 5)),  # one one-form, no n x n block
        ("coframe omega", (2, 2, 5, 4), (1, 2, 5, 5)),  # another chart
        ("connection", (2, 2, 5, 5), (2, 5, 5)),  # no pair axis
        ("connection", (2, 2, 5, 5), (3, 2, 5, 5)),  # the full matrix's pairs
    ],
)
def test_frame_data_refuses_wrong_shapes(field, omega_shape, connection_shape):
    chart = square_chart(5)
    got = {"coframe omega": omega_shape, "connection": connection_shape}[field]
    right = {"coframe omega": (2, 2, 5, 5), "connection": (1, 2, 5, 5)}[field]
    message = "%s needs shape %s, got %s" % (field, right, got)
    with pytest.raises(ValueError, match=re.escape(message)):
        FrameData(chart, np.zeros(omega_shape), np.zeros(connection_shape))


def test_load_rejects_wrong_component_count(tmp_path):
    from pssframe import write_field

    chart = square_chart(5)
    write_field(tmp_path / "bad.pssfield", chart, np.zeros((5,) + chart.shape))
    with pytest.raises(ValueError, match="component count"):
        load_frame_data(tmp_path / "bad.pssfield")


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)


@NON_FINITE
@pytest.mark.parametrize("component", ["omega", "connection"])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_coefficient_fails_the_structure_gate(dim, component, value):
    fd = non_finite_frame(dim, component, value)
    assert not all(np.isfinite(structure_residuals(fd)))
    solve = solve_phi_2d if dim == 2 else solve_L_nd
    with pytest.raises(StructureGateError):
        solve(fd)


@NON_FINITE
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_coefficient_off_the_interior_fails_the_gate(dim, value):
    # the residuals are interior max-norms; the threshold still sees the corner
    fd = non_finite_frame(dim, "omega", value, node="origin")
    solve = solve_phi_2d if dim == 2 else solve_L_nd
    with pytest.raises(StructureGateError, match="non-finite coefficient"):
        solve(fd)


@NON_FINITE
@pytest.mark.parametrize("component", ["omega", "connection"])
@pytest.mark.parametrize("dim", [2, 3])
def test_load_refuses_non_finite_coefficients(tmp_path, dim, component, value):
    save_frame_data(tmp_path / "bad.pssfield", non_finite_frame(dim, component, value))
    with pytest.raises(ValueError, match="non-finite coefficient"):
        load_frame_data(tmp_path / "bad.pssfield")
