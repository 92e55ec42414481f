"""Frame bundles: structure equations, rotations, dual vectors, persistence."""

import numpy as np
import pytest

from pssframe import (
    ConnectionField,
    FrameData,
    FrameRotationField,
    GridChart,
    OneFormField,
    ScalarField,
    frame_change,
    frame_vector_fields,
    lie_bracket,
    load_frame_data,
    save_frame_data,
    read_field,
    special_frame_residual,
    structure_residuals,
    wedge,
)
from pssframe.errors import (
    DegenerateFrameError,
    OrthogonalityError,
    PssframeError,
    StructureGateError,
)

from pssframe.forms import d_oneform
from pssframe.models import ch_evolve, ch_forms, sg_forms, sg_solution
from pssframe.rotation_solver import expm_skew, solve_L_nd, solve_phi_2d

from conftest import (
    cosh_metric_frame,
    exp_metric_frame,
    flat_frame,
    half_space_frame,
    igsge_frame,
    non_finite_frame,
    square_chart,
    varying_rotation_frame,
)


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


def full_grid_structure_residuals(fd, curvature=-1.0):
    """`structure_residuals` as the full-grid forms spell it: d and wedge at
    every node, negated copies of the entries below the diagonal, and only
    then the interior read off."""
    n = fd.dim
    conn = fd.connection
    res1 = []
    for i in range(n):
        resid = d_oneform(fd.omega[i])
        for j in range(n):
            if j != i:
                resid.values -= wedge(fd.omega[j], conn.entry(j, i)).values
        res1.append(resid.interior_max_abs())
    res2 = []
    for i in range(n):
        for j in range(i + 1, n):
            resid = d_oneform(conn.entry(i, j))
            for k in range(n):
                if k != i and k != j:
                    resid.values -= wedge(conn.entry(i, k), conn.entry(k, j)).values
            resid.values += wedge(fd.omega[i], fd.omega[j]).values * float(curvature)
            res2.append(resid.interior_max_abs())
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
    omega = tuple(OneFormField(chart, rng.uniform(-1, 1, (dim,) + chart.counts)) for _ in range(dim))
    upper = rng.uniform(-1, 1, (dim * (dim - 1) // 2, dim) + chart.counts)
    return FrameData(chart, omega, ConnectionField(chart, upper))


def _nan_frame():
    fd = igsge_frame(13)
    fd.connection.values[2, 1, 6, 4, 7] = np.nan
    return fd


@pytest.mark.parametrize(
    "make",
    [
        lambda: igsge_frame(13),
        lambda: igsge_frame(17),
        _kink_frame,
        _ch_order_zero_frame,
        _four_dimensional_varying_rotation_frame,
        _nan_frame,
        lambda: non_finite_frame(2, "omega", np.inf),
    ],
    ids=["igsge13", "igsge17", "kink", "ch-order-0", "varying-4d", "nan", "inf-2d"],
)
@pytest.mark.parametrize("curvature", [-1.0, 0.5])
def test_structure_residuals_are_bitwise_the_full_grid_forms(make, curvature):
    fd = make()
    got = structure_residuals(fd, curvature)
    want = full_grid_structure_residuals(fd, curvature)
    # max-norms are never -0.0, so equal doubles are equal bits
    assert np.array_equal(got, want, equal_nan=True)


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
    rotated = frame_change(fd, FrameRotationField.identity(fd.chart))
    for w0, w1 in zip(fd.omega, rotated.omega):
        for a in range(2):
            assert np.array_equal(w0.coefficient(a).values, w1.coefficient(a).values)
    assert np.allclose(
        rotated.connection.entry(0, 1).coefficient(1).values,
        fd.connection.entry(0, 1).coefficient(1).values,
        atol=1e-15,
    )


def test_frame_change_round_trip_with_smooth_rotation():
    fd = cosh_metric_frame(33)
    phi = ScalarField.from_function(fd.chart, lambda x, y: 0.3 * x + 0.1 * y * y)
    rot = FrameRotationField.from_angle(phi)
    inv = FrameRotationField(fd.chart, np.swapaxes(rot.matrix, -1, -2))
    back = frame_change(frame_change(fd, rot), inv)
    for w0, w1 in zip(fd.omega, back.omega):
        for a in range(2):
            assert np.max(np.abs(w0.coefficient(a).values - w1.coefficient(a).values)) < 1e-12
    # connection round trip only holds to stencil order (dL terms)
    diff = back.connection.entry(0, 1) - fd.connection.entry(0, 1)
    assert diff.max_abs() < 5e-3


def test_frame_change_by_constant_rotation_preserves_structure():
    fd = cosh_metric_frame(41)
    base = structure_residuals(fd)
    c, s = np.cos(0.7), np.sin(0.7)
    rot = FrameRotationField.constant(fd.chart, np.array([[c, -s], [s, c]]))
    rotated = frame_change(fd, rot)
    res = structure_residuals(rotated)
    assert max(res) <= 2.0 * max(base) + 1e-12


def test_rotation_field_rejects_non_orthogonal_matrix():
    chart = square_chart(5)
    bad = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]), chart.counts + (2, 2))
    with pytest.raises(ValueError, match="not orthogonal"):
        FrameRotationField(chart, bad.copy())


def test_non_orthogonal_rotation_raises_package_error():
    chart = square_chart(5)
    bad = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]), chart.counts + (2, 2))
    with pytest.raises(OrthogonalityError) as info:
        FrameRotationField(chart, bad.copy())
    assert isinstance(info.value, PssframeError)


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
    scaled = ScalarField(fd.chart, x) * fd.omega[1].coefficient(1)
    from pssframe import OneFormField

    omega2 = OneFormField.from_arrays(
        fd.chart, [np.zeros(fd.chart.shape), scaled.values]
    )
    fd2 = FrameData(fd.chart, (fd.omega[0], omega2), fd.connection)
    comps, valid = frame_vector_fields(fd2, det_rtol=1e-8)
    assert not valid[15, :].any()  # the x = 0 grid line is singular
    assert valid[0, :].all() and valid[-1, :].all()
    assert np.all(comps[15, :, :, :] == 0.0)


def test_frame_vector_fields_raises_when_singular_everywhere():
    fd = exp_metric_frame(9)
    from pssframe import OneFormField

    zero = OneFormField.zeros(fd.chart)
    fd2 = FrameData(fd.chart, (fd.omega[0], zero), fd.connection)
    with pytest.raises(DegenerateFrameError):
        frame_vector_fields(fd2)


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
    for w0, w1 in zip(fd.omega, back.omega):
        for a in range(2):
            assert np.array_equal(w0.coefficient(a).values, w1.coefficient(a).values)
    assert np.array_equal(
        back.connection.entry(0, 1).coefficient(1).values,
        fd.connection.entry(0, 1).coefficient(1).values,
    )


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
    fd = frame_change(fd, FrameRotationField(fd.chart, expm_skew(skew)))
    path = tmp_path / "frame.pssfield"
    save_frame_data(path, fd)
    back = load_frame_data(path)

    # file layout: omega_1..omega_n, then omega_12, omega_13, ..., omega_(n-1)n,
    # each form's n coefficients in axis order
    _, stack = read_field(path)
    want = [w.coefficient(a).values for w in fd.omega for a in range(n)]
    want += [
        fd.connection.entry(i, j).coefficient(a).values
        for i in range(n)
        for j in range(i + 1, n)
        for a in range(n)
    ]
    assert len(stack) == len(want)
    assert len({comp.tobytes() for comp in stack}) == len(stack)
    for comp, w in zip(stack, want):
        assert np.array_equal(comp, w)

    for i in range(n):
        for a in range(n):
            assert np.array_equal(
                back.omega[i].coefficient(a).values, fd.omega[i].coefficient(a).values
            )
        for j in range(n):
            for a in range(n):
                assert np.array_equal(
                    back.connection.entry(i, j).coefficient(a).values,
                    fd.connection.entry(i, j).coefficient(a).values,
                )


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
