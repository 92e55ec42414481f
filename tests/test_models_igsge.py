"""The n-dimensional first-order system and its explicit solution family."""

import gc
import mmap
import re

import numpy as np
import pytest

from conftest import igsge_frame, mappings_of, needs_smaps, writable_copy
from oracles import igsge_h_from_V
from pssframe import DegenerateFrameError, FrameData, GridChart, solve_L_nd
from pssframe.models import (
    IGSGEState,
    igsge_explicit_solution,
    igsge_forms,
    igsge_residual,
)
from pssframe.rotation_solver import structure_gate


def box_chart(n, dim=3, lo1=0.5, hi1=6.0, half=4.0):
    origin = (lo1,) + (-half,) * (dim - 1)
    spacing = ((hi1 - lo1) / (n - 1),) + (2 * half / (n - 1),) * (dim - 1)
    return GridChart(origin, spacing, (n,) * dim)


C3 = (0.6, 0.8)


def test_explicit_solution_exactness_and_stencil_error():
    errs = []
    for n in (17, 33):
        state = igsge_explicit_solution(box_chart(n), C3)
        res = igsge_residual(state)
        assert res.unit < 1e-14  # algebraic identity, no stencils involved
        assert res.mixed == 0.0  # every factor vanishes identically
        errs.append(max(res.gradient, res.coupling))
    assert errs[0] == pytest.approx(1.69e-2, rel=0.05)
    order = np.log2(errs[0] / errs[1])
    assert order > 1.5


@pytest.mark.parametrize("dim,c", [(2, (1.0,)), (4, (0.5, 0.5, np.sqrt(0.5)))])
def test_explicit_solution_other_dimensions(dim, c):
    state = igsge_explicit_solution(box_chart(9, dim=dim), c)
    res = igsge_residual(state)
    assert res.unit < 1e-12
    assert res.max_residual() < 0.2  # coarse grid, still consistent


def test_explicit_solution_argument_validation():
    chart = box_chart(9)
    with pytest.raises(ValueError, match="entries"):
        igsge_explicit_solution(chart, (1.0,))
    with pytest.raises(ValueError, match="unit length"):
        igsge_explicit_solution(chart, (0.6, 0.9))
    bad = GridChart((-1.0, -4.0, -4.0), (0.5, 1.0, 1.0), (9, 9, 9))
    with pytest.raises(ValueError, match="x_1 > 0"):
        igsge_explicit_solution(bad, C3)


@pytest.mark.parametrize(
    "field, V_shape, h_shape",
    [
        ("V", (2, 5, 5, 5), (3, 3, 5, 5, 5)),  # one component short
        ("V", (3, 5, 5, 4), (3, 3, 5, 5, 5)),  # another chart
        ("h", (3, 5, 5, 5), (6, 5, 5, 5)),  # the off-diagonal entries, flat
        ("h", (3, 5, 5, 5), (3, 3, 5, 5)),  # another chart
    ],
)
def test_state_refuses_wrong_shapes(field, V_shape, h_shape):
    chart = box_chart(5)
    got = {"V": V_shape, "h": h_shape}[field]
    right = {"V": (3, 5, 5, 5), "h": (3, 3, 5, 5, 5)}[field]
    message = "%s needs shape %s, got %s" % (field, right, got)
    with pytest.raises(ValueError, match=re.escape(message)):
        IGSGEState(chart, V=np.zeros(V_shape), h=np.zeros(h_shape))


def test_unit_residual_flags_non_unit_fields():
    chart = box_chart(5)
    V = np.full((3,) + chart.counts, 0.8)
    state = IGSGEState(chart, V=V, h=np.zeros((3, 3) + chart.counts))
    assert state.unit_residual() == pytest.approx(3 * 0.64 - 1.0)


def test_h_recovery_matches_analytic_coefficients():
    errs = []
    for n in (17, 33):
        chart = box_chart(n)
        state = igsge_explicit_solution(chart, C3)
        h, valid = igsge_h_from_V(chart, state.V)
        assert valid.all()  # tanh and sech never vanish on x_1 > 0
        assert not h[[0, 1, 2], [0, 1, 2]].any()
        errs.append(float(np.max(np.abs(h - state.h))))
    assert errs[0] == pytest.approx(8.34e-2, rel=0.05)
    assert np.log2(errs[0] / errs[1]) > 1.5


def test_h_recovery_masks_nodes_below_threshold():
    chart = box_chart(17)
    state = igsge_explicit_solution(chart, C3)
    h, valid = igsge_h_from_V(chart, state.V, threshold=0.05)
    mask = valid[1]  # divisor 0.6 sech(x_1) falls below 0.05 for large x_1
    assert mask.any() and not mask.all()
    assert np.all(h[1, 0][~mask] == 0.0)
    assert np.all(h[1, 2][~mask] == 0.0)


def test_h_recovery_rejects_vanishing_component():
    chart = box_chart(9)
    state = igsge_explicit_solution(chart, (1.0, 0.0))
    with pytest.raises(DegenerateFrameError, match="component 3"):
        igsge_h_from_V(chart, state.V)


def test_forms_layout():
    chart = box_chart(9)
    state = igsge_explicit_solution(chart, C3)
    fd = igsge_forms(state)
    for i in range(3):
        for a in range(3):
            coeff = fd.omega[i, a]
            if a == i:
                assert np.array_equal(coeff, state.V[i])
            else:
                assert np.all(coeff == 0.0)
    for p, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        form = fd.connection[p]
        assert np.array_equal(form[j], state.h[i, j])
        assert np.array_equal(form[i], -state.h[j, i])


def test_identity_start_solves_exactly_on_explicit_solution():
    # the coframe is already in the target shape, so the rotation update is
    # identically zero and every certificate is exact
    chart = box_chart(17)
    state = igsge_explicit_solution(chart, C3)
    rep = solve_L_nd(igsge_forms(state))
    assert rep.compat_residual == 0.0
    assert rep.closed_residual == 0.0
    assert rep.orth_residual == 0.0
    x1 = chart.meshgrid()[0]
    assert np.max(np.abs(rep.theta1[0] - np.tanh(x1))) == 0.0
    for a in (1, 2):
        assert np.all(rep.theta1[a] == 0.0)


@pytest.mark.parametrize("dim,c", [(2, (1.0,)), (3, C3), (4, (0.5, 0.5, np.sqrt(0.5)))])
def test_explicit_solution_is_the_meshgrid_formula_bit_for_bit(dim, c):
    # tanh and sech are taken on the x_1 axis and broadcast; the full-grid
    # formula they replace is written out here
    # cosh overflows past x_1 = 710, where sech is 0 and h_1j is -0.0
    chart = box_chart(9, dim, lo1=1e-3, hi1=720.0)
    state = igsge_explicit_solution(chart, c)
    x1 = chart.meshgrid()[0]
    with np.errstate(over="ignore"):
        sech = 1.0 / np.cosh(x1)
    V = np.empty((dim,) + chart.counts)
    np.tanh(x1, out=V[0])
    h = np.zeros((dim, dim) + chart.counts)
    for j in range(1, dim):
        np.multiply(c[j - 1], sech, out=V[j])
        np.multiply(-c[j - 1], sech, out=h[0, j])
    assert np.signbit(h[0, 1, -1]).all()
    for got, want in ((state.V, V), (state.h, h)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@needs_smaps
def test_forms_hold_only_their_written_rows_after_the_row_maxima():
    # the 49^3 coframe and connection are 8.5 MB each, past numpy's
    # huge-page threshold; the structure gate's row maxima read every row
    gc.collect()  # no other mapping is unmapped while these are measured
    fd = igsge_frame(49)
    written = np.count_nonzero(fd.row_max_abs())  # 3 diagonal rows, 2 of h_1j
    assert written == 5
    found = mappings_of(fd.omega, fd.connection)
    rss = sum(r for r, _, _ in found)
    # a merged neighbour mapping holds at most its own size
    others = sum(size for _, size, _ in found) - fd.omega.nbytes - fd.connection.nbytes
    row = fd.omega[0, 0].nbytes
    assert written * row <= rss <= written * (row + mmap.PAGESIZE) + others


@pytest.mark.parametrize(
    "dim, c", [(2, (1.0,)), (3, C3), (4, (0.48, 0.6, 0.64))], ids=["2d", "3d", "4d"]
)
def test_declared_zero_rows_give_the_row_maxima_read_from_the_rows(dim, c):
    fd = igsge_forms(igsge_explicit_solution(box_chart(9, dim), c))
    rows = np.concatenate([fd.omega, fd.connection])
    # the coframe off the diagonal and every connection row but h_1j dx_j
    pairs = dim * (dim - 1) // 2
    assert np.count_nonzero(fd.zero_rows) == dim * (dim - 1) + pairs * dim - (dim - 1)
    assert not rows[fd.zero_rows].any()
    read = FrameData(fd.chart, fd.omega, fd.connection).row_max_abs()
    got = fd.row_max_abs()
    assert np.array_equal(got, read)
    # a declared row is +0; read, the max of +0 and -(+0) may be -0, and
    # live_rows takes both as a row that vanishes
    assert not np.signbit(got[fd.zero_rows]).any()
    assert np.array_equal(got[~fd.zero_rows].view(np.int64), read[~fd.zero_rows].view(np.int64))


def test_zero_rows_of_the_wrong_shape_are_refused():
    fd = igsge_frame(5)
    with pytest.raises(ValueError, match=r"zero_rows needs shape \(6, 3\)"):
        FrameData(fd.chart, fd.omega, fd.connection, np.zeros((3, 3), bool))


@pytest.mark.parametrize("form, row", [("omega", 2), ("connection", 5)])
def test_a_declared_frame_refuses_writes(form, row):
    # row_max_abs never reads a declared row, so a value written there
    # would pass the structure gate unseen: the bundle refuses the write,
    # and a writable copy drops the declaration
    fd = igsge_frame(13)
    assert fd.zero_rows[row, 0]  # the dx_1 row of omega_3 or of omega_23
    with pytest.raises(ValueError, match="read-only"):
        getattr(fd, form)[2, 0, 6, 4, 7] = np.inf
    copy = writable_copy(fd)
    assert copy.zero_rows is None
    getattr(copy, form)[2, 0, 6, 4, 7] = np.inf
    assert copy.row_max_abs()[row, 0] == np.inf
    _, threshold, ok = structure_gate(copy, 10.0)
    assert threshold == np.inf and not ok
