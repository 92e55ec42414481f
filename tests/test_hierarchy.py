"""Truncated parameter series and the order-by-order angle hierarchy."""

import tracemalloc

import numpy as np
import pytest

from pssframe import EtaSeries, hierarchy, solve_hierarchy, solve_phi_2d
from pssframe.errors import PssframeError, StructureGateError
from pssframe.grid import midpoints
from pssframe.hierarchy import (
    _angle_rhs,
    _angle_return,
    _integrate_line,
    _periodic_angle_start,
    _periodic_linear_start,
    closed_form_series,
    expand_phi_system,
)
from pssframe.models import ch_evolve, ch_forms, ch_from_arrays, ch_series_table
from pssframe.rotation_solver import additive_kernels, line_steps, rkmk4_step


def random_series(rng, order, shape=()):
    return EtaSeries(rng.standard_normal((order + 1,) + shape))


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_series_ring_laws(rng, shape):
    a = random_series(rng, 4, shape)
    b = random_series(rng, 4, shape)
    c = random_series(rng, 4, shape)
    comm = (a * b).coeffs - (b * a).coeffs
    assert np.max(np.abs(comm)) < 1e-14
    distrib = ((a + b) * c).coeffs - ((a * c).coeffs + (b * c).coeffs)
    assert np.max(np.abs(distrib)) < 1e-13
    assoc = ((a * b) * c).coeffs - (a * (b * c)).coeffs
    assert np.max(np.abs(assoc)) < 1e-13


def test_series_truncated_product_drops_high_powers():
    x = EtaSeries.from_terms({1: 1.0}, 2)  # eta itself, truncated at order 2
    sq = x * x
    cube = sq * x
    assert np.allclose(sq.coeffs, [0.0, 0.0, 1.0])
    assert np.allclose(cube.coeffs, [0.0, 0.0, 0.0])  # eta^3 is out of window


def test_series_shift_and_eval(rng):
    a = random_series(rng, 3)
    shifted = a.shifted(2)
    assert shifted.coefficient(0) == 0.0 and shifted.coefficient(1) == 0.0
    assert shifted.coefficient(2) == pytest.approx(a.coefficient(0))
    eta = 0.37
    manual = sum(a.coefficient(j) * eta**j for j in range(4))
    assert a.evaluate(eta) == pytest.approx(manual, rel=1e-14)


def test_series_pythagorean_identity(rng):
    phi = random_series(rng, 5, (7,))
    s, c = phi.sin_cos()
    total = (s * s + c * c).coeffs
    assert np.max(np.abs(total[0] - 1.0)) < 1e-14
    assert np.max(np.abs(total[1:])) < 1e-13


def test_series_sin_cos_match_pointwise_composition(rng):
    phi = random_series(rng, 4)
    s, _ = phi.sin_cos()
    errs = []
    for eta in (0.1, 0.05):
        truth = np.sin(phi.evaluate(eta))
        # evaluate() collapses the same truncation both ways, so compare the
        # series of sin against the sin of the full (untruncated) polynomial
        poly = sum(phi.coefficient(j) * eta**j for j in range(5))
        errs.append(abs(s.evaluate(eta) - np.sin(poly)))
    assert errs[0] < 1e-4
    assert errs[1] / errs[0] < 0.06  # O(eta^5) remainder: ~2^-5 per halving


def _small_ch_table(order=1):
    state = ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=0.5,
        nx=64,
        nt=8,
    )
    return state, ch_series_table(state, order)


def test_expanded_order_zero_rhs_matches_direct_formula():
    # at order 0, the expanded x and t right-hand sides must coincide with
    # the scalar angle equation evaluated on the parameter-free coefficients
    state, table = _small_ch_table(0)
    phi = EtaSeries.from_terms({0: 0.3}, 0, state.chart.shape)
    phi.coeffs[0] = 0.3 + 0.01 * np.arange(phi.coeffs[0].size).reshape(state.chart.shape)
    rhs_x, rhs_t = expand_phi_system(table, phi)
    c, s = np.cos(phi.coeffs[0]), np.sin(phi.coeffs[0])
    f11, f12 = table[0][0].coefficient(0), table[0][1].coefficient(0)
    f21, f22 = table[1][0].coefficient(0), table[1][1].coefficient(0)
    f31, f32 = table[2][0].coefficient(0), table[2][1].coefficient(0)
    assert np.max(np.abs(rhs_x.coefficient(0) - (f31 + s * f11 + c * f21))) < 1e-13
    assert np.max(np.abs(rhs_t.coefficient(0) - (f32 + s * f12 + c * f22))) < 1e-13


def test_closed_form_series_order_zero_matches_direct_formula():
    state, table = _small_ch_table(0)
    phi = EtaSeries(0.2 * np.ones((1,) + state.chart.shape))
    fx, ft = closed_form_series(table, phi)
    c, s = np.cos(0.2), np.sin(0.2)
    want_x = c * table[0][0].coefficient(0) - s * table[1][0].coefficient(0)
    want_t = c * table[0][1].coefficient(0) - s * table[1][1].coefficient(0)
    assert np.max(np.abs(fx.coefficient(0) - want_x)) < 1e-13
    assert np.max(np.abs(ft.coefficient(0) - want_t)) < 1e-13


def test_hierarchy_order_zero_agrees_with_scalar_solve():
    state, table = _small_ch_table(1)
    result = solve_hierarchy(state.chart, table, 1)
    fd0 = ch_forms(state, 0.0)
    rep = solve_phi_2d(fd0)
    zero = result.orders[0]
    assert np.max(np.abs(zero.phi - rep.angle)) < 1e-12
    for a in range(2):
        diff = zero.form[a] - rep.theta1[a]
        assert np.max(np.abs(diff)) < 1e-12


def test_hierarchy_series_is_taylor_expansion_of_nonlinear_solve():
    # evaluating the truncated phi series at small eta must reproduce the
    # direct nonlinear solve of the eta-frozen coframe to O(eta^{K+1})
    state, table = _small_ch_table(2)
    table = ch_series_table(state, 2)
    result = solve_hierarchy(state.chart, table, 2)
    errs = []
    for eta in (0.1, 0.05):
        fd = ch_forms(state, eta)
        rep = solve_phi_2d(fd)
        series_phi = result.phi_series.evaluate(eta)
        errs.append(float(np.max(np.abs(series_phi - rep.angle))))
    assert errs[0] < 2e-2
    assert errs[1] / errs[0] < 0.25  # at least O(eta^3) shrinkage: 8x per halving
    assert errs[1] / errs[0] > 0.05  # and not accidentally exact


def test_hierarchy_start_values_are_respected():
    state, table = _small_ch_table(1)
    result = solve_hierarchy(state.chart, table, 1, start_values={0: 0.3, 1: -0.2})
    base = result.base_index
    assert result.orders[0].phi[base] == pytest.approx(0.3)
    assert result.orders[1].phi[base] == pytest.approx(-0.2)
    assert result.orders[0].start_value == pytest.approx(0.3)
    assert result.orders[1].start_value == pytest.approx(-0.2)


def test_hierarchy_periodic_mode_closes_the_angle_in_x():
    state, table = _small_ch_table(1)
    result = solve_hierarchy(state.chart, table, 1, periodic_axis=0)
    # base moves to the x = 0 column and the solved angle is x-periodic
    assert result.base_index[0] == 0
    phi0 = result.orders[0].phi
    gap = np.abs(phi0[-1, :] - phi0[0, :] - 2 * np.pi * np.round((phi0[-1, :] - phi0[0, :]) / (2 * np.pi)))
    assert np.max(gap) < 1e-6
    phi1 = result.orders[1].phi
    assert np.max(np.abs(phi1[-1, :] - phi1[0, :])) < 1e-6


def test_hierarchy_summary_lines_shape():
    state, table = _small_ch_table(1)
    result = solve_hierarchy(state.chart, table, 1)
    lines = result.summary_lines()
    assert len(lines) == 2
    assert lines[0].startswith("order 0: compat=")
    assert "start=" in lines[1]


def test_hierarchy_rejects_bad_arguments():
    state, table = _small_ch_table(1)
    with pytest.raises(ValueError):
        solve_hierarchy(state.chart, table, -1)
    with pytest.raises(ValueError):
        solve_hierarchy(state.chart, table, 1, periodic_axis=1)
    with pytest.raises(ValueError):
        solve_hierarchy(state.chart, ch_series_table(state, 0), 1)


# Order-8 periodic hierarchy on a small evolved Camassa-Holm state: per order
# (start value, compat residual, phi_k at the corners [0,0], [0,-1], [-1,0],
# [-1,-1]), recorded from the factorial-series sin/cos and bisection start
# finder that the Taylor-mode recurrences and Newton starts replaced.
FROZEN_PERIODIC_ORDER_8 = [
    (0.9785628119406722, 9.397148763579111e-07,
     (1.1046759433926794, 0.869912355870919, 1.1046759433926954, 0.8699123558709398)),
    (1.829695925883224, 1.4977804390081673e-06,
     (1.8933185360189022, 1.7642724039808884, 1.8933185360189002, 1.76427240398089)),
    (0.510682100723597, 2.0437769426839836e-06,
     (0.4254511073751119, 0.5688836616694474, 0.4254511073751108, 0.5688836616694495)),
    (-0.3679179135172623, 2.798523887403981e-06,
     (-0.46997096574585, -0.27419721426345744, -0.46997096574584907, -0.2741972142634579)),
    (-0.38763126290282895, 4.392608493275496e-06,
     (-0.35979062318795185, -0.3835374129782142, -0.3597906231879503, -0.3835374129782161)),
    (0.028848951805942442, 4.530785716938546e-06,
     (0.13758345616111115, -0.05274390440522404, 0.13758345616111098, -0.052743904405224876)),
    (0.24983645752066744, 7.232037972482175e-06,
     (0.2785943531419555, 0.19721062210861842, 0.27859435314195385, 0.1972106221086195)),
    (0.10068678893929911, 6.987856078360943e-06,
     (0.01428757806492291, 0.14224422776552206, 0.01428757806492228, 0.14224422776552337)),
    (-0.12224414236337605, 9.372178400302023e-06,
     (-0.1921832348568382, -0.05021114065617347, -0.19218323485683675, -0.050211140656173534)),
]


def _periodic_ch_state(nt=16):
    return ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=1.0,
        nx=64,
        nt=nt,
    )


def test_periodic_order_8_matches_frozen_reference():
    state = _periodic_ch_state()
    result = solve_hierarchy(state.chart, ch_series_table(state, 8), 8, periodic_axis=0)
    assert len(result.orders) == len(FROZEN_PERIODIC_ORDER_8)
    for item, (start, compat, corners) in zip(result.orders, FROZEN_PERIODIC_ORDER_8):
        phi = item.phi
        got = [phi[0, 0], phi[0, -1], phi[-1, 0], phi[-1, -1]]
        assert abs(item.start_value - start) <= 1e-12
        assert abs(item.compat_residual - compat) <= 1e-12
        assert np.max(np.abs(np.subtract(got, corners))) <= 1e-12


def _line(values, count=33):
    return np.full(count, float(values))


def test_periodic_angle_start_is_a_fixed_point_of_the_return_map():
    state = _periodic_ch_state()
    table = ch_series_table(state, 0)
    t_line = state.chart.counts[1] // 2
    fields = [table[row][0].coefficient(0)[:, t_line] for row in range(3)]
    h = state.chart.spacing[0]
    y = _periodic_angle_start(h, fields)
    mids = [midpoints(f, 0) for f in fields]
    gap = _integrate_line(y, h, fields, mids, _angle_rhs) - y
    assert abs(gap - 2 * np.pi * round(gap / (2 * np.pi))) <= 1e-12


def test_variational_equation_gives_the_return_map_slope():
    x = np.linspace(0.0, 2 * np.pi, 65)
    fields = [0.3 + 0.1 * np.cos(x), 0.2 * np.sin(x), 0.5 + 0.0 * x]
    h = x[1] - x[0]
    mids = [midpoints(f, 0) for f in fields]
    y, eps = 0.4, 1e-6
    _, slope = _angle_return(h, line_steps(fields, mids), y)
    up, down = (_integrate_line(y + d, h, fields, mids, _angle_rhs) for d in (eps, -eps))
    assert abs(slope - (up - down) / (2 * eps)) < 1e-8


def test_periodic_angle_start_without_fixed_point_is_refused():
    # y' = 5 + 0.1 sin(y) over unit length: the displacement stays within
    # [4.9, 5.1], which holds no multiple of 2 pi
    fields = [_line(0.1), _line(0.0), _line(5.0)]
    with pytest.raises(PssframeError, match="no periodic starting angle"):
        _periodic_angle_start(1.0 / 32, fields)


def test_periodic_linear_start_closes_its_line():
    x = np.linspace(0.0, 2 * np.pi, 65)
    fields = [0.3 + 0.2 * np.cos(x), 0.5 + np.sin(x)]
    h = x[1] - x[0]
    y = _periodic_linear_start(h, fields[0])(fields[1])
    mids = [midpoints(f, 0) for f in fields]
    end = _integrate_line(y, h, fields, mids, lambda s, v: s[0] * v + s[1])
    assert abs(end - y) <= 1e-12


def test_periodic_linear_start_with_unit_gain_is_resonant():
    # y' = 1: the return map y -> y + 1 has gain one and no fixed point
    with pytest.raises(PssframeError, match="resonant"):
        _periodic_linear_start(1.0 / 32, _line(0.0))(_line(1.0))


def _angle_rhs_variational(s, yv):
    # the angle equation stacked with its variational equation on a
    # two-entry array, as the Newton line stepped it before it ran on floats
    y, v = yv
    sin_y, cos_y = np.sin(y), np.cos(y)
    return np.array(
        [s[2] + sin_y * s[0] + cos_y * s[1], (cos_y * s[0] - sin_y * s[1]) * v]
    )


def _array_angle_return(h, steps, y):
    yv = np.array([y, 1.0])
    for lo, md, hi in steps:
        yv = rkmk4_step(h, yv, lo, md, hi, additive_kernels(_angle_rhs_variational))
    return tuple(yv.tolist())


def _ch_base_line():
    state = _periodic_ch_state()
    table = ch_series_table(state, 0)
    t_line = state.chart.counts[1] // 2
    fields = [table[row][0].coefficient(0)[:, t_line] for row in range(3)]
    return state.chart.spacing[0], fields


def test_float_newton_line_is_the_array_line_bit_for_bit(monkeypatch):
    # math.sin / math.cos and np.sin / np.cos must agree on every sample, or
    # this fails on the platform where they do not
    h, fields = _ch_base_line()
    steps = line_steps(fields, [midpoints(f, 0) for f in fields])
    for y in np.linspace(-np.pi, np.pi, 13).tolist() + [0.123456789, 2.5e-9]:
        assert _angle_return(h, steps, y) == _array_angle_return(h, steps, y)
    start = _periodic_angle_start(h, fields)
    monkeypatch.setattr(hierarchy, "_angle_return", _array_angle_return)
    assert _periodic_angle_start(h, fields) == start


# tracemalloc peak in bytes of solve_hierarchy on the 64 x 16 periodic CH
# state to order 4 when every order formed its own slope maps
CH64_HIERARCHY_PEAK = 560_658


def test_hierarchy_holds_no_more_memory_than_per_order_maps():
    small = _periodic_ch_state(nt=4)
    solve_hierarchy(small.chart, ch_series_table(small, 4), 4, periodic_axis=0)
    state = _periodic_ch_state()
    table = ch_series_table(state, 4)
    tracemalloc.start()
    try:
        solve_hierarchy(state.chart, table, 4, periodic_axis=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CH64_HIERARCHY_PEAK


@pytest.mark.parametrize("periodic_axis", [0, None])
def test_non_finite_state_on_the_start_line_fails_the_gate(periodic_axis):
    # NaN on the periodic start line reaches the gate, not the return map scan
    state = _periodic_ch_state()
    u = state.u.copy()
    u[5, :] = np.nan
    bad = ch_from_arrays(state.chart, state.m, u, state.u_x, state.u_xx)
    table = ch_series_table(bad, 2)
    with pytest.raises(StructureGateError, match="non-finite"):
        solve_hierarchy(bad.chart, table, 2, periodic_axis=periodic_axis)
    if periodic_axis == 0:  # and without a gate, the start refuses the line
        with pytest.raises(PssframeError, match="start line holds a non-finite"):
            solve_hierarchy(bad.chart, table, 2, periodic_axis=0, gate_factor=None)
