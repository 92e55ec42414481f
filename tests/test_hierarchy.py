"""Truncated parameter series and the order-by-order angle hierarchy."""

import tracemalloc

import numpy as np
import pytest

from pssframe import EtaSeries, hierarchy, solve_hierarchy, solve_phi_2d
from pssframe.errors import PssframeError, StructureGateError
from pssframe.grid import midpoints
from pssframe.hierarchy import (
    _periodic_angle_start,
    _periodic_linear_start,
    closed_form_series,
    expand_phi_system,
)
from pssframe.models import ch_evolve, ch_forms, ch_from_arrays, ch_series_table
from pssframe.rotation_solver import (
    additive_kernels,
    angle_rhs as _angle_rhs,
    integrate_line,
    linear_fills,
    sweep_linear,
)


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
    shape = state.chart.shape
    phi0 = 0.3 + 0.01 * np.arange(np.prod(shape)).reshape(shape)
    phi = EtaSeries.from_terms({0: phi0}, 0, shape)
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
# [-1,-1]).  Recorded from the monodromy start of order zero; against the
# scan and Newton start it replaced, the order-zero start moved -7.84e-8 (an
# O(h^4) change of discretization), the later starts at most 1.5e-13 and
# every compat residual and corner value at most 1.7e-7 relative.
FROZEN_PERIODIC_ORDER_8 = [
    (0.9785627335892682, 9.397148521550491e-07,
     (1.104675874719656, 0.869912264660796, 1.1046759309952159, 0.8699123394048585)),
    (1.829695925883204, 1.4977804083660118e-06,
     (1.8933185434899336, 1.7642723960749558, 1.8933185373676245, 1.7642724025536196)),
    (0.5106821007235872, 2.043777117266554e-06,
     (0.42545111291735443, 0.5688836535873163, 0.4254511083756406, 0.5688836602103781)),
    (-0.3679179135172279, 2.7985238399974577e-06,
     (-0.46997097032752816, -0.27419721250144363, -0.46997096657294846, -0.2741972139453328)),
    (-0.3876312629028228, 4.392608811742971e-06,
     (-0.35979063049369076, -0.3835374047123979, -0.3597906245068471, -0.38353741148598725)),
    (0.028848951805872398, 4.530785927325809e-06,
     (0.13758345721499338, -0.052743900629048455, 0.13758345635131256, -0.052743903723576915)),
    (0.24983645752061878, 7.232038440996291e-06,
     (0.2785943605316232, 0.1972106172522735, 0.278594354475975, 0.19721062123185704)),
    (0.10068678893940065, 6.987856641937906e-06,
     (0.014287580388382433, 0.14224422130269546, 0.014287578484459643, 0.14224422659887834)),
    (-0.1222441423632255, 9.372178462002667e-06,
     (-0.19218324080807483, -0.05021114053997171, -0.19218323593110714, -0.050211140635050264)),
]


def _periodic_ch_state(nt=16, nx=64):
    return ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=1.0,
        nx=nx,
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


def _start_line(state):
    """h and the (s0, s1, s2) samples of the order-zero angle equation along
    the first-axis line through the base of a periodic CH state."""
    table = ch_series_table(state, 0)
    t_line = state.chart.base_index("center")[1]
    return state.chart.spacing[0], [table[row][0].coefficient(0)[:, t_line] for row in range(3)]


def _lifted_rhs(s, u):
    # u' = G u, G = [[0, -s2, -s0], [s2, 0, s1], [-s0, s1, 0]], written out
    s0, s1, s2 = s
    return np.array([-s2 * u[1] - s0 * u[2], s2 * u[0] + s1 * u[2], -s0 * u[0] + s1 * u[1]])


def _line_end(h, y, fields, rhs):
    """The end state of the RK4 line engine from y along the node fields."""
    mids = [midpoints(f, 0) for f in fields]
    return list(integrate_line(h, y, fields, mids, additive_kernels(rhs)))[-1]


def _expanding_eigenvector(h, fields):
    """(l, v) of the monodromy of the lifted line, formed by the line engine
    from I: its largest eigenvalue and that eigenvector with v[2] > 0."""
    values, vectors = np.linalg.eig(_line_end(h, np.eye(3), fields, _lifted_rhs))
    k = np.argmax(values.real)
    v = vectors[:, k].real
    return values[k].real, v if v[2] > 0.0 else -v


def _analytic_line():
    # every field nonzero: the CH line's omega_2 row vanishes at order zero
    x = np.linspace(0.0, 2 * np.pi, 65)
    return x[1] - x[0], [1.0 + 0.3 * np.cos(x), 0.8 * np.sin(x), 0.4 + 0.0 * x]


@pytest.mark.parametrize("line", ["ch", "analytic"])
def test_periodic_angle_start_is_a_fixed_point_of_the_return_map(line):
    # on the linear line: the expanding null eigenvector v comes back as l v,
    # l > 1, and the start is its angle
    h, fields = _start_line(_periodic_ch_state()) if line == "ch" else _analytic_line()
    gain, v = _expanding_eigenvector(h, fields)
    assert gain > 1.0
    assert np.max(np.abs(_line_end(h, v, fields, _lifted_rhs) - gain * v)) <= 1e-12 * gain
    assert abs(_periodic_angle_start(h, fields) - np.arctan2(v[1], v[0])) <= 1e-12


def test_periodic_angle_start_closes_the_angle_line_at_fourth_order():
    # the angle line and its lift are two RK4 discretizations of one
    # equation, so the angle line from the lift's start closes to O(h^4)
    gaps = []
    for nx in (64, 128, 256):
        h, fields = _start_line(_periodic_ch_state(nx=nx))
        y = _periodic_angle_start(h, fields)
        gap = _line_end(h, y, fields, _angle_rhs) - y
        gaps.append(abs(gap - 2 * np.pi * round(gap / (2 * np.pi))))
    assert min(np.log2(np.divide(gaps[:-1], gaps[1:]))) >= 3.5


def test_periodic_start_gain_is_the_exponential_of_minus_the_period_integral():
    # l = exp(-oint theta_1) over the start line, by the periodic trapezoid sum
    state = _periodic_ch_state()
    h, fields = _start_line(state)
    gain = _expanding_eigenvector(h, fields)[0]
    result = solve_hierarchy(state.chart, ch_series_table(state, 0), 0, periodic_axis=0)
    theta1 = result.orders[0].form[0][:, result.base_index[1]]
    assert gain == pytest.approx(np.exp(-h * np.sum(theta1[:-1])), rel=1e-7)


def test_periodic_angle_start_on_the_benchmark_line():
    # the ch-hierarchy-conserve model; the scan and Newton start that the
    # monodromy start replaced gave 0.869912116689356
    state = ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=2.0,
        nx=512,
        nt=128,
    )
    assert abs(_periodic_angle_start(*_start_line(state)) - 0.869912116689356) <= 1e-10


def test_periodic_angle_start_without_fixed_point_is_refused():
    # y' = 5 + 0.1 sin(y) over unit length: the displacement stays within
    # [4.9, 5.1], which holds no multiple of 2 pi, and the monodromy is elliptic
    fields = [_line(0.1), _line(0.0), _line(5.0)]
    assert np.trace(_line_end(1.0 / 32, np.eye(3), fields, _lifted_rhs)) < 3.0
    with pytest.raises(PssframeError, match="no periodic starting angle"):
        _periodic_angle_start(1.0 / 32, fields)


@pytest.mark.parametrize("count", [17, 33, 65])
@pytest.mark.parametrize("s", [0.3, 0.7, 1.0, -1.3])
def test_parabolic_line_gives_a_finite_start_or_the_refusal(s, count):
    # y' = s (1 + sin(y)): tr M = 3 to round-off, so round-off decides;
    # a start it gives is near the one fixed point -pi/2, not its antipode
    fields = [_line(s, count), _line(0.0, count), _line(s, count)]
    try:
        y = _periodic_angle_start(1.0 / (count - 1), fields)
    except PssframeError as err:
        assert str(err).startswith("no periodic starting angle")
    else:
        assert abs(y + 0.5 * np.pi) < 0.05


def test_overflowing_monodromy_is_refused():
    # y' = 40 sin(y) over length 20: the gain exp(800) overflows
    fields = [_line(40.0, 401), _line(0.0, 401), _line(0.0, 401)]
    with pytest.raises(PssframeError, match="monodromy overflows"):
        _periodic_angle_start(0.05, fields)


def test_periodic_linear_start_closes_its_line():
    x = np.linspace(0.0, 2 * np.pi, 65)
    fields = [0.3 + 0.2 * np.cos(x), 0.5 + np.sin(x)]
    h = x[1] - x[0]
    y = _periodic_linear_start(h, fields[0])(fields[1])
    end = _line_end(h, y, fields, lambda s, v: s[0] * v + s[1])
    assert abs(end - y) <= 1e-12


def test_periodic_linear_start_with_unit_gain_is_resonant():
    # y' = 1: the return map y -> y + 1 has gain one and no fixed point
    with pytest.raises(PssframeError, match="resonant"):
        _periodic_linear_start(1.0 / 32, _line(0.0))(_line(1.0))


# tracemalloc peak in bytes of solve_hierarchy on the 64 x 16 periodic CH
# state to order 4: 560,658 when every order formed its own slope maps,
# 517,175 with shared maps and each exchanged-order sweep held whole, about
# 351,900 with the certificates streamed and phi_j swept into its stack,
# 342,400 with the forms in the sin/cos stack and the slopes dropped (run
# alone; less after other tests, whose freed small objects it reuses)
CH64_HIERARCHY_PEAK = 346_000
# tracemalloc peak in bytes of building the order-8 table and solving the
# hierarchy on the 513 x 129 periodic CH state of the benchmark: 66.9 MB
# with the table stored to order 8 and the whole exchanged-order sweeps,
# 33.58 MB with the table at its degree and the certificates streamed,
# 27.68 MB with one coefficient per power, the forms in the sin/cos stack
# and the slopes dropped (run alone)
CH513_HIERARCHY_PEAK = 27_800_000


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


def test_table_and_hierarchy_hold_each_full_grid_array_once():
    state = ch_evolve(
        lambda x: 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0),
        m=0.5,
        period=6.0,
        t_final=2.0,
        nx=512,
        nt=128,
    )
    tracemalloc.start()
    try:
        solve_hierarchy(state.chart, ch_series_table(state, 8), 8, periodic_axis=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CH513_HIERARCHY_PEAK


def _whole_linear_sweeps(monkeypatch):
    """Record every order's exchanged-order sweep and redo both sweeps whole.

    Returns a list that fills, per order >= 1 in solve order, with
    (sol, sol_ex): two whole `sweep_linear` runs from that order's start
    and sources, in the forward and the exchanged axis order.
    """
    slopes, whole = [], []

    def fills(chart, base, axes_order, order_slopes, streamed=False):
        slopes.append(order_slopes)
        return linear_fills(chart, base, axes_order, order_slopes, streamed)

    def sweep(chart, base, order_fills, start, sources, sink=None, out=None):
        if sink is not None:
            sol, sol_ex = (
                sweep_linear(chart, base, linear_fills(chart, base, axes, slopes[-1]), start, sources)
                for axes in ((0, 1), (1, 0))
            )
            whole.append((sol, sol_ex))
        return sweep_linear(chart, base, order_fills, start, sources, sink, out)

    monkeypatch.setattr(hierarchy, "linear_fills", fills)
    monkeypatch.setattr(hierarchy, "sweep_linear", sweep)
    return whole


@pytest.mark.parametrize(
    "options",
    [{"periodic_axis": 0}, {"start_values": {0: 0.3, 1: -0.2, 3: 0.05}}],
    ids=["periodic", "pinned"],
)
def test_streamed_order_certificate_is_the_whole_sweeps_max(monkeypatch, options):
    state = _periodic_ch_state()
    whole = _whole_linear_sweeps(monkeypatch)
    result = solve_hierarchy(state.chart, ch_series_table(state, 4), 4, **options)
    assert len(whole) == 4
    for item, (sol, sol_ex) in zip(result.orders[1:], whole):
        assert np.array_equal(item.phi, sol)
        assert item.compat_residual == float(np.max(np.abs(sol - sol_ex)))


def test_non_finite_source_gives_nan_order_compat():
    # a dx source coefficient of order 2 off the base t line: only the
    # exchanged-order sweep reads it, so phi_2 stays finite and the
    # certificate does not
    state, table = _small_ch_table(2)
    t_line = state.chart.base_index("center")[1]
    f31 = table[2][0]  # its power 2 is the constant 1/2, stored as a float
    plane = np.full(f31.shape, f31.coeffs[2])
    plane[3, t_line - 2] = np.nan
    table[2][0] = EtaSeries(f31.coeffs[:2] + (plane,), f31.order)
    result = solve_hierarchy(state.chart, table, 2)
    assert np.isnan(result.orders[2].compat_residual)
    assert np.isfinite(result.orders[2].phi).all()
    assert all(np.isfinite(item.compat_residual) for item in result.orders[:2])


def _hierarchy_arrays(result):
    arrays = [result.phi_series.coeffs]
    for item in result.orders:
        values = (item.compat_residual, item.closed_residual, item.start_value)
        arrays += [item.form, np.array(values)]
    return arrays


def test_table_at_its_degree_solves_as_the_table_stored_to_the_order():
    state = _periodic_ch_state()
    table = ch_series_table(state, 8)
    assert all(entry.order == 8 and entry.degree <= 2 for row in table for entry in row)
    full = [[EtaSeries(entry.dense()) for entry in row] for row in table]
    assert all(entry.degree == 8 for row in full for entry in row)
    got = solve_hierarchy(state.chart, table, 8, periodic_axis=0)
    want = solve_hierarchy(state.chart, full, 8, periodic_axis=0)
    for a, b in zip(_hierarchy_arrays(got), _hierarchy_arrays(want)):
        assert np.array_equal(a, b)
    phi = got.phi_series
    for a, b in zip(expand_phi_system(table, phi), expand_phi_system(full, phi)):
        assert np.array_equal(a.coeffs, b.coeffs)
    for a, b in zip(closed_form_series(table, phi), closed_form_series(full, phi)):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_order_results_are_views_of_the_phi_stack():
    state, table = _small_ch_table(2)
    result = solve_hierarchy(state.chart, table, 2)
    for j, item in enumerate(result.orders):
        assert item.phi.base is result.phi_series.coeffs
        assert np.shares_memory(item.phi, result.phi_series.coeffs[j])


def test_order_forms_are_views_of_one_stack():
    state, table = _small_ch_table(3)
    result = solve_hierarchy(state.chart, table, 3)
    stack = result.orders[0].form.base
    assert stack.shape == (4, 2) + state.chart.counts
    for j, item in enumerate(result.orders):
        assert item.form.base is stack
        assert np.shares_memory(item.form, stack[j])
        assert not np.shares_memory(item.form, result.phi_series.coeffs)


def test_table_stores_one_coefficient_per_power():
    state, table = _small_ch_table(8)
    (f11, f12), (f21, f22), (f31, f32) = table
    assert [f11.coeffs[1], f21.coeffs[0], f31.coeffs[1]] == [0.0, 0.0, 0.0]
    assert [f11.coeffs[2], f21.coeffs[1], f31.coeffs[2]] == [0.5, 1.0, 0.5]
    assert f12.coeffs[1] is state.u_x and f22.coeffs[0] is state.u_x
    assert f32.coeffs[1] is state.u_x and f32.coeffs[2] is f12.coeffs[2]
    planes = {id(c) for row in table for entry in row for c in entry.coeffs if np.ndim(c)}
    assert len(planes) == 7
    # every power up to the order is the written-out table's, bit for bit
    u, u_x, m = state.u, state.u_x, state.m
    h = state.momentum
    want = [
        [[h - 1.0, 0.0, 0.5], [-u * h - 0.5 * m + 1.0, u_x, -0.5 * (u + 1.0)]],
        [[0.0, 1.0], [u_x, -(u + 1.0)]],
        [[h, 0.0, 0.5], [-u * h - u - 0.5 * m, u_x, -0.5 * (u + 1.0)]],
    ]
    for row, want_row in zip(table, want):
        for entry, powers in zip(row, want_row):
            assert entry.dense().shape == (9,) + state.chart.counts
            for j, plane in enumerate(entry.dense()):
                value = powers[j] if j < len(powers) else 0.0
                assert np.array_equal(plane, np.broadcast_to(value, plane.shape))


@pytest.mark.parametrize("periodic_axis", [0, None])
def test_non_finite_state_on_the_start_line_fails_the_gate(periodic_axis):
    # NaN on the periodic start line reaches the gate, not the monodromy
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
