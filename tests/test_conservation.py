"""Conservation reports: slice integrals, drifts, flux residuals, CSV/SVG."""

import numpy as np
import pytest

from pssframe import GridChart
from pssframe.conservation import analyze, write_csv, write_q_svg
from pssframe.grid import partial_derivative


def xt_chart(nx=33, nt=9, x_hi=np.pi, t_hi=1.0):
    return GridChart((0.0, 0.0), (x_hi / (nx - 1), t_hi / (nt - 1)), (nx, nt))


def form_from(chart, fns):
    return np.array([fn(*chart.meshgrid()) for fn in fns])


def test_exactly_conserved_form_has_zero_drift():
    chart = xt_chart()
    theta = form_from(chart, [lambda x, t: np.sin(x), lambda x, t: t**3])
    report = analyze(chart, theta, time_axis=1)
    assert len(report.axes) == 1
    ax = report.axes[0]
    assert ax.axis == 0
    assert ax.drift == 0.0
    assert ax.flux_residual == 0.0  # both partials vanish identically
    assert ax.boundary_gap == 0.0  # f_t is constant in x
    assert report.cross_residuals == {}
    assert report.summary().startswith("conserve: flux=0.000e+00")


def test_q_integral_uses_richardson_refinement():
    chart = xt_chart(nx=33)
    theta = form_from(chart, [lambda x, t: np.sin(x), lambda x, t: 0.0 * x])
    report = analyze(chart, theta, time_axis=1)
    q = report.axes[0].q_values
    # integral of sin over [0, pi] is 2; the plain trapezoid rule at this
    # spacing is off by ~1.6e-3, the refined value by ~1e-6
    assert np.max(np.abs(q - 2.0)) < 5e-6


def test_drift_and_relative_drift_track_the_integrand():
    chart = xt_chart(nx=65, nt=11)
    theta = form_from(
        chart,
        [lambda x, t: np.sin(x) * (1.0 + 0.1 * t), lambda x, t: 0.0 * x],
    )
    report = analyze(chart, theta, time_axis=1)
    ax = report.axes[0]
    assert ax.drift == pytest.approx(0.2, rel=1e-4)
    assert ax.q_scale == pytest.approx(2.2, rel=1e-3)  # largest L1 slice, t=1
    assert ax.relative_drift() == pytest.approx(0.2 / 2.2, rel=1e-3)
    assert report.max_drift() == ax.drift
    assert report.max_relative_drift() == ax.relative_drift()


def test_drift_scans_every_transverse_slice():
    # Q varies along the second spatial axis; the base slice through the
    # center is constant in time but an off-center slice drifts, and the
    # report must see it
    chart = GridChart((0.0, -1.0, 0.0), (np.pi / 32, 0.25, 0.125), (33, 9, 9))
    x0, x1, t = chart.meshgrid()
    theta = np.array(
        [np.sin(x0) * (1.0 + 0.3 * x1 * t), np.zeros(chart.counts), np.zeros(chart.counts)]
    )
    report = analyze(chart, theta, time_axis=2)
    ax0 = report.axes[0]
    assert np.max(np.abs(ax0.q_values - 2.0)) < 5e-6  # center slice: x1 = 0
    assert ax0.drift == pytest.approx(2.0 * 0.3, rel=1e-3)  # corner slice


def test_boundary_diagnostics():
    chart = xt_chart(x_hi=1.0)
    theta = form_from(chart, [lambda x, t: 0.0 * x, lambda x, t: x])
    ax = analyze(chart, theta, time_axis=1).axes[0]
    assert ax.boundary_values == pytest.approx((0.0, 1.0))
    assert ax.boundary_gap == pytest.approx(1.0)


def test_flux_residual_flags_non_closed_forms():
    chart = xt_chart()
    theta = form_from(chart, [lambda x, t: t, lambda x, t: 0.0 * x])
    ax = analyze(chart, theta, time_axis=1).axes[0]
    assert ax.flux_residual == pytest.approx(1.0, abs=1e-12)


def test_cross_residuals_cover_spatial_pairs_only():
    chart = GridChart((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (9, 9, 9))
    x0, x1, x2 = chart.meshgrid()
    theta = np.array([np.zeros(chart.counts), x2**2, np.zeros(chart.counts)])
    report = analyze(chart, theta, time_axis=0)
    assert set(report.cross_residuals) == {(1, 2)}
    interior_max = 2.0 * 0.7  # d/dx2 of x2^2 at the largest interior node
    assert report.cross_residuals[(1, 2)] == pytest.approx(interior_max)


def test_time_axis_validation():
    chart = xt_chart()
    theta = form_from(chart, [lambda x, t: x, lambda x, t: t])
    with pytest.raises(ValueError, match="time_axis"):
        analyze(chart, theta, time_axis=2)
    with pytest.raises(ValueError, match="time_axis"):
        analyze(chart, theta, time_axis=-1)


def test_csv_layout_and_determinism(tmp_path):
    chart = xt_chart(nx=17, nt=5)
    theta = form_from(chart, [lambda x, t: np.sin(x), lambda x, t: 0.0 * x])
    reports = [analyze(chart, theta, time_axis=1)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, reports, orders=[0])
    write_csv(b, reports, orders=[0])
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "order,axis,t,Q,drift,flux_residual"
    assert len(lines) == 1 + 5  # one row per time sample
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"  # axis labels are one-based
    assert float(first[3]) == pytest.approx(2.0, abs=5e-5)


def test_csv_default_orders_enumerate_reports(tmp_path):
    chart = xt_chart(nx=9, nt=3)
    theta = form_from(chart, [lambda x, t: x, lambda x, t: 0.0 * x])
    path = tmp_path / "two.csv"
    write_csv(path, [analyze(chart, theta, 1), analyze(chart, theta, 1)])
    orders = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
    assert orders == {"0", "1"}


def test_svg_smoke_and_empty_error(tmp_path):
    chart = xt_chart(nx=9, nt=5)
    theta = form_from(chart, [lambda x, t: np.sin(x) + 0.1 * t, lambda x, t: 0.0 * x])
    path = tmp_path / "q.svg"
    write_q_svg(path, [analyze(chart, theta, 1)])
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "order 0, axis 1" in text
    with pytest.raises(ValueError, match="nothing to plot"):
        write_q_svg(tmp_path / "empty.svg", [])


def _full_grid_residuals(chart, f, time_axis):
    """The flux and cross residuals as they were formed: full-grid partial
    derivatives, one-sided boundary rows included, then the interior read off."""
    h = chart.spacing
    inner = tuple(slice(1, -1) for _ in range(chart.dim))

    def d(values, axis):
        return partial_derivative(values, axis, h[axis])

    def interior_max(res):
        return float(np.max(np.abs(res[inner])))

    spatial = [j for j in range(chart.dim) if j != time_axis]
    flux = [interior_max(d(f[time_axis], j) - d(f[j], time_axis)) for j in spatial]
    cross = {
        (i, j): interior_max(d(f[j], i) - d(f[i], j))
        for i in spatial
        for j in spatial
        if i < j
    }
    return flux, cross


@pytest.mark.parametrize("counts", [(17, 9), (9, 7, 6)], ids=["2d", "3d"])
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
def test_residuals_are_the_full_grid_residuals_bit_for_bit(rng, counts, nan):
    dim = len(counts)
    chart = GridChart((0.2,) * dim, tuple(0.07 + 0.02 * k for k in range(dim)), counts)
    coords = chart.meshgrid()
    forms = [rng.standard_normal((dim,) + counts) for _ in range(4)]
    forms.append([np.sin(coords[k] * coords[-1 - k]) for k in range(dim)])
    for values in forms:
        values = np.array(values)
        if nan:
            values[(1,) + tuple(c // 2 for c in counts)] = np.nan
        for time_axis in range(dim):
            report = analyze(chart, values, time_axis)
            flux, cross = _full_grid_residuals(chart, values, time_axis)
            got = [a.flux_residual for a in report.axes]
            assert np.array_equal(got, flux, equal_nan=True)
            assert sorted(report.cross_residuals) == sorted(cross)
            for key, value in cross.items():
                assert np.array_equal(report.cross_residuals[key], value, equal_nan=True)
            if nan:
                assert np.isnan(got).any()
