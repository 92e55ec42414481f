"""Shallow-water model: evolution, residual oracle, parameter tables."""

import numpy as np
import pytest

from pssframe import solve_phi_2d
from pssframe.errors import EvolutionError, StructureGateError
from pssframe.fieldio import read_field, write_field
from pssframe.grid import GridChart
from pssframe.models import (
    ch_evolve,
    ch_forms,
    ch_from_values,
    ch_integral_drift,
    ch_pde_residual,
    ch_series_table,
)


def spectral_derivatives(u, period):
    n = u.size
    k = 2 * np.pi * np.fft.rfftfreq(n, d=period / n)
    u_hat = np.fft.rfft(u)
    d1 = np.fft.irfft(1j * k * u_hat, n)
    d2 = np.fft.irfft(-(k**2) * u_hat, n)
    d3 = np.fft.irfft(-1j * k**3 * u_hat, n)
    return d1, d2, d3


@pytest.mark.parametrize("m", [0.0, 0.5, 2.0])
def test_transport_form_is_algebraically_the_velocity_equation(rng, m):
    # the momentum-density transport rule and the third-order velocity
    # equation are the same identity; verified on random trig polynomials
    # with spectral derivatives (no time stepping involved)
    n, period = 128, 6.0
    x = np.arange(n) * (period / n)
    u = np.zeros(n)
    for mode in range(1, 6):
        a, b = rng.standard_normal(2) * 0.3
        u += a * np.cos(2 * np.pi * mode * x / period)
        u += b * np.sin(2 * np.pi * mode * x / period)
    u_x, u_xx, u_xxx = spectral_derivatives(u, period)
    h = u - u_xx + 0.5 * m
    h_x = u_x - u_xxx
    h_t = -(u * h_x + 2.0 * u_x * h)  # transport rule
    # substituting into the velocity equation must cancel identically
    residual = h_t + 3 * u * u_x - 2 * u_x * u_xx - u * u_xxx + m * u_x
    assert np.max(np.abs(residual)) < 1e-12 * max(1.0, np.max(np.abs(h_t)))


def cosine_profile(x):
    return 0.2 + 0.1 * np.cos(2 * np.pi * x / 6.0)


def _reference_evolve(u0, m, period, t_final, nx, nt, cfl=0.3):
    # ch_evolve as it stood before its buffers were preallocated: the same
    # right-hand side and RK4 loop, every intermediate a new array
    n = nx
    x = np.arange(n) * (period / n)
    u_now = np.asarray(u0(x), dtype=float)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
    ik = 1j * k
    helmholtz = 1.0 + k**2
    mean_shift = 0.5 * m * n

    def rhs(h):
        h_hat = np.fft.rfft(h)
        spectra = np.empty((3,) + h_hat.shape, dtype=complex)
        spectra[0] = h_hat / helmholtz
        spectra[0, 0] -= mean_shift
        np.multiply(ik, spectra[0], out=spectra[1])
        np.multiply(ik, h_hat, out=spectra[2])
        u, u_x, h_x = np.fft.irfft(spectra, n)
        return -(u * h_x + 2.0 * u_x * h)

    u_hat0 = np.fft.rfft(u_now)
    h_now = u_now - np.fft.irfft(-(k**2) * u_hat0, n) + 0.5 * m
    speed = 2.0 * float(np.max(np.abs(u_now))) + abs(m) + 0.5
    dt_out = t_final / nt
    substeps = max(1, int(np.ceil(dt_out / (cfl * (period / n) / speed))))
    dt = dt_out / substeps
    h_rows = np.empty((nt + 1, n))
    h_rows[0] = h_now
    for row in range(1, nt + 1):
        for _ in range(substeps):
            k1 = rhs(h_now)
            k2 = rhs(h_now + 0.5 * dt * k1)
            k3 = rhs(h_now + 0.5 * dt * k2)
            k4 = rhs(h_now + dt * k3)
            h_now = h_now + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_rows[row] = h_now
    u_hat = np.fft.rfft(h_rows - 0.5 * m, axis=1) / helmholtz
    return [
        np.fft.irfft(u_hat, n, axis=1),
        np.fft.irfft(1j * k * u_hat, n, axis=1),
        np.fft.irfft(-(k**2) * u_hat, n, axis=1),
    ]


@pytest.mark.parametrize("nx", [16, 32, 512])
@pytest.mark.parametrize("m", [0.0, 0.5])
def test_evolve_is_bitwise_the_allocating_loop(m, nx):
    # ch_evolve calls numpy's pocketfft kernels directly; this oracle goes
    # through the public np.fft calls, so a numpy whose kernels no longer
    # give the wrappers' bits fails here, also at the benchmark's 512 points
    def profile(x):
        return 0.3 + 0.2 * np.cos(2 * np.pi * x / 6.0) - 0.1 * np.sin(4 * np.pi * x / 6.0)

    state = ch_evolve(profile, m=m, period=6.0, t_final=0.5, nx=nx, nt=4)
    expected = _reference_evolve(profile, m, 6.0, 0.5, nx, 4)
    for got, rows in zip((state.u, state.u_x, state.u_xx), expected):
        assert np.array_equal(got[:-1], rows.T)
        assert np.array_equal(got[-1], rows[:, 0])


def test_evolve_chart_layout_and_periodic_seam():
    state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=1.0, nx=64, nt=16)
    assert state.chart.counts == (65, 17)
    assert state.chart.origin == (0.0, 0.0)
    assert state.chart.spacing[0] == pytest.approx(6.0 / 64)
    assert state.chart.spacing[1] == pytest.approx(1.0 / 16)
    # the closing column duplicates x = 0
    assert np.array_equal(state.u[0], state.u[-1])
    assert np.array_equal(state.u_x[0], state.u_x[-1])
    assert state.u[:, 0] == pytest.approx(cosine_profile(
        state.chart.axis_coordinates(0)), abs=1e-13)


def test_evolved_chart_equals_the_chart_read_back(tmp_path):
    state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=1.0, nx=16, nt=4)
    path = str(tmp_path / "u.pssfield")
    write_field(path, state.chart, [state.u])
    assert read_field(path)[0] == state.chart


def test_evolve_conserves_mean_to_round_off():
    state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=2.0, nx=256, nt=64)
    assert ch_integral_drift(state) < 1e-12


def test_evolve_accepts_array_initial_data():
    x = np.arange(64) * (6.0 / 64)
    state = ch_evolve(cosine_profile(x), m=0.5, period=6.0, t_final=0.5, nx=64, nt=8)
    assert state.u[:, 0] == pytest.approx(cosine_profile(
        state.chart.axis_coordinates(0)), abs=1e-13)
    with pytest.raises(ValueError, match="nx samples"):
        ch_evolve(np.zeros(63), m=0.0, period=6.0, t_final=0.5, nx=64, nt=8)


def test_evolve_validates_arguments():
    with pytest.raises(ValueError):
        ch_evolve(cosine_profile, m=0.0, period=6.0, t_final=1.0, nx=10, nt=4)
    with pytest.raises(ValueError):
        ch_evolve(cosine_profile, m=0.0, period=-1.0, t_final=1.0)
    with pytest.raises(ValueError):
        ch_evolve(cosine_profile, m=0.0, period=6.0, t_final=0.0)


def test_evolve_blowup_guard_trips():
    with pytest.raises(EvolutionError, match="blew up"):
        ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=2.0, nx=64, nt=16,
                  blowup_factor=1e-3)


def test_evolve_time_step_convergence():
    # refining the internal step (via cfl) shows the classic fourth-order
    # one-step error decay against a tiny-step reference
    ref = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=1.0,
                    nx=64, nt=4, cfl=0.01)
    errs = []
    for cfl in (0.8, 0.4, 0.2):
        state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=1.0,
                          nx=64, nt=4, cfl=cfl)
        errs.append(np.max(np.abs(state.u[:, -1] - ref.u[:, -1])))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    # ceil-quantized substep counts blur the exact halving slightly
    assert np.all(orders > 3.2)
    assert errs[0] / errs[-1] > 100.0


def test_pde_residual_small_on_evolved_solution():
    vals = []
    for nx in (128, 256):
        state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=2.0,
                          nx=nx, nt=nx // 4)
        vals.append(ch_pde_residual(state))
    assert vals[0] < 5e-4
    assert np.log2(vals[0] / vals[1]) > 1.7  # stencil-order decay


def sine_candidate_state(m):
    chart = GridChart((0.0, 0.0), (2 * np.pi / 128, 0.05), (129, 9))
    x, _ = chart.meshgrid()
    return ch_from_values(chart, m, np.sin(x))


def test_pde_residual_flags_non_solution():
    # u = sin x is static, so the residual reduces to
    # |3uu_x - 2u_xu_xx - uu_xxx + mu_x| = |3 sin 2x + m cos x|,
    # with maximum 3 for m = 0 and about 3.727 for m = 1
    got0 = ch_pde_residual(sine_candidate_state(0.0))
    got1 = ch_pde_residual(sine_candidate_state(1.0))
    dense = np.linspace(0, 2 * np.pi, 200001)
    want0 = np.max(np.abs(3 * np.sin(2 * dense)))
    want1 = np.max(np.abs(3 * np.sin(2 * dense) + np.cos(dense)))
    assert want0 == pytest.approx(3.0)
    assert got0 == pytest.approx(want0, abs=5e-3)
    assert got1 == pytest.approx(want1, abs=5e-3)
    assert got1 >= 0.5


def test_structure_gate_blocks_non_solution():
    fd = ch_forms(sine_candidate_state(1.0), 0.0)
    with pytest.raises(StructureGateError):
        solve_phi_2d(fd)


def test_structure_gate_passes_evolved_solution():
    state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=2.0, nx=128, nt=32)
    rep = solve_phi_2d(ch_forms(state, 0.0))
    assert max(rep.structure) <= rep.gate_threshold


def test_series_table_entries_at_zero_velocity():
    chart = GridChart((0.0, 0.0), (0.1, 0.1), (33, 5))
    state = ch_from_values(chart, 0.0, np.zeros(chart.shape))
    table = ch_series_table(state, 2)
    # with u = 0 and m = 0: h = 0, so the classical entries collapse
    assert np.max(np.abs(table[0][0].coefficient(0) + 1.0)) == 0.0  # h - 1
    assert np.max(np.abs(table[0][1].coefficient(0) - 1.0)) == 0.0  # -uh - m/2 + 1
    assert np.max(np.abs(table[1][0].coefficient(1) - 1.0)) == 0.0  # eta
    assert np.max(np.abs(table[1][1].coefficient(1) + 1.0)) == 0.0  # -(u+1) eta
    assert np.max(np.abs(table[0][0].coefficient(2) - 0.5)) == 0.0
    assert np.max(np.abs(table[2][0].coefficient(0))) == 0.0  # h
    assert np.max(np.abs(table[2][1].coefficient(0))) == 0.0  # -uh - u - m/2


def test_series_table_truncation_control():
    state = ch_evolve(cosine_profile, m=0.5, period=6.0, t_final=0.5, nx=64, nt=8)
    table1 = ch_series_table(state, 1)
    assert table1[0][0].order == 1
    table0 = ch_series_table(state, 0)
    assert table0[1][0].order == 0
    assert np.max(np.abs(table0[1][0].coefficient(0))) == 0.0
