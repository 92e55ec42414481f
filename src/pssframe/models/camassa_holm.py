"""Shallow-water peakon equation: evolution and parameter-family coframes.

The equation for the velocity profile u(x, t) with dispersion constant m,

    u_t - u_xxt = u u_xxx + 2 u_x u_xx - 3 u u_x - m u_x,

is evolved here in the transport form of its momentum density
h = u - u_xx + m/2,

    h_t + u h_x + 2 u_x h = 0,

which is algebraically the same equation and keeps the mean of h (hence the
integral of u) constant.  Space is periodic and handled pseudospectrally; u
is recovered from h by inverting 1 - d^2/dx^2 in Fourier space.

The coframe table attached to a solution is polynomial (degree two) in a
spectral parameter, so the whole conserved-form family of `hierarchy` is
available from one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EvolutionError
from ..frames import FrameData
from ..grid import GridChart, dense, partial_derivative
from ..hierarchy import EtaSeries


@dataclass
class CamassaHolmState:
    """A velocity profile with its derivatives, each (*counts), on an (x, t) chart.

    u_x and u_xx must be consistent with u; the constructors below produce
    them spectrally (periodic charts) or by finite differences.
    """

    chart: GridChart
    m: float
    u: np.ndarray
    u_x: np.ndarray
    u_xx: np.ndarray

    def __post_init__(self):
        if self.chart.dim != 2:
            raise ValueError("state lives on a 2D (x, t) chart")
        for name in ("u", "u_x", "u_xx"):
            setattr(self, name, dense(getattr(self, name), self.chart.counts, name))

    @property
    def momentum(self):
        """h = u - u_xx + m/2."""
        return self.u - self.u_xx + 0.5 * self.m


def ch_from_arrays(chart, m, u, u_x, u_xx):
    """State from explicitly supplied derivative arrays (analytic profiles)."""
    return CamassaHolmState(chart, float(m), u, u_x, u_xx)


def ch_from_values(chart, m, u_values):
    """State with x-derivatives by second-order finite differences."""
    u = np.asarray(u_values, dtype=float)
    hx = chart.spacing[0]
    u_x = partial_derivative(u, 0, hx)
    u_xx = partial_derivative(u_x, 0, hx)
    return ch_from_arrays(chart, m, u, u_x, u_xx)


# ---------------------------------------------------------------------------
# evolution

def _wavenumbers(n, period):
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)


# a diverging state overflows to Inf or NaN; the checks below raise
# EvolutionError for it, so numpy's own warnings stay quiet
@np.errstate(over="ignore", invalid="ignore")
def ch_evolve(
    u0,
    m,
    period,
    t_final,
    nx=256,
    nt=64,
    *,
    cfl=0.3,
    blowup_factor=1e6,
):
    """Evolve a periodic initial profile and sample the result on a chart.

    u0 is either a callable of x or an array of nx samples at
    x_j = j * period / nx.  The returned state lives on the closed chart
    [0, period] x [0, t_final] with nx + 1 by nt + 1 nodes (the last column
    duplicates x = 0).  Substeps per output interval are fixed from the
    initial data, so repeated runs are bit-identical.  The first substep
    whose input is not finite raises EvolutionError.
    """
    n = int(nx)
    if n < 16 or n % 2:
        raise ValueError("nx must be an even number >= 16")
    period = float(period)
    t_final = float(t_final)
    if period <= 0 or t_final <= 0:
        raise ValueError("period and t_final must be positive")

    x = np.arange(n) * (period / n)
    if callable(u0):
        u_now = np.asarray(u0(x), dtype=float)
    else:
        u_now = np.asarray(u0, dtype=float).copy()
    if u_now.shape != (n,):
        raise ValueError("u0 must provide nx samples")

    k = _wavenumbers(n, period)
    ik = 1j * k
    helmholtz = 1.0 + k**2
    # rfft(h - m/2) differs from rfft(h) only in the k = 0 bin (the sum)
    mean_shift = 0.5 * m * n

    # the right-hand side writes into these buffers and the RK4 steps into
    # the stage arrays below, so the substeps allocate no arrays
    h_spec = np.empty(k.shape, dtype=complex)
    spectra = np.empty((3,) + k.shape, dtype=complex)
    fields = np.empty((3, n))

    def rhs(h, out):
        # one forward transform of h, one stacked inverse for u, u_x and h_x
        np.fft.rfft(h, out=h_spec)
        np.divide(h_spec, helmholtz, out=spectra[0])
        spectra[0, 0] -= mean_shift  # helmholtz[0] == 1
        np.multiply(ik, spectra[0], out=spectra[1])
        np.multiply(ik, h_spec, out=spectra[2])
        u, u_x, h_x = np.fft.irfft(spectra, n, out=fields)
        # -(u h_x + 2 u_x h), written as (-2 u_x) h - u h_x: negation is
        # exact, so both give the same double
        np.multiply(u_x, -2.0, out=out)
        out *= h
        np.multiply(u, h_x, out=u_x)
        out -= u_x

    u_hat0 = np.fft.rfft(u_now)
    u_xx0 = np.fft.irfft(-(k**2) * u_hat0, n)
    h_now = u_now - u_xx0 + 0.5 * m

    # fixed, data-determined step count per output interval
    speed = 2.0 * float(np.max(np.abs(u_now))) + abs(m) + 0.5
    dt_target = cfl * (period / n) / speed
    dt_out = t_final / nt
    # a bound that underflows to 0, or a step count past the largest float
    if not (dt_target > 0 and math.isfinite(dt_out / dt_target)):
        raise EvolutionError("step bound %.3e admits no finite substep count" % dt_target)
    substeps = max(1, int(np.ceil(dt_out / dt_target)))
    dt = dt_out / substeps

    limit = blowup_factor * (1.0 + float(np.max(np.abs(h_now))))
    h_rows = np.empty((nt + 1, n))
    h_rows[0] = h_now
    k1, k2, k3, k4, stage = np.empty((5, n))
    half, sixth = 0.5 * dt, dt / 6.0
    for row in range(1, nt + 1):
        for _ in range(substeps):
            # h + (dt/6) (k1 + 2 k2 + 2 k3 + k4), term by term in that order
            rhs(h_now, k1)
            if not math.isfinite(h_spec[0].real):  # the sum of h
                raise EvolutionError("momentum density blew up at output row %d" % row)
            np.multiply(k1, half, out=stage)
            stage += h_now
            rhs(stage, k2)
            np.multiply(k2, half, out=stage)
            stage += h_now
            rhs(stage, k3)
            np.multiply(k3, dt, out=stage)
            stage += h_now
            rhs(stage, k4)
            np.multiply(k2, 2.0, out=stage)
            stage += k1
            k3 *= 2.0
            stage += k3
            stage += k4
            stage *= sixth
            h_now += stage
        if not np.all(np.isfinite(h_now)) or np.max(np.abs(h_now)) > limit:
            raise EvolutionError(
                "momentum density blew up at output row %d" % row
            )
        h_rows[row] = h_now

    # recover u and its x-derivatives spectrally at every output time
    h_hat = np.fft.rfft(h_rows - 0.5 * m, axis=1)
    u_hat = h_hat / helmholtz
    u_rows = np.fft.irfft(u_hat, n, axis=1)
    ux_rows = np.fft.irfft(1j * k * u_hat, n, axis=1)
    uxx_rows = np.fft.irfft(-(k**2) * u_hat, n, axis=1)

    chart = GridChart(
        origin=(0.0, 0.0),
        spacing=(period / n, dt_out),
        counts=(n + 1, nt + 1),
        axis_names=("x", "t"),
    )

    def close_up(rows):
        full = np.empty((n + 1, nt + 1))
        full[:n] = rows.T
        full[n] = rows[:, 0]
        return full

    return ch_from_arrays(
        chart, m, close_up(u_rows), close_up(ux_rows), close_up(uxx_rows)
    )


def ch_integral_drift(state: CamassaHolmState):
    """Max relative drift of the spatial integral of u across output times.

    Assumes the chart closes up in x (first and last columns identical), so
    the integral is the left-rule sum over one period.
    """
    u = state.u
    dx = state.chart.spacing[0]
    integrals = np.sum(u[:-1], axis=0) * dx
    ref = integrals[0]
    scale = max(abs(ref), 1e-30)
    return float(np.max(np.abs(integrals - ref)) / scale)


# ---------------------------------------------------------------------------
# residual oracle

def ch_pde_residual(state: CamassaHolmState):
    """Finite-difference residual of the velocity equation, interior max.

    Third x-derivatives use the centered five-point stencil, so the max is
    taken where every stencil is interior (two nodes off the x edges, one
    off the t edges).  Useful both as a convergence check on evolved states
    and as a gate against profiles that do not solve the equation.
    """
    u = state.u
    m = state.m
    hx, ht = state.chart.spacing
    u_t = partial_derivative(u, 1, ht)
    u_x = partial_derivative(u, 0, hx)

    u_xx = np.empty_like(u)
    u_xx[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / hx**2
    u_xx[0] = u_xx[1]
    u_xx[-1] = u_xx[-2]
    u_xxt = partial_derivative(u_xx, 1, ht)

    u_xxx = np.zeros_like(u)
    u_xxx[2:-2] = (-u[:-4] + 2.0 * u[1:-3] - 2.0 * u[3:-1] + u[4:]) / (2.0 * hx**3)

    residual = u_t - u_xxt - (u * u_xxx + 2.0 * u_x * u_xx - 3.0 * u * u_x - m * u_x)
    core = residual[2:-2, 1:-1]
    return float(np.max(np.abs(core)))


# ---------------------------------------------------------------------------
# coframe tables

def ch_series_table(state: CamassaHolmState, order):
    """Coframe table as truncated series in the spectral parameter.

    Rows are (first dual form, second dual form, connection form); columns
    their dx and dt coefficients.  Feed to `hierarchy.solve_hierarchy` or
    `hierarchy.expand_phi_system`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    chart = state.chart
    shape = chart.counts
    u = state.u
    u_x = state.u_x
    h = state.momentum
    m = state.m
    one = np.ones(shape)

    def series(terms):
        kept = {p: v for p, v in terms.items() if p <= order}
        return EtaSeries.from_terms(kept, order, shape)

    f11 = series({0: h - 1.0, 2: 0.5 * one})
    f12 = series({0: -u * h - 0.5 * m + 1.0, 1: u_x, 2: -0.5 * (u + 1.0)})
    f21 = series({1: one})
    f22 = series({0: u_x, 1: -(u + 1.0)})
    f31 = series({0: h, 2: 0.5 * one})
    f32 = series({0: -u * h - u - 0.5 * m, 1: u_x, 2: -0.5 * (u + 1.0)})
    return [[f11, f12], [f21, f22], [f31, f32]]


def ch_forms(state: CamassaHolmState, eta):
    """Coframe and connection (a FrameData) at a real value of the parameter."""
    chart = state.chart
    # rows: two dual forms and the connection form; columns: dx and dt
    block = np.array([[entry.evaluate(eta) for entry in row] for row in ch_series_table(state, 2)])
    return FrameData(chart, block[:2], block[2:])
