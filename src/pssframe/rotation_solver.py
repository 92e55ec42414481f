"""Solvers for the frame rotation that produces a closed first dual form.

Both solvers integrate exact one-step updates along grid lines: first along
axis 1 through the base node, then fanning out along each remaining axis line
by line, so the whole chart is reached by a staircase of 1D problems.  The
same solve is repeated with the axis order reversed and the max discrepancy
is reported as `compat_residual` — a direct certificate of the integrability
of the input data.

2D charts integrate the angle equation

    d(phi) = omega_12 + sin(phi) omega_1 + cos(phi) omega_2

with the classic fourth-order one-step scheme (coefficient fields sampled at
interval midpoints through cubic interpolation).  In general dimension the
orthogonal matrix L is advanced in the Lie algebra (Munthe-Kaas form of the
same tableau), so every update is exp(skew) * L and L stays orthogonal to
round-off by construction; on 2D charts all commutators vanish and the two
solvers coincide algebraically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StructureGateError
from .forms import OneFormField, closedness_residual, potential
from .frames import (
    FrameData,
    FrameRotationField,
    frame_vector_fields,
    lie_bracket,
    structure_residuals,
)
from .grid import GridChart, ScalarField, midpoints

GATE_FACTOR_DEFAULT = 10.0


# ---------------------------------------------------------------------------
# vectorized exponentials of skew matrices

def expm_skew(a):
    """exp(A) for a stack of skew matrices A (..., n, n), exactly orthogonal.

    n = 2 and n = 3 use closed forms (plane rotation / Rodrigues); larger n
    falls back to scaling-and-squaring with a Taylor kernel.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if n == 2:
        t = a[..., 1, 0]
        c, s = np.cos(t), np.sin(t)
        out = np.empty_like(a)
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
        return out
    if n == 3:
        w = np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)
        t2 = np.sum(w * w, axis=-1)
        t = np.sqrt(t2)
        small = t < 1e-4
        # sin(t)/t and (1-cos t)/t^2 with series fallbacks near 0
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(t) / np.where(t == 0, 1.0, t))
            c = np.where(
                small,
                0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                (1.0 - np.cos(t)) / np.where(t2 == 0, 1.0, t2),
            )
        eye = np.broadcast_to(np.eye(3), a.shape)
        return eye + s[..., None, None] * a + c[..., None, None] * np.matmul(a, a)
    # general n: scaling and squaring, Taylor kernel of order 18
    # (truncation ~0.5^19/19! at the scaled norm: below round-off)
    norm = np.max(np.abs(a))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    b = a / (2.0**squarings)
    out = np.broadcast_to(np.eye(n), b.shape).copy()
    term = np.broadcast_to(np.eye(n), b.shape).copy()
    for k in range(1, 19):
        term = np.matmul(term, b) / k
        out = out + term
    for _ in range(squarings):
        out = np.matmul(out, out)
    return out


def _commutator(a, b):
    return np.matmul(a, b) - np.matmul(b, a)


def _dexpinv(u, k):
    """Truncated inverse differential of exp: k - [u,k]/2 + [u,[u,k]]/12."""
    c1 = _commutator(u, k)
    return k - 0.5 * c1 + _commutator(u, c1) / 12.0


# ---------------------------------------------------------------------------
# sweep engine

def _sweep(chart: GridChart, base, axes_order, prepare, step):
    """Fill the chart by line sweeps from the base node.

    prepare(axis) is called once per swept axis (build midpoint caches);
    step(axis, sign, r_from, r_mid, r_to) advances the caller's state from
    the nodes addressed by r_from to those addressed by r_to, where the
    region tuples fix the swept axis index, keep already-swept axes full,
    and pin not-yet-swept axes at the base.
    """
    n = chart.dim
    filled = set()

    def region(axis, i):
        return tuple(
            slice(i, i + 1)
            if k == axis
            else (slice(None) if k in filled else slice(base[k], base[k] + 1))
            for k in range(n)
        )

    for axis in axes_order:
        prepare(axis)
        b = base[axis]
        for i in range(b, chart.counts[axis] - 1):
            step(axis, 1.0, region(axis, i), region(axis, i), region(axis, i + 1))
        for i in range(b, 0, -1):
            step(axis, -1.0, region(axis, i), region(axis, i - 1), region(axis, i - 1))
        filled.add(axis)


def sweep_scalar(chart, base, axes_order, init_value, node_fields, rhs):
    """Integrate a scalar ODE field along staircase sweeps (RK4).

    node_fields: list of full-grid arrays the right-hand side consumes.
    rhs(axis, samples, y): samples is a list of arrays (one per field,
    sampled at the stage position).  Returns the filled grid array.
    """
    y = np.zeros(chart.counts)
    y[tuple(base)] = init_value
    mids = {}

    def prepare(axis):
        mids.clear()
        mids[axis] = [midpoints(f, axis) for f in node_fields]

    def step(axis, sign, r_from, r_mid, r_to):
        h = sign * chart.spacing[axis]
        f_lo = [f[r_from] for f in node_fields]
        f_mid = [f[r_mid] for f in mids[axis]]
        f_hi = [f[r_to] for f in node_fields]
        y0 = y[r_from]
        k1 = rhs(axis, f_lo, y0)
        k2 = rhs(axis, f_mid, y0 + 0.5 * h * k1)
        k3 = rhs(axis, f_mid, y0 + 0.5 * h * k2)
        k4 = rhs(axis, f_hi, y0 + h * k3)
        y[r_to] = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    _sweep(chart, base, axes_order, prepare, step)
    return y


# ---------------------------------------------------------------------------
# reports

@dataclass
class SolveReport:
    """Result bundle of a frame-rotation solve."""

    rotation: FrameRotationField
    theta1: OneFormField
    compat_residual: float
    closed_residual: float
    orth_residual: float
    structure: tuple = (0.0, 0.0)
    gate_threshold: float = float("inf")

    def summary(self):
        return "solve: compat=%.3e closed=%.3e orth=%.3e" % (
            self.compat_residual,
            self.closed_residual,
            self.orth_residual,
        )


def structure_threshold(fd: FrameData, gate_factor):
    """Structure-gate threshold: gate_factor * h_max^2 * max(1, max |coeff|)."""
    h_max = max(fd.chart.spacing)
    return gate_factor * h_max**2 * max(1.0, fd.max_abs())


def _structure_gate(fd: FrameData, gate_factor):
    res1, res2 = structure_residuals(fd, curvature=-1.0)
    if gate_factor is None:
        return (res1, res2), float("inf")
    threshold = structure_threshold(fd, gate_factor)
    if not (res1 <= threshold and res2 <= threshold):
        raise StructureGateError(res1, res2, threshold)
    return (res1, res2), threshold


# ---------------------------------------------------------------------------
# 2D angle solver

def solve_phi_2d(
    fd: FrameData,
    phi0=0.0,
    base="center",
    *,
    gate_factor=GATE_FACTOR_DEFAULT,
):
    """Solve the angle equation on a 2D chart; see module docstring.

    phi0 is the angle at the base node.  Returns a SolveReport whose
    rotation carries the unwrapped angle field.
    """
    if fd.dim != 2:
        raise ValueError("solve_phi_2d needs a 2D chart")
    chart = fd.chart
    base_idx = chart.base_index(base)
    structure, threshold = _structure_gate(fd, gate_factor)

    fields = [
        fd.omega[0].coeffs[0].values,
        fd.omega[0].coeffs[1].values,
        fd.omega[1].coeffs[0].values,
        fd.omega[1].coeffs[1].values,
        fd.connection.entry(0, 1).coeffs[0].values,
        fd.connection.entry(0, 1).coeffs[1].values,
    ]

    def rhs(axis, s, y):
        w1 = s[0] if axis == 0 else s[1]
        w2 = s[2] if axis == 0 else s[3]
        w12 = s[4] if axis == 0 else s[5]
        return w12 + np.sin(y) * w1 + np.cos(y) * w2

    phi = sweep_scalar(chart, base_idx, (0, 1), float(phi0), fields, rhs)
    phi_ex = sweep_scalar(chart, base_idx, (1, 0), float(phi0), fields, rhs)
    compat = float(np.max(np.abs(phi - phi_ex)))

    angle = ScalarField(chart, phi)
    rotation = FrameRotationField.from_angle(angle)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    theta1 = OneFormField.from_arrays(
        chart,
        [
            cos_phi * fields[0] - sin_phi * fields[2],
            cos_phi * fields[1] - sin_phi * fields[3],
        ],
    )
    return SolveReport(
        rotation=rotation,
        theta1=theta1,
        compat_residual=compat,
        closed_residual=closedness_residual(theta1),
        orth_residual=rotation.orthogonality_error(),
        structure=structure,
        gate_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# general-dimension orthogonal solver

def _solve_L_once(fd: FrameData, L0, base_idx, axes_order):
    chart = fd.chart
    n = fd.dim

    # om_by_axis[a][..., k] = coefficient of dx_a in omega_k
    om_by_axis = []
    w_by_axis = []
    for a in range(n):
        om_a = np.empty(chart.counts + (n,))
        for k in range(n):
            om_a[..., k] = fd.omega[k].coeffs[a].values
        om_by_axis.append(om_a)
        w_by_axis.append(fd.connection.coefficient_matrix(a))

    state = np.zeros(chart.counts + (n, n))
    state[tuple(base_idx)] = L0

    cache = {}

    def prepare(axis):
        cache.clear()
        cache["om"] = midpoints(om_by_axis[axis], axis)
        cache["w"] = midpoints(w_by_axis[axis], axis)

    def algebra_element(om, w, L):
        m = np.matmul(np.matmul(L, w), np.swapaxes(L, -1, -2))
        th = np.einsum("...ik,...k->...i", L, om)
        a = np.empty_like(m)
        a[..., 1:, 1:] = -m[..., 1:, 1:]
        a[..., 0, 1:] = -(m[..., 0, 1:] + th[..., 1:])
        a[..., 1:, 0] = -a[..., 0, 1:]
        idx = np.arange(n)
        a[..., idx, idx] = 0.0
        return a

    def step(axis, sign, r_from, r_mid, r_to):
        h = sign * chart.spacing[axis]
        om_f, w_f = om_by_axis[axis][r_from], w_by_axis[axis][r_from]
        om_m, w_m = cache["om"][r_mid], cache["w"][r_mid]
        om_t, w_t = om_by_axis[axis][r_to], w_by_axis[axis][r_to]
        y0 = state[r_from]

        k1 = algebra_element(om_f, w_f, y0)
        u2 = (0.5 * h) * k1
        k2 = _dexpinv(u2, algebra_element(om_m, w_m, np.matmul(expm_skew(u2), y0)))
        u3 = (0.5 * h) * k2
        k3 = _dexpinv(u3, algebra_element(om_m, w_m, np.matmul(expm_skew(u3), y0)))
        u4 = h * k3
        k4 = _dexpinv(u4, algebra_element(om_t, w_t, np.matmul(expm_skew(u4), y0)))
        u = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        state[r_to] = np.matmul(expm_skew(u), y0)

    _sweep(chart, base_idx, axes_order, prepare, step)
    return state


def solve_L_nd(
    fd: FrameData,
    L0=None,
    base="center",
    *,
    gate_factor=GATE_FACTOR_DEFAULT,
):
    """Solve for the orthogonal rotation field in any dimension >= 2.

    L0 is the (orthogonal) initial matrix at the base node; defaults to the
    identity.  The first row of the solved field yields theta_1.
    """
    chart = fd.chart
    n = fd.dim
    base_idx = chart.base_index(base)
    if L0 is None:
        L0 = np.eye(n)
    L0 = np.asarray(L0, dtype=float)
    if L0.shape != (n, n):
        raise ValueError("L0 must be n x n")
    if np.max(np.abs(L0 @ L0.T - np.eye(n))) > 1e-10:
        raise ValueError("L0 must be orthogonal")
    structure, threshold = _structure_gate(fd, gate_factor)

    order = tuple(range(n))
    L = _solve_L_once(fd, L0, base_idx, order)
    L_ex = _solve_L_once(fd, L0, base_idx, order[::-1])
    compat = float(np.max(np.abs(L - L_ex)))

    rotation = FrameRotationField(chart, L)
    coeffs = []
    for a in range(n):
        acc = np.zeros(chart.counts)
        for k in range(n):
            acc += L[..., 0, k] * fd.omega[k].coeffs[a].values
        coeffs.append(acc)
    theta1 = OneFormField.from_arrays(chart, coeffs)

    return SolveReport(
        rotation=rotation,
        theta1=theta1,
        compat_residual=compat,
        closed_residual=closedness_residual(theta1),
        orth_residual=rotation.orthogonality_error(),
        structure=structure,
        gate_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# commuting coordinate fields

def _erode(mask):
    """Shrink a boolean mask by one node in every axis direction."""
    out = mask.copy()
    for axis in range(mask.ndim):
        lo = tuple(
            slice(None, -1) if k == axis else slice(None) for k in range(mask.ndim)
        )
        hi = tuple(
            slice(1, None) if k == axis else slice(None) for k in range(mask.ndim)
        )
        shrunk = mask.copy()
        shrunk[hi] &= mask[lo]
        shrunk[lo] &= mask[hi]
        out &= shrunk
    return out


@dataclass
class CoordinateCheck:
    """Finite-difference certificate that the scaled frame fields commute."""

    potential: ScalarField
    path_residual: float
    scalings: list
    first_brackets: np.ndarray  # [v_1, r_i v_i], i = 2..n
    pair_brackets: dict  # {(i, j): residual} for 2 <= i < j
    valid_fraction: float

    def max_bracket(self):
        worst = float(np.max(self.first_brackets)) if self.first_brackets.size else 0.0
        if self.pair_brackets:
            worst = max(worst, max(self.pair_brackets.values()))
        return worst


def special_coordinates_check(
    fd: FrameData,
    report: SolveReport,
    constants=None,
    base="center",
    det_rtol=1e-8,
):
    """Check that v_1 and the rescaled fields r_i v_i pairwise commute.

    G is recovered from theta_1 by line integration, r_i = c_i exp(-G), and
    all Lie brackets are formed with the chart stencils.  Residuals are
    max-norms over interior nodes whose full difference stencil lies in the
    nondegenerate region of the input coframe.
    """
    chart = fd.chart
    n = fd.dim
    if constants is None:
        constants = np.ones(n - 1)
    constants = np.asarray(constants, dtype=float)
    if constants.shape != (n - 1,):
        raise ValueError("need one scaling constant per index 2..n")

    g, path_residual = potential(report.theta1, base)
    decay = np.exp(-g.values)
    scalings = [ScalarField(chart, constants[i] * decay) for i in range(n - 1)]

    frame_comp, valid = frame_vector_fields(fd, det_rtol)
    v_comp = np.matmul(report.rotation.matrix, frame_comp)

    core = _erode(valid)
    interior_mask = np.zeros_like(core)
    interior_mask[tuple(slice(1, -1) for _ in range(n))] = True
    core &= interior_mask
    valid_fraction = float(np.count_nonzero(core)) / core.size

    fields = [v_comp[..., 0, :]]
    for i in range(1, n):
        fields.append(scalings[i - 1].values[..., None] * v_comp[..., i, :])

    def bracket_residual(x, y):
        b = lie_bracket(chart, x, y)
        if not core.any():
            return float("nan")
        return float(np.max(np.abs(b[core])))

    first = np.array([bracket_residual(fields[0], fields[i]) for i in range(1, n)])
    pairs = {}
    for i in range(1, n):
        for j in range(i + 1, n):
            pairs[(i + 1, j + 1)] = bracket_residual(fields[i], fields[j])

    return CoordinateCheck(
        potential=g,
        path_residual=path_residual,
        scalings=scalings,
        first_brackets=first,
        pair_brackets=pairs,
        valid_fraction=valid_fraction,
    )
