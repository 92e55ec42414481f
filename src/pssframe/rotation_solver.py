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
solvers coincide algebraically.  For n = 3 the Lie-algebra elements are
carried as axial 3-vectors (skew matrix <-> axial vector, commutator <->
cross product, exp <-> Rodrigues); every other n uses skew matrices.  The
two forms are algebraically identical and differ only in round-off.  The
n = 3 kernels run component-major: each matrix entry and vector component
of a whole line of nodes is one contiguous row, so a stage is a few dozen
row operations instead of stacked 3 x 3 products.

One step engine serves both solvers: the scalar scheme is the same tableau
on the additive group.  One block walker, `_sweep`, serves every sweep, with
two block fills: `rkmk4_fill` steps each line from the one before, and
`affine_fill` serves linear equations y' = a y + b, whose RK4 steps are
affine maps y -> A y + B: the maps of a whole block come from two
vectorized steps, and each line is then one multiply-add, in place.  One
line engine, `integrate_line` (with `affine_line` for the affine maps),
steps a single line of nodes on Python floats: both fills use it when the
block is one line of single nodes, shape (m, 1), and the hierarchy's
periodic starts use it for their return maps.  The block shape alone picks
the path, and both paths do the same operations in the same order.
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

def _rodrigues(w):
    """exp(hat(w)) component-major: w (3, ...) -> R (3, 3, ...), hat(w) x = w x x.

    Rodrigues' formula I + s hat(w) + c hat(w)^2 with s = sin(t)/t and
    c = (1 - cos t)/t^2, t = |w|, written out entry by entry through
    hat(w)^2 = w w^T - t^2 I.
    """
    w1, w2, w3 = w
    t2 = w1 * w1 + w2 * w2 + w3 * w3
    t = np.sqrt(t2)
    # sin(t)/t and (1-cos t)/t^2 with series fallbacks near 0
    small = t < 1e-4
    tt = np.where(small, 1.0, t)
    s = np.sin(t) / tt
    c = (1.0 - np.cos(t)) / (tt * tt)
    if small.any():
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s)
        c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, c)
    out = np.empty((3,) + w.shape)
    d = 1.0 - c * t2
    cw1, cw2 = c * w1, c * w2
    sw1, sw2, sw3 = s * w1, s * w2, s * w3
    out[0, 0] = cw1 * w1 + d
    out[1, 1] = cw2 * w2 + d
    out[2, 2] = c * w3 * w3 + d
    x = cw1 * w2
    out[0, 1] = x - sw3
    out[1, 0] = x + sw3
    x = cw1 * w3
    out[0, 2] = x + sw2
    out[2, 0] = x - sw2
    x = cw2 * w3
    out[1, 2] = x - sw1
    out[2, 1] = x + sw1
    return out


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
        w = np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]])
        return np.moveaxis(_rodrigues(w), (0, 1), (-2, -1))
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


def _cross(a, b):
    """Cross product of two component-major 3-vectors a, b (3, ...)."""
    out = np.empty(a.shape)
    out[0] = a[1] * b[2] - a[2] * b[1]
    out[1] = a[2] * b[0] - a[0] * b[2]
    out[2] = a[0] * b[1] - a[1] * b[0]
    return out


def _dexpinv_axial(u, k):
    """_dexpinv in so(3) axial form, where [hat(u), hat(k)] = hat(u x k)."""
    c1 = _cross(u, k)
    return k - 0.5 * c1 + _cross(u, c1) / 12.0


# ---------------------------------------------------------------------------
# sweep engine

def rkmk4_step(h, y0, lo, mid, hi, kernels):
    """One Munthe-Kaas RK4 step of length h from y0.

    kernels = (field, dexpinv, exp_mul): field(samples, y) is the Lie-algebra
    element the equation assigns to y at the coefficient samples lo / mid /
    hi (line left, interval midpoints, line reached), dexpinv(u, k) the
    truncated inverse differential of exp and exp_mul(u, y) = exp(u) y.  On
    the additive group (dexpinv(u, k) = k, exp_mul(u, y) = y + u) this is
    the classic RK4 step.
    """
    field, dexpinv, exp_mul = kernels
    k1 = field(lo, y0)
    u2 = (0.5 * h) * k1
    k2 = dexpinv(u2, field(mid, exp_mul(u2, y0)))
    u3 = (0.5 * h) * k2
    k3 = dexpinv(u3, field(mid, exp_mul(u3, y0)))
    u4 = h * k3
    k4 = dexpinv(u4, field(hi, exp_mul(u4, y0)))
    return exp_mul((h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), y0)


def _sweep(chart: GridChart, base, axes_order, y, system):
    """Fill y (*counts, ...) from its value at the base node by line sweeps.

    Each swept axis fills one block: that axis and the axes swept before it
    in full, the others pinned at the base.  take(f) is the block of a
    full-grid array f (any trailing component shape) with the swept axis
    first, and system(axis, take) returns (arrays, fill): the blocks of the
    coefficient arrays the equation along that axis consumes and the block
    fill (`rkmk4_fill` or `affine_fill`).  The blocks are made contiguous,
    midpoints are taken on them only, fill(h, blk, b, node, mid) fills the
    block of y from its base line b, and the block is written back once.
    """
    filled = set()
    for axis in axes_order:
        idx = tuple(
            slice(None) if k == axis or k in filled else slice(base[k], base[k] + 1)
            for k in range(chart.dim)
        )

        def take(f):
            return np.moveaxis(f[idx], axis, 0)

        arrays, fill = system(axis, take)
        node = [np.ascontiguousarray(f) for f in arrays]
        mid = [midpoints(f, 0) for f in node]
        b = base[axis]
        # only the base line of the block is known before the sweep fills it
        blk = np.empty(take(y).shape)
        blk[b] = take(y)[b]
        fill(chart.spacing[axis], blk, b, node, mid)
        y[idx] = np.moveaxis(blk, 0, axis)
        filled.add(axis)
    return y


def integrate_line(h, y, node_fields, mid_fields, kernels):
    """`rkmk4_step` along one line of nodes from y; yields y, y_1, y_2, ...

    node_fields and mid_fields are the coefficient samples of the line at
    its nodes and interval midpoints.  They are handed to the kernels as
    tuples of Python floats, one per field: on scalar and two-entry states
    numpy scalars or 1-element arrays would cost more than the step.
    """
    nodes = list(zip(*(f.ravel().tolist() for f in node_fields)))
    mids = list(zip(*(f.ravel().tolist() for f in mid_fields)))
    yield y
    for lo, md, hi in zip(nodes[:-1], mids, nodes[1:]):
        y = rkmk4_step(h, y, lo, md, hi, kernels)
        yield y


def rkmk4_fill(kernels):
    """Block fill of `_sweep`: one `rkmk4_step` per line and interval.

    A block that is one line of single nodes, shape (m, 1), is stepped on
    Python floats by `integrate_line`; wider blocks step whole lines, each
    from the state the step before returned, so the block is read only at
    its base line and may be a strided view.
    """

    def fill(h, blk, b, node, mid):
        if blk.shape[1:] == (1,):
            y = blk[b, 0].item()
            blk[b:, 0] = list(
                integrate_line(h, y, [f[b:] for f in node], [f[b:] for f in mid], kernels)
            )
            blk[b::-1, 0] = list(
                integrate_line(
                    -h, y, [f[b::-1] for f in node], [f[:b][::-1] for f in mid], kernels
                )
            )
            return
        y = blk[b]
        for i in range(b, blk.shape[0] - 1):
            lo, md, hi = [f[i] for f in node], [f[i] for f in mid], [f[i + 1] for f in node]
            y = blk[i + 1] = rkmk4_step(h, y, lo, md, hi, kernels)
        y = blk[b]
        for i in range(b, 0, -1):
            lo, md, hi = [f[i] for f in node], [f[i - 1] for f in mid], [f[i - 1] for f in node]
            y = blk[i - 1] = rkmk4_step(-h, y, lo, md, hi, kernels)

    return fill


def _linear_field(s, y):
    return s[0] * y


def _affine_field(s, y):
    return s[0] * y + s[1]


def affine_step_maps(h, lo, mid, hi):
    """The RK4 steps of y' = a y + b as affine maps y -> A y + B.

    lo, mid and hi are the (a, b) samples of a stack of intervals, as in
    `rkmk4_step`.  The step is affine in y, so A is one step from 1 on
    y' = a y and B one step from 0 on the full equation: two vectorized
    steps cover every interval of the stack.
    """
    A = rkmk4_step(h, 1.0, lo[:1], mid[:1], hi[:1], additive_kernels(_linear_field))
    B = rkmk4_step(h, 0.0, lo, mid, hi, additive_kernels(_affine_field))
    return A, B


def affine_line(A, B, y):
    """The recurrence y -> a y + b over the maps A, B; yields y, y_1, y_2, ...

    Runs on Python floats: one line of single nodes, or a return map.
    """
    yield y
    for a, b in zip(A.ravel().tolist(), B.ravel().tolist()):
        y = a * y + b
        yield y


def _affine_rows(A, B, rows):
    """Fill rows[1:] from rows[0] by row = a * previous + b, in place."""
    for a, b, prev, row in zip(A, B, rows, rows[1:]):
        np.multiply(a, prev, out=row)
        row += b


def affine_fill(h, blk, b, node, mid):
    """Block fill of `_sweep` for y' = a y + b, node = (a, b) blocks.

    The step maps of every interval above the base line come from one
    `affine_step_maps` call, those below it from one call with -h and lo
    and hi swapped; each line is then A * previous + B, on Python floats
    for a block of single nodes, shape (m, 1), and in place otherwise.
    """
    up = affine_step_maps(
        h, [f[b:-1] for f in node], [f[b:] for f in mid], [f[b + 1 :] for f in node]
    )
    A, B = affine_step_maps(
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


def _add(u, y):
    return y + u


def _identity(u, k):
    return k


def additive_kernels(field):
    """Kernels of `rkmk4_step` on the additive group: the classic RK4 step."""
    return field, _identity, _add


def sweep_scalar(chart, base, axes_order, init_value, node_fields, rhs):
    """Integrate a scalar ODE field along staircase sweeps (RK4).

    node_fields: list of full-grid arrays the right-hand side consumes.
    rhs(axis, samples, y): samples is a list of arrays (one per field,
    sampled at the stage position).  Returns the filled grid array.
    """
    y = np.zeros(chart.counts)
    y[tuple(base)] = init_value

    def system(axis, take):
        fill = rkmk4_fill(additive_kernels(lambda s, v: rhs(axis, s, v)))
        return [take(f) for f in node_fields], fill

    return _sweep(chart, base, axes_order, y, system)


def sweep_linear(chart, base, axes_order, init_value, slopes, sources):
    """`sweep_scalar` for y' = slopes[axis] y + sources[axis] along each axis.

    The RK4 steps of a linear equation are affine maps, so every block is
    filled by `affine_fill`: two vectorized steps and one multiply-add per
    line.
    """
    y = np.zeros(chart.counts)
    y[tuple(base)] = init_value

    def system(axis, take):
        return [take(slopes[axis]), take(sources[axis])], affine_fill

    return _sweep(chart, base, axes_order, y, system)


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
    """Structure-gate threshold: gate_factor * h_max^2 * max(1, max |coeff|).

    A NaN coefficient makes it NaN, an infinite one infinite.
    """
    h_max = max(fd.chart.spacing)
    return gate_factor * h_max**2 * float(np.maximum(1.0, fd.max_abs()))


def structure_gate(fd: FrameData, gate_factor):
    """Residuals, threshold and verdict of the structure gate.

    Both residuals must be at most a finite threshold, so a frame with a
    non-finite coefficient never passes.
    """
    res1, res2 = structure_residuals(fd, curvature=-1.0)
    threshold = structure_threshold(fd, gate_factor)
    ok = bool(np.isfinite(threshold) and res1 <= threshold and res2 <= threshold)
    return (res1, res2), threshold, ok


def _structure_gate(fd: FrameData, gate_factor):
    if gate_factor is None:
        return structure_residuals(fd, curvature=-1.0), float("inf")
    structure, threshold, ok = structure_gate(fd, gate_factor)
    if not ok:
        raise StructureGateError(*structure, threshold)
    return structure, threshold


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

    om1, om2, om12 = fd.omega[0].values, fd.omega[1].values, fd.connection.values[0]
    # the dx_1 coefficients of omega_1, omega_2, omega_12, then the dx_2 ones
    fields = [om1[0], om2[0], om12[0], om1[1], om2[1], om12[1]]

    def rhs(axis, s, y):
        w1, w2, w12 = s[3 * axis : 3 * axis + 3]
        return w12 + np.sin(y) * w1 + np.cos(y) * w2

    phi = sweep_scalar(chart, base_idx, (0, 1), float(phi0), fields, rhs)
    phi_ex = sweep_scalar(chart, base_idx, (1, 0), float(phi0), fields, rhs)
    compat = float(np.max(np.abs(phi - phi_ex)))

    angle = ScalarField(chart, phi)
    rotation = FrameRotationField.from_angle(angle)
    theta1 = OneFormField(chart, np.cos(phi) * om1 - np.sin(phi) * om2)
    return SolveReport(
        rotation=rotation,
        theta1=theta1,
        compat_residual=compat,
        closed_residual=closedness_residual(theta1),
        orth_residual=rotation.orth_residual,
        structure=structure,
        gate_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# general-dimension orthogonal solver

def _matrix_system(fd: FrameData):
    """RKMK4 system of the n x n orthogonal field with skew-matrix kernels."""
    n = fd.dim

    def algebra_element(samples, L):
        om, w = samples
        m = np.matmul(np.matmul(L, w), np.swapaxes(L, -1, -2))
        th = np.einsum("...ik,...k->...i", L, om)
        a = np.empty_like(m)
        a[..., 1:, 1:] = -m[..., 1:, 1:]
        a[..., 0, 1:] = -(m[..., 0, 1:] + th[..., 1:])
        a[..., 1:, 0] = -a[..., 0, 1:]
        idx = np.arange(n)
        a[..., idx, idx] = 0.0
        return a

    def exp_mul(u, y):
        return np.matmul(expm_skew(u), y)

    def system(axis, take):
        # om[..., k] = coefficient of dx_axis in omega_k
        om = np.stack([take(fd.omega[k].values[axis]) for k in range(n)], axis=-1)
        w = take(fd.connection.coefficient_matrix(axis))
        return [om, w], rkmk4_fill((algebra_element, _dexpinv, exp_mul))

    return system


def _axial_system(fd: FrameData, sigma):
    """RKMK4 system of the 3 x 3 orthogonal field in so(3) axial-vector form.

    The algebra element -L W L^T + (L om) e_1^T - e_1 (L om)^T of the matrix
    form is hat(alpha) with alpha = e_1 x (L om) - sigma L w, where w is the
    axial vector of W and sigma = det(L): L hat(w) L^T = det(L) hat(L w).
    Every exp update keeps det(L) = det(L0), so sigma is fixed per solve.
    The kernels run component-major on whole lines: L (3, 3, ...), the
    coefficients P = [om | -sigma w] (3, 2, ...), algebra elements (3, ...).
    P is built in that layout; the fill sees the state block through a
    component-major view, so each line is converted once, when written.
    """
    conn = fd.connection.values  # pairs (1, 2), (1, 3), (2, 3)

    def algebra_element(samples, L):
        (p,) = samples
        # -sigma L w, then e_1 x (L om) from rows 2 and 3 of L om
        a = L[:, 0] * p[0, 1] + L[:, 1] * p[1, 1] + L[:, 2] * p[2, 1]
        lom = L[1:, 0] * p[0, 0] + L[1:, 1] * p[1, 0] + L[1:, 2] * p[2, 0]
        a[1] -= lom[1]
        a[2] += lom[0]
        return a

    def exp_mul(u, y):
        r = _rodrigues(u)
        out = np.empty(y.shape)
        for j in range(3):
            out[j] = r[j, 0] * y[0] + r[j, 1] * y[1] + r[j, 2] * y[2]
        return out

    steps = rkmk4_fill((algebra_element, _dexpinv_axial, exp_mul))

    def fill(h, blk, b, node, mid):
        steps(h, np.moveaxis(blk, (-2, -1), (1, 2)), b, node, mid)

    def system(axis, take):
        shape = take(conn[0, axis]).shape
        p = np.empty(shape[:1] + (3, 2) + shape[1:])
        for k in range(3):
            p[:, k, 0] = take(fd.omega[k].values[axis])
        # w = (-w_23, w_13, -w_12) (one-based), stored as -sigma w
        np.multiply(sigma, take(conn[2, axis]), out=p[:, 0, 1])
        np.multiply(-sigma, take(conn[1, axis]), out=p[:, 1, 1])
        np.multiply(sigma, take(conn[0, axis]), out=p[:, 2, 1])
        return [p], fill

    return system


def _solve_L_once(fd: FrameData, L0, base_idx, axes_order):
    n = fd.dim
    state = np.zeros(fd.chart.counts + (n, n))
    state[tuple(base_idx)] = L0
    if n == 3:
        system = _axial_system(fd, 1.0 if np.linalg.det(L0) > 0 else -1.0)
    else:
        system = _matrix_system(fd)
    return _sweep(fd.chart, base_idx, axes_order, state, system)


def initial_rotation(L0, n):
    """The start matrix of `solve_L_nd` on an n-dimensional chart, checked.

    None gives the identity; anything else must be an orthogonal n x n
    matrix (to 1e-10), or ValueError names what is wrong with it.
    """
    if L0 is None:
        return np.eye(n)
    L0 = np.asarray(L0, dtype=float)
    if L0.shape != (n, n):
        raise ValueError(
            "L0 must be %d x %d on a %dD chart, got shape %s" % (n, n, n, L0.shape)
        )
    err = np.max(np.abs(L0 @ L0.T - np.eye(n)))
    if not err <= 1e-10:
        raise ValueError("L0 must be orthogonal: max |L0 L0^T - I| = %.3e" % err)
    return L0


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
    L0 = initial_rotation(L0, n)
    structure, threshold = _structure_gate(fd, gate_factor)

    order = tuple(range(n))
    L = _solve_L_once(fd, L0, base_idx, order)
    L_ex = _solve_L_once(fd, L0, base_idx, order[::-1])
    compat = float(np.max(np.abs(L - L_ex)))

    rotation = FrameRotationField(chart, L)
    th = np.zeros((n,) + chart.counts)
    for k in range(n):
        th += L[..., 0, k] * fd.omega[k].values
    theta1 = OneFormField(chart, th)

    return SolveReport(
        rotation=rotation,
        theta1=theta1,
        compat_residual=compat,
        closed_residual=closedness_residual(theta1),
        orth_residual=rotation.orth_residual,
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


def scaling_constants(constants, n):
    """The constants c_2..c_n of `special_coordinates_check`, checked.

    None gives ones; anything else must hold n - 1 values, or ValueError
    says how many it holds.
    """
    if constants is None:
        return np.ones(n - 1)
    constants = np.asarray(constants, dtype=float)
    if constants.shape != (n - 1,):
        raise ValueError(
            "need n - 1 = %d scaling constants on a %dD chart, got %d"
            % (n - 1, n, constants.size)
        )
    return constants


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
    constants = scaling_constants(constants, n)

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
