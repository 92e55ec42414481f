"""Orthonormal coframes, connection forms, and frame rotations.

`FrameData` bundles the dual coframe with the skew connection matrix as two
dense arrays: omega (n, n, *counts), where omega[i, k] is the dx_k
coefficient of omega_i, and connection (pairs, n, *counts), the one-forms
omega_ij of the pairs i < j in row-major order.  Only the upper triangle is
stored, so omega_ji = -omega_ij holds by construction; `connection_matrix`
expands it to the full skew matrix of one coefficient.
`structure_residuals` measures how well the bundle satisfies the first and
second structure equations at constant sectional curvature K;
`frame_change` rotates the bundle by a pointwise orthogonal matrix field L,
a bare (*counts, n, n) array whose `orthogonality_error` must be at most
`ORTH_TOL_DEFAULT`;
`special_frame_residual` measures the defining conditions of the
distinguished frame whose first dual form is closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import fieldio
from .errors import DegenerateFrameError, OrthogonalityError
from .forms import interior_central
from .grid import GridChart, dense, partial_derivative

DET_RTOL_DEFAULT = 1e-8
ORTH_TOL_DEFAULT = 1e-12
# Nodes per pass of the blocked loops (the Gram blocks of
# `orthogonality_error`, `_nonsingular_2d` and `_duals_2d`, the slabs of
# `structure_residuals`): one double per node is 64 KB, in cache and below
# glibc's 128 KB mmap threshold, so such a temporary faults in no fresh pages.
_BLOCK_NODES = 8192


@dataclass
class FrameData:
    """Dual coframe omega (n, n, *counts) + connection (pairs, n, *counts)."""

    chart: GridChart
    omega: np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        n, counts = self.chart.dim, self.chart.counts
        if n < 2:
            raise ValueError("frame data needs a chart of dimension >= 2")
        self.omega = dense(self.omega, (n, n) + counts, "coframe omega")
        pairs = (n * (n - 1) // 2, n)
        self.connection = dense(self.connection, pairs + counts, "connection")

    @property
    def dim(self):
        return self.chart.dim

    def coefficient_matrix(self):
        """F of shape (*counts, n, n) with F[..., i, k] = (omega_i)_k, a view."""
        return np.moveaxis(self.omega, (0, 1), (-2, -1))

    def row_max_abs(self):
        """Max |coefficient| of each row: (n + pairs, n), row [f, k] the dx_k
        coefficient of form f, the coframe forms first, then the stored
        connection entries.  NaN for a row holding a NaN."""
        # max and -min of each row: no |row| temporary
        forms = (*self.omega, *self.connection)
        return np.array([[np.maximum(np.max(c), -np.min(c)) for c in w] for w in forms])


def live_rows(row_max):
    """live[f, k]: the dx_k row of form f is not known to vanish identically.

    row_max is `FrameData.row_max_abs`.  A row of zeros contributes only +-0
    products while every coefficient is finite; with a NaN or an infinite
    coefficient every row is live, since 0 * inf is NaN.
    """
    live = row_max != 0.0
    if not np.isfinite(row_max).all():
        live[:] = True
    return live


def connection_matrix(upper, axis):
    """W (*counts, n, n) with W[..., i, j] the dx_axis coefficient of omega_ij.

    upper is a (pairs, n, *counts) connection; W is skew by construction.
    """
    n = upper.shape[1]
    out = np.zeros(upper.shape[2:] + (n, n))
    for (i, j), w in zip(combinations(range(n), 2), upper):
        out[..., i, j] = w[axis]
        out[..., j, i] = -w[axis]
    return out


def structure_residuals(fd: FrameData, curvature=-1.0, *, row_max=None):
    """Max-norm interior residuals of the two structure equations.

    res1: d(omega_i) - sum_{j != i} omega_j ^ omega_{ji}
    res2: d(omega_ij) - sum_{k != i, j} omega_ik ^ omega_kj + K omega_i ^ omega_j

    Formed on the strictly interior nodes only, one dx_k ^ dx_l coefficient
    at a time: d of a one-form by `interior_central`, wedges of interior
    views, and omega_ij for i > j as the stored omega_ji with its term's sign
    flipped (x - (-w) is x + w bit for bit), so each node gets the doubles of
    the full-grid exterior derivative and wedge product (the tests keep them
    written out as oracles) up to the sign of a zero, which no max-norm
    sees.  A NaN makes its max-norm NaN.

    row_max is `FrameData.row_max_abs`, taken here when not given.  When it
    and K are finite, every product and difference with an identically zero
    row is left out: it is +-0 at every node, and adding +-0 moves no
    nonzero double.  With a non-finite coefficient nothing is left out, since
    0 * inf is NaN.  The residuals are evaluated in slabs of whole planes of
    the first axis, each with a one-node halo and at most _BLOCK_NODES
    interior nodes (at least one plane), so no temporary is the size of the
    grid.
    """
    n, counts, h = fd.dim, fd.chart.counts, fd.chart.spacing
    pairs = list(combinations(range(n), 2))
    row_max = fd.row_max_abs() if row_max is None else row_max
    K = float(curvature)
    # rows f: omega_f, then the stored connection entries
    live = live_rows(row_max)
    if not np.isfinite(K):
        live[:] = True

    def entry(i, j):  # omega_ij as (sign, form of the stored upper entry)
        return (1 if i < j else -1), n + pairs.index((min(i, j), max(i, j)))

    def plan(k, l, f, wedges):
        """One coefficient r = d(form f)_kl + sum sign scale (a ^ b)_kl as
        (k, l, f, d terms, wedge terms), its identically zero terms left out.

        A d term (row, axis, negate) adds -+ the central difference of row
        `row` of form f along `axis`; a wedge term (sign, a, b, scale, p1,
        p2) adds sign scale (a_k b_l - a_l b_k) with only the products that
        p1 and p2 flag.
        """
        d_terms = [(r, ax, neg) for r, ax, neg in ((l, k, False), (k, l, True)) if live[f, r]]
        w_terms = []
        for sign, a, b, scale in wedges:
            p1, p2 = live[a, k] and live[b, l], live[a, l] and live[b, k]
            if p1 or p2:
                w_terms.append((sign, a, b, scale, p1, p2))
        return k, l, f, d_terms, w_terms

    plans = []  # the res1 coefficients, then the res2 ones
    for k, l in pairs:
        for i in range(n):
            wedges = []
            for j in range(n):
                if j != i:
                    sign, form = entry(j, i)
                    wedges.append((-sign, j, form, None))
            plans.append((0, plan(k, l, i, wedges)))
        for i, j in pairs:
            wedges = []
            for m in range(n):
                if m != i and m != j:  # omega_ii = omega_jj = 0: a zero wedge
                    (s1, a), (s2, b) = entry(i, m), entry(m, j)
                    wedges.append((-s1 * s2, a, b, None))
            wedges.append((1, i, j, K))
            plans.append((1, plan(k, l, entry(i, j)[1], wedges)))

    forms = [*fd.omega, *fd.connection]
    step = max(1, _BLOCK_NODES // math.prod(c - 2 for c in counts[1:]))
    worst = ([], [])
    # NaN and +-Inf coefficients pass on to the structure gate, which fails them
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(1, counts[0] - 1, step):
            stop = min(start + step, counts[0] - 1)
            rows = [form[:, start - 1 : stop + 1] for form in forms]  # one-node halo
            for side, coefficient in plans:
                r = _coefficient(rows, h, *coefficient)
                if r is not None:  # else it vanishes identically
                    worst[side].append(np.max(np.abs(r, out=r)))
    return tuple(float(np.max(w, initial=0.0)) for w in worst)


def _coefficient(rows, h, k, l, f, d_terms, w_terms):
    """The interior values of one planned coefficient of `structure_residuals`
    on a slab of rows, or None when every term was left out."""
    core = (slice(1, -1),) * (rows[0].ndim - 1)
    r = None
    for row, axis, neg in d_terms:
        r = _accumulate(r, interior_central(rows[f][row], axis, h[axis]), neg)
    for sign, a, b, scale, p1, p2 in w_terms:
        A, B = rows[a], rows[b]
        if p1:
            w = A[k][core] * B[l][core]
            if p2:
                w -= A[l][core] * B[k][core]
        else:  # a_k b_l vanishes: the wedge is -(a_l b_k)
            w = A[l][core] * B[k][core]
            sign = -sign
        if scale is not None:
            w *= scale
        r = _accumulate(r, w, sign < 0)
    return r


def _accumulate(r, x, negate):
    """r -+ x in place, or -+x (x negated in place) when r is None."""
    if r is None:
        return np.negative(x, out=x) if negate else x
    (np.subtract if negate else np.add)(r, x, out=r)
    return r


def special_frame_residual(fd: FrameData):
    """Max-norm over all nodes of the special-frame conditions.

    For the distinguished frame: theta_{1i} + theta_i = 0 (i >= 2) and
    theta_ij = 0 (2 <= i < j).  Algebraic, so no interior restriction.
    """
    n = fd.dim
    upper = fd.connection  # pairs (1, 2), ..., (1, n) come first
    worst = 0.0
    for i in range(1, n):
        worst = max(worst, float(np.max(np.abs(upper[i - 1] + fd.omega[i]))))
    if n > 2:
        worst = max(worst, float(np.max(np.abs(upper[n - 1 :]))))
    return worst


def orthogonality_error(L):
    """max |L L^T - I| over the nodes of a (*counts, n, n) field; NaN when any
    entry is NaN.

    n = 2 forms the Gram entries L_i0 L_j0 + L_i1 L_j1 from the component
    views.  n >= 3 keeps the stacked matmul: its BLAS sums use fused
    multiply-adds, which written-out sums would not match bit for bit.  It
    runs over blocks of _BLOCK_NODES nodes, each matrix as in one whole call.
    """
    n = L.shape[-1]
    if n > 2:
        # blocks of nodes: no temporary the size of the field; the block
        # maxima go through np.max, so a NaN anywhere still gives NaN
        nodes = L.reshape((-1, n, n))
        worst = []
        for start in range(0, len(nodes), _BLOCK_NODES):
            blk = nodes[start : start + _BLOCK_NODES]
            gram = np.matmul(blk, np.ascontiguousarray(np.swapaxes(blk, -1, -2)))
            gram -= np.eye(n)
            worst.append(np.max(np.abs(gram, out=gram)))
        return float(np.max(worst))
    (a, b), (c, d) = np.moveaxis(L, (-2, -1), (0, 1))
    grams = (a * a + b * b - 1.0, a * c + b * d, c * c + d * d - 1.0)
    return float(np.max([np.max(np.abs(g, out=g)) for g in grams]))


def require_orthogonal(L):
    """`orthogonality_error(L)`, or OrthogonalityError when it is not finite or
    exceeds ORTH_TOL_DEFAULT."""
    err = orthogonality_error(L)
    if not np.isfinite(err) or err > ORTH_TOL_DEFAULT:
        raise OrthogonalityError("matrix field is not orthogonal: max |LL^T - I| = %.3e" % err)
    return err


def frame_change(fd: FrameData, L) -> FrameData:
    """Rotate the bundle: theta_i = L_ij omega_j, Theta = dL L^T + L W L^T.

    L is a (*counts, n, n) orthogonal field on the bundle's chart
    (`require_orthogonal`).  The rotated connection is skew-symmetrized (its
    analytic skewness holds only to stencil order for non-constant L)
    before its upper triangle is stored.
    """
    chart = fd.chart
    n = fd.dim
    L = dense(L, chart.counts + (n, n), "rotation")
    require_orthogonal(L)
    L_ij = np.moveaxis(L, (-2, -1), (0, 1))  # L_ij[i, j] = L[..., i, j]

    # theta[i, k] = sum_j L_ij omega_j,k, summed over j in order
    theta = np.zeros((n, n) + chart.counts)
    for j in range(n):
        theta += L_ij[:, j, None] * fd.omega[j]

    rows, cols = np.triu_indices(n, 1)
    upper = np.empty((len(rows), n) + chart.counts)
    for a in range(n):
        dL = partial_derivative(L, a, chart.spacing[a])
        w_a = connection_matrix(fd.connection, a)
        total = np.einsum("...ik,...jk->...ij", dL, L)
        total += np.matmul(np.matmul(L, w_a), np.swapaxes(L, -1, -2))
        skew = 0.5 * (total - np.swapaxes(total, -1, -2))
        upper[:, a] = np.moveaxis(skew[..., rows, cols], -1, 0)

    return FrameData(chart, theta, upper)


def nonsingular_nodes(fd: FrameData, det_rtol=DET_RTOL_DEFAULT):
    """The nodes (*counts) whose coefficient matrix F passes the determinant test.

    A node passes when |det(F / scale)| > det_rtol, scale the max
    |coefficient|; scaling first keeps the test free of overflow at any
    coefficient size, and a NaN or +-Inf coefficient fails it.  n = 2 takes
    det = p u from the pivot and Schur complement of `_pivot_schur`, n >= 3
    `np.linalg.det`; no inverse is formed.  Raises DegenerateFrameError
    when no node passes.
    """
    n = fd.dim
    scale = float(np.max(np.abs(fd.omega)))
    if scale == 0.0:
        raise DegenerateFrameError("coefficient matrix vanishes identically")
    if n == 2:
        valid = _nonsingular_2d(fd.omega, scale, det_rtol)
    else:
        # NaN and +-Inf coefficients give NaN here; they are invalid
        with np.errstate(invalid="ignore"):
            valid = np.abs(np.linalg.det(fd.coefficient_matrix() / scale)) > det_rtol
    if not valid.any():
        raise DegenerateFrameError(
            "degenerate frame: coefficient matrix is singular everywhere"
            " (|det| <= %g max|coefficient|^%d)"
            % (det_rtol, n)
        )
    return valid


def frame_vector_fields(fd: FrameData, det_rtol=DET_RTOL_DEFAULT):
    """Coordinate components of the frame vectors dual to the coefficient matrix.

    Returns (components, valid) where components[..., i, k] is the k-th
    coordinate component of e_i (so omega_j(e_i) = delta_ij) and valid is
    `nonsingular_nodes`, which raises DegenerateFrameError when no node is
    invertible; the other nodes hold zeros.  n = 2 takes the closed form of
    `_duals_2d`, n >= 3 `np.linalg.inv`.
    """
    valid = nonsingular_nodes(fd, det_rtol)
    if fd.dim == 2:
        return _duals_2d(fd.omega, valid), valid
    F = fd.coefficient_matrix()
    comps = np.zeros_like(F)
    comps[valid] = np.swapaxes(np.linalg.inv(F[valid]), -1, -2)
    return comps, valid


def _halves(x):
    """x = hi + lo with 26-bit hi and lo, so products of halves are exact."""
    hi = x * fieldio._SPLIT
    hi -= hi - x
    return hi, x - hi


def _product_error(xs, ys, xy):
    """x * y - xy exactly for xy = fl(x * y), from halves (Dekker's TwoProduct)."""
    (xh, xl), (yh, yl) = xs, ys
    e = xh * yh
    e -= xy
    e += xh * yl
    e += xl * yh
    e += xl * yl
    return e


# singular, NaN and +-Inf nodes give NaN or Inf here; they are invalid
@np.errstate(all="ignore")
def _pivot_schur(omega):
    """(swap, p, u) of the LU factors of F = [[a, b], [c, d]] (2, 2, nodes).

    With partial pivoting the pivot p is whichever of a, c is larger in
    magnitude (a on a tie; swap marks c), g the other, and q, s their row
    partners.  The Schur complement u = s - (g / p) q is accurate to a few
    ulps at any conditioning, since the roundings of l = g / p and of l q
    are recovered exactly by TwoProduct.  det F = +-p u, - where swap.
    """
    (a, b), (c, d) = omega
    swap = np.abs(c) > np.abs(a)
    p, g = np.where(swap, c, a), np.where(swap, a, c)
    q, s = np.where(swap, d, b), np.where(swap, b, d)
    l = g / p
    lh = _halves(l)
    lp, lq = l * p, l * q
    rho = g - lp  # exact (Sterbenz): l p lies within a few ulps of g
    rho -= _product_error(lh, _halves(p), lp)  # rho = g - l p
    u = s - lq
    u -= _product_error(lh, _halves(q), lq)  # u = s - l q
    rho /= p
    rho *= q
    u -= rho
    return swap, p, u


def _nonsingular_2d(omega, scale, det_rtol):
    """The mask of `nonsingular_nodes` for a 2 x 2 coframe (2, 2, *counts):
    |det| / scale^2 = |(p / scale) (u / scale)| > det_rtol."""
    flat = omega.reshape(2, 2, -1)
    valid = np.empty(flat.shape[2], bool)
    with np.errstate(all="ignore"):
        for start in range(0, valid.size, _BLOCK_NODES):
            blk = slice(start, start + _BLOCK_NODES)
            _, p, u = _pivot_schur(flat[..., blk])
            valid[blk] = np.abs((u / scale) * (p / scale)) > det_rtol
    return valid.reshape(omega.shape[2:])


def _duals_2d(omega, valid):
    """The components of `frame_vector_fields` for a 2 x 2 coframe, closed form.

    For F = [[a, b], [c, d]], comps is F^-T = [[d, -c], [-b, a]] / det as
    the LU factors of `_pivot_schur` give it: each component is its
    cofactor divided by u and by +-p, and the pivot's own component is
    1 / u, so a diagonal F gets 1 / a and 1 / d correctly rounded.  Nodes
    that valid does not mark hold zeros.
    """
    counts = omega.shape[2:]
    flat = omega.reshape(2, 2, -1)
    comps = np.empty(flat.shape)
    valid = valid.reshape(-1)
    for start in range(0, valid.size, _BLOCK_NODES):
        blk = slice(start, start + _BLOCK_NODES)
        _duals_block(flat[..., blk], comps[..., blk], valid[blk])
    comps = comps.reshape((2, 2) + counts)
    return np.moveaxis(comps, (0, 1), (-2, -1))


@np.errstate(all="ignore")
def _duals_block(omega, comps, valid):
    """Fill comps (2, 2, nodes) from omega (2, 2, nodes); see `_duals_2d`."""
    (a, b), (c, d) = omega
    swap, p, u = _pivot_schur(omega)
    np.negative(p, out=p, where=swap)  # det = p u, with its sign
    for out, cof in zip((comps[0, 0], comps[0, 1], comps[1, 0], comps[1, 1]), (d, c, b, a)):
        np.divide(cof, u, out=out)
        out /= p
    np.negative(comps[0, 1], out=comps[0, 1])
    np.negative(comps[1, 0], out=comps[1, 0])
    np.divide(1.0, u, out=comps[1, 1], where=~swap)
    np.divide(1.0, u, out=comps[0, 1], where=swap)
    comps[:, :, ~valid] = 0.0


def lie_bracket(chart: GridChart, x_comp, y_comp):
    """[X, Y]^k = X^m d_m Y^k - Y^m d_m X^k with the chart stencils.

    x_comp, y_comp: arrays of shape (*counts, n) of coordinate components.
    """
    n = chart.dim
    out = np.zeros_like(x_comp)
    for k in range(n):
        for m in range(n):
            d_yk = partial_derivative(y_comp[..., k], m, chart.spacing[m])
            d_xk = partial_derivative(x_comp[..., k], m, chart.spacing[m])
            out[..., k] += x_comp[..., m] * d_yk - y_comp[..., m] * d_xk
    return out


def save_frame_data(path, fd: FrameData):
    """Write a frame bundle as one pssfield file.

    Component order: omega_1..omega_n then omega_ij for i<j (row-major),
    each form contributing its n coefficients in axis order.
    """
    counts = fd.chart.counts
    comps = [fd.omega.reshape((-1,) + counts), fd.connection.reshape((-1,) + counts)]
    fieldio.write_field(path, fd.chart, np.concatenate(comps))


def load_frame_data(path):
    """Read a file written by `save_frame_data`; both arrays are views of one block.

    A NaN or infinite coefficient is refused with a ValueError naming it.
    """
    chart, stack = fieldio.read_field(path)
    bad = np.argwhere(~np.isfinite(stack))
    if bad.size:
        comp, *node = bad[0].tolist()
        raise ValueError(
            "non-finite coefficient %r in component %d at node %s"
            % (float(stack[tuple(bad[0])]), comp + 1, tuple(node))
        )
    n = chart.dim
    n_pairs = n * (n - 1) // 2
    if stack.shape[0] != n * n + n_pairs * n:
        raise ValueError("component count does not match frame data layout")
    omega = stack[: n * n].reshape((n, n) + chart.counts)
    upper = stack[n * n :].reshape((n_pairs, n) + chart.counts)
    return FrameData(chart, omega, upper)
