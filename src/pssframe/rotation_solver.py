"""Solvers for the frame rotation that produces a closed first dual form.

Both solvers integrate exact one-step updates along grid lines, run by the
staircase walker of `grid` (`grid._sweep`): first along axis 1 through the
base node, then fanning out along each remaining axis line by line, so the
whole chart is reached by a staircase of 1D problems.  The same solve is
repeated with the axis order reversed, streamed by the walker, which takes
its first line from the forward state, and the max discrepancy is
reported as `compat_residual` (`grid._streamed_compat`) — a direct
certificate of the integrability of the input data.  This module
holds what the walker runs: the step engines, the block fills and the
kernels of each equation.  `angle_sweeps` is the gate, sweep and
certificate core of `solve_phi_2d`, for callers that need only the angle.

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
row operations instead of stacked 3 x 3 products.  Each 3 x 3 contraction
(L p in the algebra element, R L in the exp update) is one two-operand
`np.einsum` (`_contract`), which sums k = 0, 1, 2 in the order of the
written-out row sums on lines of more than one node; on a line of one node
the products are added one by one, since einsum's loop there is a dot
product whose grouping follows the data's alignment.  No `optimize=`,
which may hand the sum to BLAS in another order.

Both solvers leave out the coefficient rows that vanish identically, as
the structure gate's `FrameData.row_max_abs` finds them, but only when
every coefficient is finite (`frames.live_rows`).  Along an axis where
exactly one of the omega_1 and omega_2 rows vanishes, the angle equation
takes only sin(phi) or only cos(phi) (`angle_system`).  The n = 3
coefficient slab P holds only the live rows of om and w, and the algebra
element contracts L over those rows; on the diagonal igsge coframe that is
5 of the 18 planes of the three axes.  Every term left out is +-0.  In
the n = 3 element it would join an `np.einsum` sum, which starts at +0 and
so is never -0, and there a +-0 term changes no bit.  In the angle
equation it can change only the sign of a zero slope, which reaches the
state only through a -0 state; a line holds -0 only from a -0 start, and a
-0 start keeps every row.  So every output keeps its bits.  The n >= 4
matrix kernels keep every row.

One step engine serves both solvers: the scalar scheme is the same tableau
on the additive group.  There are two block fills, each of which samples
its coefficient lines, and their interval midpoints, a chunk of lines at a
time from the sampler the walker hands it (`_lines_and_midpoints`: a halo
of two nodes on each side gives every interval the whole block's midpoint
rule and bits), and writes its lines through windows of the block
(`grid._Block`).
`rkmk4_fill` marches up and down from the base line as one row: the lines
b + j and b - j are folded onto a direction axis of length 2 and take one
step together with h carried as [h, -h], so a centred block costs half as
many steps, and the longer half's remaining steps run alone.  Its chunks
hold as many steps as `grid._chunk_steps` allows, each chunk's up and
down coefficient lines stacked onto the direction axis, so neither a
block's coefficients nor its midpoints are ever whole, and a block is cut
across its lines only when one folded line of state passes the chunk
budget.  `affine_fill` serves linear equations y' = a y + b, whose RK4
steps are affine maps y -> A y + B: the maps of each chunk of consecutive
intervals, at most 8,192 values (`frames._BLOCK_NODES`, 64 KB) per
temporary, come from two vectorized steps, and each line of the chunk is
then one multiply-add, in place.  The gains A depend on the slope alone,
so `linear_fills` builds one fill per slab of the walker's sweep
(`grid._sweep_slabs`) per axis order, each fill forms its gains on its
first call, and `sweep_linear` reuses them for every source; a sweep
then samples only the source lines and, chunk by
chunk, their midpoints and the shifts B.  The steps are elementwise, so a
chunk gets the whole block's bits, and every element goes through the
same operations as in separate steps; so does a slab of a block, in every
n (`expm_skew` scales each matrix by its own norm).  `sweep_scalar` takes
its fields per axis, so each block samples only the fields its own axis
reads.  One line engine, `integrate_line` (with `affine_line` for the
affine maps), steps a single line of nodes on Python floats sampled by
`line_steps`: both fills use it when the block is one line of single
nodes, shape (m, 1).  The block shape alone picks the path, and every
path does the same operations in the same order, so the exchanged-order
certificate can take its first line from the forward state.  The
hierarchy's periodic starts take no line engine of their own: the angle
start forms the step matrices of its lifted linear system in one
vectorized `rkmk4_step`, and the linear orders compose `affine_gains` and
`affine_shifts` with `affine_line`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import StructureGateError
from .forms import closedness_residual, potential
from .frames import (
    _BLOCK_NODES,
    DET_RTOL_DEFAULT,
    FrameData,
    connection_matrix,
    frame_file_structure,
    live_rows,
    nonsingular_nodes,
    require_orthogonal,
    structure_residuals,
)
from .grid import _chunk_steps, _lines, _streamed_compat, _sweep, _sweep_slabs, midpoints

GATE_FACTOR_DEFAULT = 10.0


# ---------------------------------------------------------------------------
# vectorized exponentials of skew matrices

def _rodrigues(w):
    """exp(hat(w)) component-major: w (3, ...) -> R (3, 3, ...), hat(w) x = w x x.

    Rodrigues' formula I + s hat(w) + c hat(w)^2 with s = sin(t)/t and
    c = (1 - cos t)/t^2, t = |w|, written out entry by entry through
    hat(w)^2 = w w^T - t^2 I.  Every entry is written straight into out,
    whole components at a time where the formula allows it, and each
    element goes through the operations of the written-out formula:
    R_ii = (c w_i) w_i + d, R_01 = c w1 w2 - s w3, and so on.  (An einsum
    for t^2 would not do: with the component axis innermost it sums in
    another order.)
    """
    w1, w2, w3 = w
    ww = w * w
    t2 = ww[0] + ww[1] + ww[2]
    t = np.sqrt(t2)
    # sin(t)/t and (1-cos t)/t^2 with series fallbacks near 0
    small = t < 1e-4
    any_small = small.any()
    tt = np.where(small, 1.0, t) if any_small else t
    s = np.sin(t) / tt
    c = (1.0 - np.cos(t)) / (tt * tt)
    if any_small:
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s)
        c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, c)
    out = np.empty((3,) + w.shape)
    d = 1.0 - c * t2
    cw1, cw2, _ = cw = c * w
    sw1, sw2, sw3 = s * w
    diagonal = out.reshape((9,) + w.shape[1:])[::4]
    np.multiply(cw, w, out=diagonal)
    diagonal += d
    x = cw1 * w2
    np.subtract(x, sw3, out=out[0, 1, ...])
    np.add(x, sw3, out=out[1, 0, ...])
    x = cw1 * w3
    np.add(x, sw2, out=out[0, 2, ...])
    np.subtract(x, sw2, out=out[2, 0, ...])
    x = cw2 * w3
    np.subtract(x, sw1, out=out[1, 2, ...])
    np.add(x, sw1, out=out[2, 1, ...])
    return out


def expm_skew(a):
    """exp(A) for a stack of skew matrices A (..., n, n), orthogonal to round-off.

    Every n scales and squares with a Taylor kernel of order 18 (Al-Mohy &
    Higham 2009): each matrix is scaled by the power of two that brings its
    own max norm to at most 0.5 and is squared back as often, so a matrix
    gets the same bits in any stack.  A NaN entry takes no squarings and gives NaN; an infinite
    one gives a NaN matrix.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    # truncation ~0.5^19/19! at the scaled norm: below round-off
    squarings = np.zeros(a.shape[:-2], int)
    if not np.max(np.abs(a)) <= 0.5:  # per-matrix norms only then: they slow a 4D solve
        norm = np.max(np.abs(a), axis=(-2, -1))
        big = (norm > 0.5) & (norm < np.inf)
        squarings[big] = np.ceil(np.log2(norm[big] / 0.5))
        a = np.ldexp(a, -squarings[..., None, None])  # exact: powers of two
        a[norm == np.inf] = np.nan
    out = np.broadcast_to(np.eye(n), a.shape).copy()
    term = np.broadcast_to(np.eye(n), a.shape).copy()
    for k in range(1, 19):
        term = np.matmul(term, a) / k
        out = out + term
    for k in range(squarings.max()):
        sq = squarings > k
        out[sq] = np.matmul(out[sq], out[sq])
    return out


def _commutator(a, b):
    return np.matmul(a, b) - np.matmul(b, a)


def _dexpinv(u, k):
    """Truncated inverse differential of exp: k - [u,k]/2 + [u,[u,k]]/12."""
    c1 = _commutator(u, k)
    return k - 0.5 * c1 + _commutator(u, c1) / 12.0


# the component rows of a 3-vector shifted cyclically by one and by two
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _dexpinv_axial(u, k):
    """_dexpinv in so(3) axial form, where [hat(u), hat(k)] = hat(u x k).

    The cross products of component-major 3-vectors (3, ...) are formed
    all rows at once, (u x v)_i = u_j v_l - u_l v_j for the cyclic
    (i, j, l), from the rows shifted cyclically; u's shifts serve both.
    """
    u_next, u_prev = u.take(_NEXT, 0), u.take(_PREV, 0)

    def cross(v):
        out = u_next * v.take(_PREV, 0)
        out -= u_prev * v.take(_NEXT, 0)
        return out

    c1 = cross(k)
    return k - 0.5 * c1 + cross(c1) / 12.0


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


def line_steps(node_fields, mid_fields):
    """The (lo, mid, hi) samples of each interval of a line of nodes.

    node_fields and mid_fields are the coefficient samples of the line at
    its nodes and interval midpoints.  Each sample is a tuple of Python
    floats, one per field: on a scalar state, such as the 2D angle, numpy
    scalars or 1-element arrays would cost more than the step.
    """
    nodes = list(zip(*(f.ravel().tolist() for f in node_fields)))
    mids = zip(*(f.ravel().tolist() for f in mid_fields))
    return list(zip(nodes[:-1], mids, nodes[1:]))


def integrate_line(h, y, node_fields, mid_fields, kernels):
    """`rkmk4_step` along one line of nodes from y; yields y, y_1, y_2, ...

    The kernels get the samples of `line_steps`, tuples of Python floats.
    """
    yield y
    for lo, md, hi in line_steps(node_fields, mid_fields):
        y = rkmk4_step(h, y, lo, md, hi, kernels)
        yield y


def _lines_and_midpoints(sample, m, i, j):
    """The coefficient lines i..j of a block of m lines and the midpoints
    of the intervals between them, from the block's `grid._sweep` sample.

    The midpoints are taken on lines i - 2..j + 2, clipped to the block: a
    halo of two nodes gives every interval the rule, and so the bits, of
    the whole block's `midpoints`.  Both are views of arrays that hold the
    halo.
    """
    k = max(i - 2, 0)
    arrays = sample(k, min(j + 3, m))
    return (
        [f[i - k : j - k + 1] for f in arrays],
        [midpoints(f, 0)[i - k : j - k] for f in arrays],
    )


def rkmk4_fill(kernels, fold_axis=0, view=None):
    """Block fill of `grid._sweep`: one `rkmk4_step` per line and interval.

    A block that is one line of single nodes, shape (m, 1), is stepped on
    Python floats by `integrate_line`.  Wider blocks march up and down from
    the base line b as one row: for j < k = min(b, m - 1 - b) the steps
    b + j -> b + j + 1 and b - j -> b - j - 1 are one `rkmk4_step` on lines
    folded onto a direction axis of length 2 at position fold_axis of a
    line (where its node axes begin), with h carried as [h, -h]; the longer
    half's remaining steps run alone.  Every element goes through the same
    operations as in separate steps.  The march goes a chunk of
    `grid._chunk_steps` steps at a time: each chunk samples its coefficient
    lines and their midpoints (`_lines_and_midpoints`), stacks the folded
    ones onto the direction axis, and writes its lines through one window
    of the block per direction.  view(rows) is the layout the kernels see
    of an array of state lines (the identity by default); the march
    carries its own state, so it never reads a window back.
    """
    view = view or (lambda rows: rows)
    # np.moveaxis(v, 0, fold_axis) and its inverse as plain transposes:
    # moveaxis costs more than the view it makes, once per step
    to_fold = tuple(range(1, fold_axis + 1)) + (0,)
    from_fold = (fold_axis,) + tuple(range(fold_axis))
    # the same on a stack (2, lines, ...), the direction axis first
    stack_to_fold = (1,) + tuple(a + 1 if a else 0 for a in to_fold)

    def folded_samples(sample, m, b, j0, j1):
        # (node, mid) of the up lines b + j0..b + j1 and the down lines
        # b - j0..b - j1 as folded lines, views of stacks (2, lines, ...):
        # each half is copied into its side as it is sampled, so the
        # samples of one half at most are held besides the stacks
        stacks = []
        for side, (i, j) in enumerate(((b + j0, b + j1), (b - j1, b - j0))):
            node, mid = _lines_and_midpoints(sample, m, i, j)
            for n, f in enumerate(node + mid):
                if not side:
                    stacks.append(np.empty((2,) + f.shape))
                stacks[n][side] = f[:: 1 - 2 * side]  # the down half from b outwards
            del node, mid, f
        folded = [s.transpose(stack_to_fold + tuple(range(fold_axis + 2, s.ndim))) for s in stacks]
        return folded[: len(folded) // 2], folded[len(folded) // 2 :]

    def fill(h, blk, sample):
        b, m = blk.b, blk.m
        line = view(blk.line[None])[0]
        if blk.line.shape == (1,):
            node, mid = _lines_and_midpoints(sample, m, 0, m - 1)
            y = blk.line.item()
            with blk.rows(0, m) as rows:
                rows[b:, 0] = list(
                    integrate_line(h, y, [f[b:] for f in node], [f[b:] for f in mid], kernels)
                )
                rows[b::-1, 0] = list(
                    integrate_line(
                        -h, y, [f[b::-1] for f in node], [f[:b][::-1] for f in mid], kernels
                    )
                )
            return
        k, steps = min(b, m - 1 - b), _chunk_steps(blk.line.nbytes)
        up = down = line
        if k:
            y = np.stack((line, line), axis=fold_axis)
            hh = np.reshape((h, -h), (2,) + (1,) * (y.ndim - fold_axis - 1))
        for j0 in range(0, k, steps):
            j1 = min(j0 + steps, k)
            node, mid = folded_samples(sample, m, b, j0, j1)
            with blk.rows(b + j0 + 1, b + j1 + 1) as ups, blk.rows(b - j1, b - j0) as downs:
                ups, downs = view(ups), view(downs)[::-1]
                for j in range(j1 - j0):
                    lo, md, hi = [f[j] for f in node], [f[j] for f in mid], [f[j + 1] for f in node]
                    y = rkmk4_step(hh, y, lo, md, hi, kernels)
                    up, down = ups[j], downs[j] = y.transpose(
                        from_fold + tuple(range(fold_axis + 1, y.ndim))
                    )
        # the longer half's remaining steps, if any
        alone(h, blk, sample, up, b + k, m - 1, steps)
        alone(h, blk, sample, down, b - k, 0, steps)

    def alone(h, blk, sample, y, start, stop, steps):
        # the steps from line start to line stop, unfolded, a chunk at a time
        d = 1 if stop > start else -1
        for i0 in range(start, stop, d * steps):
            lo_line, hi_line = sorted((i0, i0 + d * min(steps, abs(stop - i0))))
            node, mid = _lines_and_midpoints(sample, blk.m, lo_line, hi_line)
            with blk.rows(lo_line + (d > 0), hi_line + (d > 0)) as rows:
                rows, node, mid = view(rows)[::d], [f[::d] for f in node], [f[::d] for f in mid]
                for i in range(hi_line - lo_line):
                    lo, md, hi = [f[i] for f in node], [f[i] for f in mid], [f[i + 1] for f in node]
                    y = rows[i] = rkmk4_step(d * h, y, lo, md, hi, kernels)

    return fill


def _linear_field(s, y):
    return s[0] * y


def _affine_field(s, y):
    return s[0] * y + s[1]


def affine_gains(h, lo, mid, hi):
    """The gains A of the RK4 steps of y' = a y + b as affine maps y -> A y + B.

    lo, mid and hi are the a samples of a stack of intervals, as in
    `rkmk4_step`.  The step is affine in y, so A is one step from 1 on
    y' = a y: one vectorized step covers every interval of the stack.  A
    depends on the slope alone, so every source shares it.
    """
    return rkmk4_step(h, 1.0, (lo,), (mid,), (hi,), additive_kernels(_linear_field))


def affine_shifts(h, lo, mid, hi):
    """The shifts B of the same maps: one step from 0 on the full equation.

    lo, mid and hi are the (a, b) samples of the stack of intervals.
    """
    return rkmk4_step(h, 0.0, lo, mid, hi, additive_kernels(_affine_field))


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


def affine_fill(h, b, a):
    """Block fill of `grid._sweep` for y' = a y + source, the slope block a fixed.

    a is the contiguous slope block with the swept axis first and b its
    base line.  The intervals up from b and down from it are cut into
    chunks of at most `frames._BLOCK_NODES` values (one interval at least),
    in the order the march visits them.  The slope's midpoints and each
    chunk's gains (`affine_gains`; below b with -h and lo and hi swapped)
    are formed on the first call, once for every source the fill is called
    with, so a fill that is never called (the block that a certified
    `grid._sweep` copies) forms none.  A call fill(h, blk, sample), with
    the same h and b and sample the source's, samples per chunk the source
    lines and their midpoints (`_lines_and_midpoints`) and forms the shifts
    (`affine_shifts`) and the chunk's lines as A * previous + B, written
    through one window of the block: on Python floats for a block of single
    nodes, shape (m, 1), and in place otherwise.  The previous line is
    carried from chunk to chunk.
    """
    m, step = a.shape[0], max(1, _BLOCK_NODES // a[0].size)
    # (direction, i, j) of each chunk, the intervals between nodes i..j
    spans = [(1, i, min(i + step, m - 1)) for i in range(b, m - 1, step)]
    spans += [(-1, max(i - step, 0), i) for i in range(b, 0, -step)]

    @functools.cache
    def gains():
        a_mid = midpoints(a, 0)
        chunks = [
            (d, i, j, affine_gains(d * h, *_chunk_samples(d, i, j, a, a_mid[i:j]))[::d])
            for d, i, j in spans
        ]
        return a_mid, chunks

    def fill(h, blk, sample):
        single = blk.line.shape == (1,)
        a_mid, chunks = gains()
        for d, i, j, A in chunks:
            if (i if d > 0 else j) == b:  # a march from the base line
                prev = blk.line.item() if single else blk.line
            (s,), (s_mid,) = _lines_and_midpoints(sample, m, i, j)
            lo, mid, hi = zip(
                _chunk_samples(d, i, j, a, a_mid[i:j]), _chunk_samples(d, 0, j - i, s, s_mid)
            )
            B = affine_shifts(d * h, lo, mid, hi)[::d]
            with blk.rows(i + (d > 0), j + (d > 0)) as rows:
                rows = rows[::d]
                if single:
                    values = list(affine_line(A, B, prev))
                    rows[:, 0] = values[1:]
                    prev = values[-1]
                else:
                    _affine_rows(A, B, [prev, *rows])
                    prev = rows[-1].copy()

    return fill


def _chunk_samples(d, i, j, f, mid):
    # (lo, mid, hi) of intervals i..j-1, lo on the side the march comes from
    o = d < 0
    return f[i + o : j + o], mid, f[i + 1 - o : j + 1 - o]


def _add(u, y):
    return y + u


def _identity(u, k):
    return k


def additive_kernels(field):
    """Kernels of `rkmk4_step` on the additive group: the classic RK4 step."""
    return field, _identity, _add


def sweep_scalar(
    chart, base, axes_order, init_value, node_fields, rhs, certificate=None, out=None
):
    """Integrate a scalar ODE field along staircase sweeps (RK4).

    node_fields[axis]: the full-grid arrays the right-hand side consumes
    along that axis, so each block samples only its own axis's fields.
    rhs[axis](samples, y): the right-hand side along that axis, samples
    holding one array per field of the axis, sampled at the stage position.
    Returns the filled grid array (out, when given), or streams its last
    block to a certificate (`_sweep`).
    """
    fills = [rkmk4_fill(additive_kernels(f)) for f in rhs]

    def system(axis, take):
        return _lines([take(f) for f in node_fields[axis]]), fills[axis]

    return _sweep(chart, base, axes_order, float(init_value), system, certificate, out)


def linear_fills(chart, base, axes_order, slopes):
    """The half of a linear sweep that every source shares, built once.

    slopes[axis] is the slope of y' = slope y + source along that axis.
    Returns one (axis, `affine_fill`) per slab of the walker's sweep
    (`grid._sweep_slabs`), in sweep order, each holding its contiguous
    slope slab, from which it forms its midpoints and gains when first
    called.  Each slope slab is a copy, so the fills do not keep the slopes
    alive: a base line would hold its whole plane.
    """
    fills = []
    for axis, _, take in _sweep_slabs(chart, base, axes_order):
        a = take(slopes[axis]).copy()
        fills.append((axis, affine_fill(chart.spacing[axis], base[axis], a)))
    return fills


def sweep_linear(chart, base, fills, init_value, sources, certificate=None, out=None):
    """`sweep_scalar` for y' = slope y + sources[axis] along each axis.

    fills comes from `linear_fills` and fixes the slopes and the axis
    order.  The RK4 steps of a linear equation are affine maps, so a block
    costs the source lines, their midpoints, one vectorized step for the
    shifts and one multiply-add per line, a chunk at a time.
    """
    axes_order = tuple(dict.fromkeys(axis for axis, _ in fills))
    # each axis's fills, one per slab of its block, in the order `_sweep`
    # visits them; a block that a certificate copies is never visited
    slabs = {axis: iter([f for a, f in fills if a == axis]) for axis in axes_order}

    def system(axis, take):
        return _lines([take(sources[axis])]), next(slabs[axis])

    return _sweep(chart, base, axes_order, float(init_value), system, certificate, out)


# ---------------------------------------------------------------------------
# reports

@dataclass
class SolveReport:
    """Result bundle of a frame-rotation solve.

    rotation is the orthogonal field L (*counts, n, n), theta1 its first
    row applied to the coframe (n, *counts), and angle the unwrapped 2D
    angle (*counts), None for n >= 3.
    """

    rotation: np.ndarray
    theta1: np.ndarray
    compat_residual: float
    closed_residual: float
    orth_residual: float
    structure: tuple = (0.0, 0.0)
    gate_threshold: float = float("inf")
    angle: np.ndarray = None

    def summary(self):
        return "solve: compat=%.3e closed=%.3e orth=%.3e" % (
            self.compat_residual,
            self.closed_residual,
            self.orth_residual,
        )


def structure_gate(fd: FrameData, gate_factor):
    """(structure, threshold, row_max) of a frame that passes the structure
    gate; StructureGateError, carrying both residuals and the threshold, of
    one that fails it.

    The threshold is gate_factor * h_max^2 * max(1, max |coefficient|), a
    NaN coefficient making it NaN and an infinite one infinite.  Both
    residuals must be at most a finite threshold, so a frame with a
    non-finite coefficient never passes.  gate_factor None gives no verdict
    and an infinite threshold.  row_max is `fd.row_max_abs()`, which the
    residuals and the threshold share.
    """
    row_max = fd.row_max_abs()
    structure = structure_residuals(fd, curvature=-1.0, row_max=row_max)
    return _gate(fd.chart, structure, row_max, gate_factor)


def file_structure_gate(path, gate_factor):
    """`structure_gate` of the frame file at path, with the values and
    refusals of structure_gate(load_frame_data(path), gate_factor), folded
    as the file is read (`frames.frame_file_structure`), so the frame is
    never held."""
    return _gate(*frame_file_structure(path), gate_factor)


def _gate(chart, structure, row_max, gate_factor):
    """The threshold and verdict of `structure_gate` from the residuals and
    row maxima of a frame on chart."""
    if gate_factor is None:
        return structure, float("inf"), row_max
    h_max = max(chart.spacing)
    threshold = gate_factor * h_max**2 * float(np.maximum(1.0, np.max(row_max)))
    res1, res2 = structure
    if not (np.isfinite(threshold) and res1 <= threshold and res2 <= threshold):
        raise StructureGateError(res1, res2, threshold)
    return structure, threshold, row_max


def _report(fd: FrameData, rotation, compat, structure, threshold, row_max, angle=None):
    """The SolveReport of a solved rotation field, the epilogue of both
    solvers: orthogonality is required before theta_1 is formed, so the
    Gram blocks of `require_orthogonal` never coexist with theta_1."""
    orth = require_orthogonal(rotation)
    theta1 = rotated_form(fd, rotation, 0, row_max)
    return SolveReport(
        rotation=rotation,
        theta1=theta1,
        compat_residual=compat,
        closed_residual=closedness_residual(fd.chart, theta1),
        orth_residual=orth,
        structure=structure,
        gate_threshold=threshold,
        angle=angle,
    )


# ---------------------------------------------------------------------------
# 2D angle solver

def angle_rhs(s, y):
    """The angle equation along an axis: y' = s2 + sin(y) s0 + cos(y) s1.

    s holds the axis's coefficients of omega_1, omega_2 and omega_12.
    """
    return s[2] + np.sin(y) * s[0] + np.cos(y) * s[1]


def _sin_rhs(s, y):
    # angle_rhs with omega_2's row left out: s = (omega_1, omega_12)
    return s[1] + np.sin(y) * s[0]


def _cos_rhs(s, y):
    # angle_rhs with omega_1's row left out: s = (omega_2, omega_12)
    return s[1] + np.cos(y) * s[0]


def angle_system(om1, om2, om12, live1, live2):
    """(fields, rhs) of the angle equation along one axis.

    om1, om2 and om12 are the axis's coefficients of omega_1, omega_2 and
    omega_12; live1 and live2 say whether the rows of omega_1 and omega_2
    may be nonzero.  When exactly one of them vanishes identically, its
    field and its sin or cos are left out, and the rhs sums the other two
    terms in `angle_rhs`'s order.  The term left out is +-0 at every stage,
    so the slope can differ only in the sign of a zero, which no state
    takes on unless the line started from -0 (module docstring).
    """
    if live1 and not live2:
        return [om1, om12], _sin_rhs
    if live2 and not live1:
        return [om2, om12], _cos_rhs
    return [om1, om2, om12], angle_rhs


def angle_sweeps(fd: FrameData, phi0, base_idx, gate_factor, out=None):
    """The structure gate, the angle sweep and its streamed certificate.

    The core of `solve_phi_2d`, for callers that need only the angle.
    Returns (phi, compat, structure, threshold, row_max): the angle field,
    filled into out when given, the compat residual against the exchanged
    axis order, the structure residuals, the gate threshold and the gate's
    `FrameData.row_max_abs`.  Along each axis the equation leaves out a
    row of omega_1 or omega_2 that vanishes identically (`angle_system`),
    unless a coefficient is not finite (`live_rows`) or phi0 is -0.
    """
    chart = fd.chart
    structure, threshold, row_max = structure_gate(fd, gate_factor)
    live = live_rows(row_max)
    if phi0 == 0.0 and np.signbit(phi0):
        live[:] = True

    om1, om2, om12 = fd.omega[0], fd.omega[1], fd.connection[0]
    # per axis: the dx_axis coefficients the equation reads, and its rhs
    fields, rhs = zip(
        *(angle_system(om1[a], om2[a], om12[a], live[0, a], live[1, a]) for a in (0, 1))
    )

    phi = sweep_scalar(chart, base_idx, (0, 1), phi0, fields, rhs, out=out)
    compat = _streamed_compat(
        phi, lambda cert: sweep_scalar(chart, base_idx, (1, 0), phi0, fields, rhs, cert)
    )
    return phi, compat, structure, threshold, row_max


def solve_phi_2d(
    fd: FrameData,
    phi0=0.0,
    base="center",
    *,
    gate_factor=GATE_FACTOR_DEFAULT,
):
    """Solve the angle equation on a 2D chart; see module docstring.

    phi0 is the angle at the base node.  Returns a SolveReport that also
    carries the unwrapped angle field.
    """
    if fd.dim != 2:
        raise ValueError("solve_phi_2d needs a 2D chart")
    chart = fd.chart
    phi, compat, structure, threshold, row_max = angle_sweeps(
        fd, phi0, chart.base_index(base), gate_factor
    )

    # the SO(2) field [[cos, -sin], [sin, cos]] of the angle
    c, s = np.cos(phi), np.sin(phi)
    rotation = np.empty(chart.counts + (2, 2))
    rotation[..., 0, 0] = c
    rotation[..., 0, 1] = -s
    rotation[..., 1, 0] = s
    rotation[..., 1, 1] = c
    del c, s  # the rotation holds their values; free them before the epilogue
    # theta_1 = cos(phi) omega_1 - sin(phi) omega_2 from the rotation's first row
    return _report(fd, rotation, compat, structure, threshold, row_max, angle=phi)


# ---------------------------------------------------------------------------
# general-dimension orthogonal solver

def _matrix_element(samples, L):
    """Algebra element -L W L^T + (L om) e_1^T - e_1 (L om)^T, samples (om, W)."""
    om, w = samples
    m = np.matmul(np.matmul(L, w), np.swapaxes(L, -1, -2))
    th = np.einsum("...ik,...k->...i", L, om)
    a = np.empty_like(m)
    a[..., 1:, 1:] = -m[..., 1:, 1:]
    a[..., 0, 1:] = -(m[..., 0, 1:] + th[..., 1:])
    a[..., 1:, 0] = -a[..., 0, 1:]
    idx = np.arange(L.shape[-1])
    a[..., idx, idx] = 0.0
    return a


def _matrix_exp_mul(u, y):
    return np.matmul(expm_skew(u), y)


MATRIX_KERNELS = (_matrix_element, _dexpinv, _matrix_exp_mul)
_matrix_fill = rkmk4_fill(MATRIX_KERNELS)


def _matrix_system(fd: FrameData):
    """RKMK4 system of the n x n orthogonal field with skew-matrix kernels."""

    def system(axis, take):
        # om[..., k] = coefficient of dx_axis in omega_k; W from the lines
        # of the connection only
        om = take(np.moveaxis(fd.omega[:, axis], 0, -1))
        upper = take(np.moveaxis(fd.connection, (0, 1), (-2, -1)))

        def sample(i, j):
            w = connection_matrix(np.moveaxis(upper[i:j], (-2, -1), (0, 1)), axis)
            return [np.ascontiguousarray(om[i:j]), w]

        return sample, _matrix_fill

    return system


def _axial_kernels(om_rows, w_rows):
    """`rkmk4_step` kernels of the n = 3 solve whose P holds the rows
    om_rows of omega and then the rows w_rows of -sigma w (`_axial_system`).

    The algebra element alpha = e_1 x (L om) - sigma L w contracts L over
    those rows only: a row left out vanishes identically, and each
    contraction is an `np.einsum` that sums from +0, where a +-0 term
    changes no bit.  Every subset of range(3) is evenly spaced, so the
    columns of L it picks are a view.
    """

    def columns(rows):
        step = rows[1] - rows[0] if len(rows) > 1 else 1
        return slice(rows[0], rows[-1] + 1, step) if rows else slice(0, 0)

    om_cols, w_cols, k = columns(om_rows), columns(w_rows), len(om_rows)

    def element(samples, L):
        p = samples[0][:, 0]
        # -sigma L w, then e_1 x (L om) from rows 2 and 3 of L om
        a = _contract(L[:, w_cols], p[k:])
        if k:
            lom = _contract(L[1:, om_cols], p[:k])
            a[1] -= lom[1]
            a[2] += lom[0]
        return a

    return element, _dexpinv_axial, _axial_exp_mul


def _axial_exp_mul(u, y):
    return _contract(_rodrigues(u), y)


def _contract(x, y):
    """np.einsum("ik...,k...->i...", x, y) of component-major x (i, K, ...)
    and y (K, ...), the trailing axes broadcast as einsum does.

    Each element is summed from +0 over k = 0, 1, ... in order: by einsum
    on lines of more than one node, whose innermost loop is then over the
    nodes.  On a line of one node einsum's innermost loop is the sum
    itself, a dot product whose grouping follows the alignment of the data,
    so there the products are added one by one.
    """
    # einsum pays: the loop on every line makes the 49^3 solve_L_nd ~13 % slower
    if math.prod(x.shape[2:]) > 1:
        return np.einsum("ik...,k...->i...", x, y)
    trailing = np.broadcast_shapes(x.shape[2:], y.shape[1:])
    x = x.reshape(x.shape[:2] + (1,) * (len(trailing) + 2 - x.ndim) + x.shape[2:])
    out = np.zeros(x.shape[:1] + trailing)
    for k in range(x.shape[1]):
        out += x[:, k] * y[k]
    return out


def _axial_fill(om_rows, w_rows):
    """The block fill of `_axial_kernels`: the state lines are seen
    component-major, their node axes after the two component axes, where
    the fill folds them."""
    return rkmk4_fill(
        _axial_kernels(om_rows, w_rows),
        fold_axis=2,
        view=lambda rows: np.moveaxis(rows, (-2, -1), (1, 2)),
    )


def _axial_system(fd: FrameData, sigma, live):
    """RKMK4 system of the 3 x 3 orthogonal field in so(3) axial-vector form.

    The algebra element -L W L^T + (L om) e_1^T - e_1 (L om)^T of the matrix
    form is hat(alpha) with alpha = e_1 x (L om) - sigma L w, where w is the
    axial vector of W and sigma = det(L): L hat(w) L^T = det(L) hat(L w).
    Every exp update keeps det(L) = det(L0), so sigma is fixed per solve.
    The kernels run component-major on whole lines: L (3, 3, ...) and
    algebra elements (3, ...).  live is `frames.live_rows`: along each axis
    the coefficient lines P (lines, K, 1, ...) hold the live rows of om,
    then those of -sigma w, and no row that vanishes identically (on the
    igsge coframe 1, 2 and 2 of the 6 rows of the three axes); its unit
    axis gives P's lines two component axes before their node axes, as L's
    have, where `rkmk4_fill` folds them.  P is sampled in that layout a
    chunk of lines at a time.
    """
    conn = fd.connection  # pairs (1, 2), (1, 3), (2, 3)
    # w = (-w_23, w_13, -w_12) (one-based), stored as -sigma w: component
    # k is the connection pair 2 - k times its factor
    factors = (sigma, -sigma, sigma)
    per_axis = []
    for axis in range(3):
        om = tuple(k for k in range(3) if live[k, axis])
        w = tuple(k for k in range(3) if live[5 - k, axis])
        per_axis.append((om, w, _axial_fill(om, w)))

    def system(axis, take):
        om, w, fill = per_axis[axis]
        om_rows = [take(fd.omega[k, axis]) for k in om]
        w_rows = [(factors[k], take(conn[2 - k, axis])) for k in w]
        transverse = take(conn[0, axis]).shape[1:]

        def sample(i, j):
            p = np.empty((j - i, len(om) + len(w), 1) + transverse)
            for r, row in enumerate(om_rows):
                p[:, r, 0] = row[i:j]
            for r, (factor, row) in enumerate(w_rows, len(om)):
                np.multiply(factor, row[i:j], out=p[:, r, 0])
            return [p]

        return sample, fill

    return system


def _solve_L_once(fd: FrameData, L0, base_idx, axes_order, live, certificate=None):
    """One sweep of `solve_L_nd`; live (`frames.live_rows`) marks the
    coefficient rows that the n = 3 solve keeps."""
    if fd.dim == 3:
        system = _axial_system(fd, 1.0 if np.linalg.det(L0) > 0 else -1.0, live)
    else:
        system = _matrix_system(fd)
    return _sweep(fd.chart, base_idx, axes_order, L0, system, certificate)


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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite err fails below
        err = np.max(np.abs(L0 @ L0.T - np.eye(n)))
    if not err <= 1e-10:
        raise ValueError("L0 must be orthogonal: max |L0 L0^T - I| = %.3e" % err)
    return L0


def rotated_form(fd: FrameData, L, i, row_max):
    """theta_i = sum_k L_ik omega_k (n, *counts) of a (*counts, n, n) field L.

    Each coefficient is summed over k from +0.  A row omega_k,a that
    vanishes identically (row_max is `fd.row_max_abs()`) is left out: for a
    finite L its products are +-0, and adding +-0 to a partial sum that
    starts at +0 changes no bit, zero signs included.
    """
    theta = np.zeros((fd.dim,) + fd.chart.counts)
    term = np.empty(fd.chart.counts)  # one buffer for the products
    for a in range(fd.dim):
        for k in range(fd.dim):
            if row_max[k, a] != 0.0:
                theta[a] += np.multiply(L[..., i, k], fd.omega[k, a], out=term)
    return theta


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
    n = fd.dim
    base_idx = fd.chart.base_index(base)
    L0 = initial_rotation(L0, n)
    structure, threshold, row_max = structure_gate(fd, gate_factor)

    order = tuple(range(n))
    live = live_rows(row_max)
    L = _solve_L_once(fd, L0, base_idx, order, live)
    compat = _streamed_compat(
        L, lambda cert: _solve_L_once(fd, L0, base_idx, order[::-1], live, cert)
    )
    return _report(fd, L, compat, structure, threshold, row_max)


# ---------------------------------------------------------------------------
# special coordinates

@dataclass
class CoordinateCheck:
    """Path certificate of the coordinates tangent to the scaled frame fields.

    potential is G = x_1 (*counts), scalings the factors r_2..r_n
    (n - 1, *counts), and coordinate_residuals the path residuals of the
    coordinates y_2..y_n (n - 1,).
    """

    potential: np.ndarray
    path_residual: float
    scalings: np.ndarray
    coordinate_residuals: np.ndarray


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


# a constant that overflows gives a non-finite certificate, reported, not warned
@np.errstate(over="ignore", invalid="ignore")
def special_coordinates_check(
    fd: FrameData,
    report: SolveReport,
    constants=None,
    base="center",
    det_rtol=DET_RTOL_DEFAULT,
):
    """Certify the coordinates whose curves are tangent to v_1 and r_i v_i.

    G is recovered from theta_1 by line integration and r_i = c_i exp(-G).
    The coframe dual to {v_1, r_i v_i} is {theta_1, e^G theta_i / c_i},
    theta_i = sum_k L_ik omega_k (`rotated_form`), and the fields commute
    exactly when it is closed.  Its potentials are the coordinates x_1 = G
    and y_i = int e^G theta_i / c_i; each y_i is recovered like G, and its
    path residual is the certificate.  A coframe that `nonsingular_nodes`
    finds singular at every node raises DegenerateFrameError.
    """
    chart = fd.chart
    n = fd.dim
    constants = scaling_constants(constants, n)
    nonsingular_nodes(fd, det_rtol)  # only its refusal of a degenerate frame

    g, path_residual = potential(chart, report.theta1, base)
    row_max = fd.row_max_abs()
    residuals = []
    # e^G and the scalings are formed where they are used, so neither is
    # held through a path integration
    for i in range(1, n):
        form = rotated_form(fd, report.rotation, i, row_max)
        form *= np.exp(g)
        form /= constants[i - 1]
        residuals.append(potential(chart, form, base)[1])
    scalings = constants.reshape((n - 1,) + (1,) * n) * np.exp(-g)
    return CoordinateCheck(
        potential=g,
        path_residual=path_residual,
        scalings=scalings,
        coordinate_residuals=np.array(residuals),
    )
