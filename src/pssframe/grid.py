"""Rectangular grid charts and difference stencils.

Every field in this package is a bare float array on a `GridChart`, an
axis-aligned box sampled on a uniform tensor grid, and the chart is passed
next to it.  Node axes are stored C-ordered (last axis fastest), which is
also the node order of the text exchange format in `fieldio`.

Derivatives use the second-order stencils

    interior:  (f[i+1] - f[i-1]) / (2h)
    edges:     (-3f[0] + 4f[1] - f[2]) / (2h)   and its mirror,

so a derivative is second-order accurate on the whole chart, boundary
included.  `midpoints` provides the cubic (4-point) interval-midpoint
interpolation the sweep integrators use to keep their classic fourth-order
one-step accuracy.

Every line integration in the package (the rotation solves, the linear
orders of the parameter hierarchy and `forms.potential`) runs through one
staircase walker, `_sweep`: from the base node it fills the blocks of
`staircase_blocks`, one per swept axis, each line from the block's base
line by a caller's block fill.  A fill samples its coefficient lines a
chunk of march steps at a time (`_chunk_steps`, by the budget
`_CHUNK_BYTES`) and writes its lines through windows of the block
(`_Block`); a block is cut into transverse slabs (`_sweep_slabs`) only
where one folded line of its state passes that budget, and every chunk
and slab gets the bits the whole block would.  `_streamed_compat`
certifies a sweep against the exchanged axis order, whose sweep copies its
first line from the forward state and hands its last block to the max, its
base hyperplane and then a window of lines at a time, so it is never held
whole.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridChart:
    """Uniformly sampled axis-aligned box.

    origin[k] is the coordinate of node index 0 on axis k, spacing[k] > 0 the
    node distance, counts[k] >= 3 the number of nodes.
    """

    origin: tuple
    spacing: tuple
    counts: tuple

    def __post_init__(self):
        origin = tuple(float(v) for v in self.origin)
        spacing = tuple(float(v) for v in self.spacing)
        counts = tuple(int(v) for v in self.counts)
        if not (len(origin) == len(spacing) == len(counts)):
            raise ValueError("origin/spacing/counts lengths differ")
        if len(counts) < 1:
            raise ValueError("chart needs at least one axis")
        if not all(math.isfinite(v) for v in origin):
            raise ValueError("origin must be finite, got %s" % (origin,))
        if not all(math.isfinite(s) and s > 0.0 for s in spacing):
            raise ValueError("spacing must be finite and positive, got %s" % (spacing,))
        if any(c < 3 for c in counts):
            raise ValueError("need at least 3 nodes per axis")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    def axis_coordinates(self, axis):
        """1D array of node coordinates along one axis."""
        return self.origin[axis] + self.spacing[axis] * np.arange(self.counts[axis])

    def meshgrid(self):
        """Node coordinate arrays, each of shape `counts` (ij indexing)."""
        axes = [self.axis_coordinates(k) for k in range(self.dim)]
        return np.meshgrid(*axes, indexing="ij")

    def base_index(self, selector="center"):
        """Resolve a base-node selector: 'center', 'origin', or an index tuple."""
        if selector == "center":
            return tuple(c // 2 for c in self.counts)
        if selector == "origin":
            return tuple(0 for _ in self.counts)
        base = tuple(int(v) for v in selector)
        if len(base) != self.dim:
            raise ValueError(
                "base index %s has %d entries for a %dD chart" % (base, len(base), self.dim)
            )
        for b, c in zip(base, self.counts):
            if not (0 <= b < c):
                raise ValueError(
                    "base index %s out of range for node counts %s" % (base, self.counts)
                )
        return base


def dense(values, shape, what):
    """values as a float array of the given shape, or ValueError naming both."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError("%s needs shape %s, got %s" % (what, shape, values.shape))
    return values


# numpy advises every array it allocates from this size on for huge pages
_HUGE_PAGE_ADVICE_BYTES = 4 << 20


def lazy_zeros(shape):
    """A float zero array of the given shape, for an array that stays partly zero.

    Writing a few rows of an array that numpy advised for huge pages faults
    in whole 2 MB pages.  An array that large is backed here by a private
    anonymous mapping advised against huge pages: each written 4 KB page is
    resident, a read of an unwritten one maps the kernel's shared zero page,
    and the mapping goes with the last view of the array.  A shared mapping
    would not do: its pages are backed even when only read.  A smaller
    array is np.zeros, which wastes no huge page and can reuse pages the
    heap already holds, where a fresh mapping faults in each page it
    touches.  tracemalloc does not see a mapping, so a traced peak that
    falls because an array moved into one shows no saving.  A mapping that
    cannot be made raises MemoryError, as numpy does.
    """
    nbytes = 8 * math.prod(shape)
    if nbytes < _HUGE_PAGE_ADVICE_BYTES:
        return np.zeros(shape)
    try:
        buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except (OSError, OverflowError) as exc:
        raise MemoryError(
            "Unable to map %d bytes for an array with shape %s" % (nbytes, shape)
        ) from exc
    advice = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if advice is not None:
        with contextlib.suppress(OSError):  # a kernel without huge pages refuses it
            buf.madvise(advice)
    return np.frombuffer(buf, dtype=float).reshape(shape)


def staircase_blocks(chart: GridChart, base, axes_order):
    """The blocks of a staircase sweep, one per swept axis: (axis, take).

    Each swept axis fills one block: that axis and the axes swept before it
    in full, the others pinned at the base.  take(f) is the block of a
    full-grid array f (any trailing component shape) with the swept axis
    first; it is a view, since the block index holds only slices.
    """
    filled = set()
    for axis in axes_order:
        idx = tuple(
            slice(None) if k == axis or k in filled else slice(base[k], base[k] + 1)
            for k in range(chart.dim)
        )

        def take(f, idx=idx, axis=axis):
            return np.moveaxis(f[idx], axis, 0)

        yield axis, take
        filled.add(axis)


# bytes of the state lines that one chunk of a block's march holds: a fill
# samples its coefficient lines and their midpoints, and the streamed block
# of a certified sweep hands its lines on, a chunk at a time.  At 49^3 a
# line of n = 3 state is 173 KB, so a chunk serves three folded steps; a
# block is cut across its lines only when one folded line (two lines of
# state, the state one step carries) passes the budget: not at 49^3 (346 KB),
# but the 17^4 blocks of n = 4 state (1.26 MB)
_CHUNK_BYTES = 1 << 20


def _chunk_steps(line_nbytes):
    """March steps per chunk of a block whose state lines hold line_nbytes:
    as many folded steps, two lines each, as fit _CHUNK_BYTES, one at least."""
    return max(1, _CHUNK_BYTES // (2 * line_nbytes))


def _slabs(dim, shape):
    """The slabs of a block of `_sweep`, as index tuples into the block.

    shape is (m, *transverse node counts, *component shape) with dim node
    axes, of a float state.  A block one folded line of whose state (two
    lines) passes _CHUNK_BYTES is cut along its first transverse axis of
    more than one node into as few slabs as keep a folded line of each
    within the budget, each at least two nodes wide, so that no slab becomes
    an (m, 1) block; any other block is one slab, the whole block.
    """
    folded = 16 * math.prod(shape[1:])
    axis = next((k for k in range(1, dim) if shape[k] > 1), None)
    k = 1 if axis is None else min(-(-folded // _CHUNK_BYTES), shape[axis] // 2)
    if k <= 1:
        return [()]
    q, r = divmod(shape[axis], k)
    edges = np.cumsum([0] + [q + 1] * r + [q] * (k - r)).tolist()
    return [(slice(None),) * axis + (slice(a, b),) for a, b in zip(edges, edges[1:])]


def _sweep_slabs(chart: GridChart, base, axes_order, item_shape=()):
    """The slabs `_sweep` fills, in sweep order: (axis, slab, take) per slab.

    slab is the slab's index tuple into its block of `staircase_blocks`
    (`_slabs`), and take(f) the slab of a full-grid array f, a view with the
    swept axis first.  item_shape is the state's shape per node.
    """
    nodes = np.broadcast_to(0.0, chart.counts + tuple(item_shape))  # for block shapes
    for axis, take in staircase_blocks(chart, base, axes_order):
        for slab in _slabs(chart.dim, take(nodes).shape):

            def take_slab(f, take=take, slab=slab):
                return take(f)[slab]

            yield axis, slab, take_slab


class _Block:
    """A slab of `_sweep`'s state as its fill writes it.

    m lines along the swept axis, b the base line and line the state's base
    line, which the fill reads and never writes.  rows(i, j) is a context
    manager around a writable array of lines i..j-1.  A slab held in the
    state, rows (m, ...), gives views of it.  The streamed last block of a
    certified sweep holds only its base line, rows (1, ...): each window
    is a fresh array, handed to fold(take, window) when it closes, take(f)
    being the same lines of a full-grid array f.  A fill never reads a
    closed window back.
    """

    def __init__(self, rows, b, m=None, take=None, fold=None):
        self.b, self.m = b, len(rows) if m is None else m
        self.line = rows[b if fold is None else 0]
        self._rows, self._take, self._fold = rows, take, fold

    @contextlib.contextmanager
    def rows(self, i, j):
        if self._fold is None:
            yield self._rows[i:j]
            return
        window = np.empty((j - i,) + self.line.shape)
        yield window
        self._fold(lambda f: self._take(f)[i:j], window)


def _lines(arrays):
    """sample(i, j): lines i..j-1 of each array (swept axis first), contiguous."""
    return lambda i, j: [np.ascontiguousarray(f[i:j]) for f in arrays]


def _sweep(chart: GridChart, base, axes_order, start, system, certificate=None, out=None):
    """Fill a state (*counts, *shape(start)) from start at the base node by line sweeps.

    system(axis, take) returns (sample, fill) for each slab of
    `_sweep_slabs` that is filled, in order, take(f) being the slab of a
    full-grid array f: sample(i, j) gives the contiguous coefficient arrays
    of lines i..j-1 of the slab that the equation along that axis consumes
    (`_lines`), and fill(h, blk, sample) fills the slab's `_Block` blk from
    its base line, sampling the coefficients a chunk of lines at a time.
    The lines of a block are independent across its transverse nodes, so a
    slab gets the bits the whole block would.  Returns the state, filled
    into out when one is given (every node of it is written).

    certificate is (forward, fold): forward the whole state of a sweep of
    the same equation from the same start whose last axis is this sweep's
    first, fold(take, lines) as for `_Block`.  The state is then never
    whole: it holds only the base hyperplane of the last swept axis.  Its
    first block, the line through the base along that axis, is copied from
    forward, which holds it with the bits this sweep would give it, and no
    system is asked for it; the blocks after it are filled, and the last
    block goes to fold, its base line (the hyperplane) first and then a
    window of lines at a time (`_Block`).  Returns None then.
    """
    base = tuple(base)
    first, last = axes_order[0], axes_order[-1]
    counts = list(chart.counts)
    state_base = base
    if certificate is not None:
        forward, fold = certificate
        counts[last] = 1
        state_base = base[:last] + (0,) + base[last + 1 :]
    state = np.zeros(tuple(counts) + np.shape(start)) if out is None else out
    state[state_base] = start
    state_blocks = dict(staircase_blocks(chart, state_base, axes_order))
    for axis, slab, take in _sweep_slabs(chart, base, axes_order, np.shape(start)):
        rows, b = state_blocks[axis](state)[slab], base[axis]
        if certificate is not None and axis == first != last:
            rows[...] = take(forward)
            continue
        if certificate is not None and axis == last:
            fold(lambda f: take(f)[b : b + 1], rows.copy())
            blk = _Block(rows, b, chart.counts[axis], take, fold)
        else:
            blk = _Block(rows, b)
        sample, fill = system(axis, take)
        fill(chart.spacing[axis], blk, sample)
    return None if certificate is not None else state


def _streamed_compat(state, reverse_sweep):
    """max |state - reverse| over the nodes, the reverse-order sweep streamed.

    reverse_sweep(certificate) runs the reverse-order sweep of the same
    equation as `_sweep` runs it with a certificate (state, fold): its
    first line is the forward state's, and its last block comes to fold,
    its base hyperplane and then a window of lines at a time, so the reverse
    state is never whole.  Each window is folded into the max through
    `np.max`, so a NaN anywhere gives NaN, and is then overwritten.
    """
    worst = []

    def fold(take, lines):
        np.subtract(take(state), lines, out=lines)
        worst.append(np.max(np.abs(lines, out=lines)))

    reverse_sweep((state, fold))
    return float(np.max(worst))


def partial_derivative(values, axis, spacing):
    """Second-order partial derivative along `axis` of a node array."""
    values = np.asarray(values, dtype=float)
    if values.shape[axis] < 3:
        raise ValueError("need at least 3 nodes along the axis")
    out = np.empty_like(values)
    h2 = 2.0 * spacing

    def sl(part):
        idx = [slice(None)] * values.ndim
        idx[axis] = part
        return tuple(idx)

    out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / h2
    out[sl(0)] = (
        -3.0 * values[sl(0)] + 4.0 * values[sl(1)] - values[sl(2)]
    ) / h2
    out[sl(-1)] = (
        3.0 * values[sl(-1)] - 4.0 * values[sl(-2)] + values[sl(-3)]
    ) / h2
    return out


# bytes of the one temporary `midpoints` forms at a time
_MID_TEMP_BYTES = 1 << 18


def midpoints(values, axis):
    """Interval midpoints along `axis` via cubic 4-point interpolation.

    Returns an array one shorter along `axis`; entry i sits between nodes i
    and i+1.  Exact for cubics, so the interpolation error is O(h^4); the two
    boundary intervals use the one-sided 4-point rule of the same order.
    """
    f = np.asarray(values, dtype=float)
    n = f.shape[axis]
    if n < 4:
        # fall back to the 2-point average on very short lines
        lo = tuple(
            slice(None, -1) if k == axis else slice(None) for k in range(f.ndim)
        )
        hi = tuple(
            slice(1, None) if k == axis else slice(None) for k in range(f.ndim)
        )
        return 0.5 * (f[lo] + f[hi])

    def sl(part):
        idx = [slice(None)] * f.ndim
        idx[axis] = part
        return tuple(idx)

    out_shape = list(f.shape)
    out_shape[axis] = n - 1
    out = np.empty(out_shape)

    # (-f0 + 9 f1 + 9 f2 - f3) / 16 in place: 9 f1 - f0 is the same double
    # as -f0 + 9 f1, and the 9 f2 term is formed _MID_TEMP_BYTES at a time
    inner = out[sl(slice(1, -1))]
    np.multiply(f[sl(slice(1, -2))], 9.0, out=inner)
    inner -= f[sl(slice(0, -3))]
    rows = max(1, _MID_TEMP_BYTES * n // max(f.nbytes, 1))
    for i in range(0, n - 3, rows):
        j = min(i + rows, n - 3)
        out[sl(slice(1 + i, 1 + j))] += 9.0 * f[sl(slice(2 + i, 2 + j))]
    inner -= f[sl(slice(3, None))]
    inner /= 16.0
    out[sl(0)] = (
        5.0 * f[sl(0)] + 15.0 * f[sl(1)] - 5.0 * f[sl(2)] + f[sl(3)]
    ) / 16.0
    out[sl(-1)] = (
        5.0 * f[sl(-1)] + 15.0 * f[sl(-2)] - 5.0 * f[sl(-3)] + f[sl(-4)]
    ) / 16.0
    return out
