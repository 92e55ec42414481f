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
line by a caller's block fill, and a block past the byte budget
`_SLAB_BYTES` in transverse slabs (`_sweep_slabs`), each with the bits the
whole block would get.  `_streamed_compat` certifies a sweep against the
exchanged axis order, whose sweep is streamed slab by slab into the max and
never held whole.
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


# state bytes of a block above which `_sweep` fills it in transverse slabs.
# A streamed block's state counts twice, since its slabs are filled into a
# buffer allocated next to the coefficient slab, where other blocks write
# into a state that is whole anyway.  At 49^3 (8.5 MB of n = 3 state) the
# forward sweep then takes 2 slabs and the streamed one 3, and every array
# a slab allocates stays below numpy's 4 MiB huge-page threshold; each
# slab costs its own line steps, whose fixed Python cost a third slab in
# the forward sweep would show
_SLAB_BYTES = 6 << 20


def _slabs(dim, shape, buffered=False):
    """The slabs of a block of `_sweep`, as index tuples into the block.

    shape is (m, *transverse node counts, *component shape) with dim node
    axes, of a float state.  A block whose state (twice that when buffered)
    exceeds _SLAB_BYTES is cut along its first transverse axis of more than
    one node into as few slabs as keep each under the budget, each at least
    two nodes wide, so that no slab becomes an (m, 1) block; any other block
    is one slab, the whole block.
    """
    nbytes = 8 * math.prod(shape) * (2 if buffered else 1)
    axis = next((k for k in range(1, dim) if shape[k] > 1), None)
    k = 1 if axis is None else min(-(-nbytes // _SLAB_BYTES), shape[axis] // 2)
    if k <= 1:
        return [()]
    q, r = divmod(shape[axis], k)
    edges = np.cumsum([0] + [q + 1] * r + [q] * (k - r)).tolist()
    return [(slice(None),) * axis + (slice(a, b),) for a, b in zip(edges, edges[1:])]


def _sweep_slabs(chart: GridChart, base, axes_order, item_shape=(), streamed=False):
    """The slabs `_sweep` fills, in sweep order: (axis, slab, take) per slab.

    slab is the slab's index tuple into its block of `staircase_blocks`
    (`_slabs`), and take(f) the slab of a full-grid array f, a view with the
    swept axis first.  item_shape is the state's shape per node, and
    streamed cuts the last block as a sweep with a sink does.
    """
    nodes = np.broadcast_to(0.0, chart.counts + tuple(item_shape))  # for block shapes
    for axis, take in staircase_blocks(chart, base, axes_order):
        buffered = streamed and axis == axes_order[-1]
        for slab in _slabs(chart.dim, take(nodes).shape, buffered):

            def take_slab(f, take=take, slab=slab):
                return take(f)[slab]

            yield axis, slab, take_slab


def _sweep(chart: GridChart, base, axes_order, start, system, sink=None, out=None):
    """Fill a state (*counts, *shape(start)) from start at the base node by line sweeps.

    system(axis, take) returns (arrays, fill) for each slab of `_sweep_slabs`:
    the slabs of the coefficient arrays the equation along that axis
    consumes, take(f) being the slab of a full-grid array f, and the block
    fill.  The coefficient slabs are made contiguous, and
    fill(h, blk, b, node) then fills the slab blk of the state from its base
    line b, node being the coefficient slabs.  The lines of a block are
    independent across its transverse nodes, so a slab gets the bits the
    whole block would.  Returns the state, filled into out when one is given
    (every node of it is written).

    With a sink the state is never whole: it holds only the base hyperplane
    of the last swept axis, which the earlier blocks fill, and each slab of
    the last block is filled into one reused buffer and handed to
    sink(take, slab) instead.  Returns None then.
    """
    base = tuple(base)
    last = axes_order[-1]
    counts = list(chart.counts)
    state_base = base
    if sink is not None:
        counts[last] = 1
        state_base = base[:last] + (0,) + base[last + 1 :]
    state = np.zeros(tuple(counts) + np.shape(start)) if out is None else out
    state[state_base] = start
    state_blocks = dict(staircase_blocks(chart, state_base, axes_order))
    buf = None
    slabs = _sweep_slabs(chart, base, axes_order, np.shape(start), sink is not None)
    for axis, slab, take in slabs:
        blk, b = state_blocks[axis](state)[slab], base[axis]
        stream = sink is not None and axis == last
        if stream:
            if buf is None:  # the first slab is the widest
                buf = np.empty((chart.counts[axis],) + blk.shape[1:])
            line, blk = blk[0], buf[(slice(None),) + tuple(slice(0, w) for w in blk.shape[1:])]
            blk[b] = line
        _fill_slab(chart.spacing[axis], b, system(axis, take), blk)
        if stream:
            sink(take, blk)
    return None if sink is not None else state


def _fill_slab(h, b, system_slab, blk):
    # the coefficient slab dies here, before the next slab's is built
    arrays, fill = system_slab
    fill(h, blk, b, [np.ascontiguousarray(f) for f in arrays])


def _streamed_compat(state, reverse_sweep):
    """max |state - reverse| over the nodes, the reverse-order sweep streamed.

    reverse_sweep(sink) runs the reverse-order sweep of the same equation
    with a `_sweep` sink; each slab of its last block is folded into the max
    and then overwritten, so the reverse state is never whole.  The slab
    maxima go through `np.max`, so a NaN anywhere gives NaN.
    """
    worst = []

    def fold(take, slab):
        np.subtract(take(state), slab, out=slab)
        worst.append(np.max(np.abs(slab, out=slab)))

    reverse_sweep(fold)
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
