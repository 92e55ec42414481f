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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartMismatchError


@dataclass(frozen=True)
class GridChart:
    """Uniformly sampled axis-aligned box.

    origin[k] is the coordinate of node index 0 on axis k, spacing[k] > 0 the
    node distance, counts[k] >= 3 the number of nodes.  axis_names defaults
    to ("x1", ..., "xn").
    """

    origin: tuple
    spacing: tuple
    counts: tuple
    axis_names: tuple = field(default=())

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
        names = tuple(self.axis_names) or tuple(
            "x%d" % (k + 1) for k in range(len(counts))
        )
        if len(names) != len(counts):
            raise ValueError("axis_names length mismatch")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "axis_names", names)

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

    def interior(self):
        """Slicer selecting nodes with all indices strictly inside."""
        return tuple(slice(1, -1) for _ in self.counts)

    def require_same(self, other):
        if not isinstance(other, GridChart) or (
            self.counts != other.counts
            or any(abs(a - b) > 1e-12 for a, b in zip(self.origin, other.origin))
            or any(abs(a - b) > 1e-12 for a, b in zip(self.spacing, other.spacing))
        ):
            raise ChartMismatchError("fields live on different charts")

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

    # (-f0 + 9 f1 + 9 f2 - f3) / 16 in place, with one temporary: 9 f1 - f0
    # is the same double as -f0 + 9 f1
    inner = out[sl(slice(1, -1))]
    np.multiply(f[sl(slice(1, -2))], 9.0, out=inner)
    inner -= f[sl(slice(0, -3))]
    inner += 9.0 * f[sl(slice(2, -1))]
    inner -= f[sl(slice(3, None))]
    inner /= 16.0
    out[sl(0)] = (
        5.0 * f[sl(0)] + 15.0 * f[sl(1)] - 5.0 * f[sl(2)] + f[sl(3)]
    ) / 16.0
    out[sl(-1)] = (
        5.0 * f[sl(-1)] + 15.0 * f[sl(-2)] - 5.0 * f[sl(-3)] + f[sl(-4)]
    ) / 16.0
    return out
