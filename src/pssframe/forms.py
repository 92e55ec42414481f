"""Discrete differential forms on grid charts.

Every form is one bare float array with the form index first, passed next
to its chart:

- a one-form has shape (n, *counts): theta[k] is the coefficient of dx_k;
- a two-form has shape (pairs, *counts): one row per axis pair (k, l) with
  k < l, in row-major order (0, 1), (0, 2), ..., (1, 2), ...

Frame bundles store their n coframe one-forms and their connection the same
way, as dense arrays (see `frames`).  The exterior derivative uses the
chart's second-order stencils; `potential` recovers a primitive of a closed
one-form by staircase line integration (composite trapezoid, axes in chart
order, over the blocks of `grid.staircase_blocks`) and reports the
discrepancy against the reversed axis order as a self-check.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .grid import GridChart, dense, partial_derivative, staircase_blocks


def _pairs(n):
    return list(combinations(range(n), 2))


def oneform(chart: GridChart, theta):
    """theta as a float (n, *counts) array, or ValueError naming its shape."""
    return dense(theta, (chart.dim,) + chart.counts, "one-form (one coefficient per axis)")


def d_scalar(chart: GridChart, f):
    """Exterior derivative of a scalar field (*counts): its gradient one-form."""
    f = dense(f, chart.counts, "scalar field")
    out = np.empty((chart.dim,) + chart.counts)
    for k in range(chart.dim):
        out[k] = partial_derivative(f, k, chart.spacing[k])
    return out


def d_oneform(chart: GridChart, theta):
    """Exterior derivative as a (pairs, *counts) two-form array.

    The coefficient of dx_k^dx_l is d_k theta_l - d_l theta_k.
    """
    theta = oneform(chart, theta)
    pairs = _pairs(chart.dim)
    out = np.empty((len(pairs),) + chart.counts)
    for p, (k, l) in enumerate(pairs):
        dk = partial_derivative(theta[l], k, chart.spacing[k])
        dl = partial_derivative(theta[k], l, chart.spacing[l])
        np.subtract(dk, dl, out=out[p])
    return out


def wedge(a, b):
    """Wedge product of two (n, *counts) one-forms as a (pairs, *counts) array."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("one-forms of shapes %s and %s" % (a.shape, b.shape))
    pairs = _pairs(a.shape[0])
    # one pair at a time into a preallocated block: fancy-indexing all pairs
    # at once would copy both operands
    out = np.empty((len(pairs),) + a.shape[1:])
    # NaN and +-Inf coefficients pass on without a warning
    with np.errstate(invalid="ignore"):
        for p, (k, l) in enumerate(pairs):
            np.multiply(a[k], b[l], out=out[p])
            out[p] -= a[l] * b[k]
    return out


def interior_d(values, k, l, spacing):
    """The dx_k ^ dx_l coefficient of d(theta) on the strictly interior nodes.

    values is theta's (n, *counts) array.  Every axis loses its two end
    nodes, and the central differences (v[i+1] - v[i-1]) / 2h give each
    node the double of the full-grid `d_oneform`.
    """
    core = [slice(1, -1)] * (values.ndim - 1)

    def central(v, axis):
        hi = tuple(core[:axis] + [slice(2, None)] + core[axis + 1 :])
        lo = tuple(core[:axis] + [slice(None, -2)] + core[axis + 1 :])
        return (v[hi] - v[lo]) / (2.0 * spacing[axis])

    return central(values[l], k) - central(values[k], l)


def closedness_residual(chart: GridChart, theta) -> float:
    """Max-norm of d(theta) over interior nodes; NaN when any of them is NaN."""
    v, h = oneform(chart, theta), chart.spacing
    worst = [np.max(np.abs(interior_d(v, k, l, h))) for k, l in _pairs(chart.dim)]
    return float(np.max(worst))


def potential(chart: GridChart, theta, base="center"):
    """Primitive G of a (numerically) closed one-form, G(base) = 0.

    Integrates along the staircase path that follows the chart axes in
    order, then repeats with the axes reversed; the max discrepancy between
    the two primitives is returned as `path_residual`.  Returns (G, path_residual)
    with G a (*counts) array.  Callers decide what residual is tolerable for
    their data.
    """
    theta = oneform(chart, theta)
    base_idx = chart.base_index(base)

    def staircase(axis_order):
        g = np.zeros(chart.counts)
        for axis, take in staircase_blocks(chart, base_idx, axis_order):
            # composite trapezoid from the base node along the block's lines
            f, b = take(theta[axis]), base_idx[axis]
            incr = np.zeros_like(f)
            np.cumsum(0.5 * chart.spacing[axis] * (f[:-1] + f[1:]), axis=0, out=incr[1:])
            incr -= incr[b : b + 1]
            blk = take(g)
            blk[...] = blk[b : b + 1] + incr
        return g

    order = list(range(chart.dim))
    g_fwd = staircase(order)
    g_rev = staircase(order[::-1])
    path_residual = float(np.max(np.abs(g_fwd - g_rev)))
    return g_fwd, path_residual
