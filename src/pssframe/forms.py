"""Discrete differential forms on grid charts.

Every form is one bare float array with the form index first, passed next
to its chart:

- a one-form has shape (n, *counts): theta[k] is the coefficient of dx_k;
- a two-form has shape (pairs, *counts): one row per axis pair (k, l) with
  k < l, in row-major order (0, 1), (0, 2), ..., (1, 2), ...

Frame bundles store their n coframe one-forms and their connection the same
way, as dense arrays (see `frames`).  `closedness_residual` takes the
exterior derivative with second-order central differences on the interior
nodes; `potential` recovers a primitive of a closed one-form by staircase
line integration (a composite trapezoid block fill, axes in chart order,
run by the walker `grid._sweep`) and reports the discrepancy against the
reversed axis order as a self-check.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .grid import GridChart, _streamed_compat, _sweep, dense


def _pairs(n):
    return list(combinations(range(n), 2))


def oneform(chart: GridChart, theta):
    """theta as a float (n, *counts) array, or ValueError naming its shape."""
    return dense(theta, (chart.dim,) + chart.counts, "one-form (one coefficient per axis)")


def interior_central(v, axis, h):
    """(v[i+1] - v[i-1]) / 2h along one axis of a (*counts) array, on the
    strictly interior nodes: every axis loses its two end nodes."""
    core = [slice(1, -1)] * v.ndim
    hi = tuple(core[:axis] + [slice(2, None)] + core[axis + 1 :])
    lo = tuple(core[:axis] + [slice(None, -2)] + core[axis + 1 :])
    out = v[hi] - v[lo]
    out /= 2.0 * h
    return out


def interior_d(values, k, l, spacing):
    """The dx_k ^ dx_l coefficient of d(theta) on the strictly interior nodes.

    values is theta's (n, *counts) array.  The central differences of
    `interior_central` give each node the double of the full-grid
    `grid.partial_derivative` stencils.
    """
    return interior_central(values[l], k, spacing[k]) - interior_central(values[k], l, spacing[l])


def closedness_residual(chart: GridChart, theta) -> float:
    """Max-norm of d(theta) over interior nodes; NaN when any of them is NaN."""
    v, h = oneform(chart, theta), chart.spacing
    worst = [np.max(np.abs(interior_d(v, k, l, h))) for k, l in _pairs(chart.dim)]
    return float(np.max(worst))


def _trapezoid_fill(h, blk, b, node):
    """Block fill of `grid._sweep` for y' = f: the composite trapezoid from line b.

    The cumulative sums are written into the block in place and shifted to
    vanish at the base line, whose value is then added back.
    """
    (f,) = node
    line = blk[b].copy()
    np.cumsum(0.5 * h * (f[:-1] + f[1:]), axis=0, out=blk[1:])
    blk[0] = 0.0
    blk -= blk[b : b + 1]
    blk += line


def potential(chart: GridChart, theta, base="center"):
    """Primitive G of a (numerically) closed one-form, G(base) = 0.

    Integrates along the staircase path that follows the chart axes in
    order, then repeats with the axes reversed; the max discrepancy between
    the two primitives is returned as `path_residual`.  Returns (G, path_residual)
    with G a (*counts) array.  Callers decide what residual is tolerable for
    their data.  The reversed sweep is streamed (`grid._streamed_compat`), so
    the reversed primitive is never whole and a NaN gives a NaN residual.
    """
    theta = oneform(chart, theta)
    base_idx = chart.base_index(base)

    def system(axis, take):
        return [take(theta[axis])], _trapezoid_fill

    order = tuple(range(chart.dim))
    g = _sweep(chart, base_idx, order, 0.0, system)
    reverse = order[::-1]
    return g, _streamed_compat(g, lambda sink: _sweep(chart, base_idx, reverse, 0.0, system, sink))
