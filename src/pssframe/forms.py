"""Discrete differential forms on grid charts.

Every form is one float array with the form index first:

- `OneFormField.values`, shape (n, *counts): values[k] is the coefficient
  of dx_k;
- `TwoFormField.values`, shape (pairs, *counts): one row per axis pair
  (k, l) with k < l, in row-major order (0, 1), (0, 2), ..., (1, 2), ...;
- `ConnectionField.values`, shape (pairs, n, *counts): the one-form
  omega_ij of each pair i < j, pairs in the same order.  Only the upper
  triangle is stored, so entry(j, i) == -entry(i, j) holds by construction
  rather than up to round-off.

`coefficient` and `entry` hand out ScalarField / OneFormField views of these
arrays (negated copies below the diagonal).  The exterior derivative uses
the chart's second-order stencils; `potential` recovers a primitive of a
closed one-form by staircase line integration (composite trapezoid, axes in
chart order) and reports the discrepancy against the reversed axis order as
a self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .grid import GridChart, ScalarField, interior_max_abs, partial_derivative


def _pairs(n):
    return list(combinations(range(n), 2))


def _skew_entry(values, n, i, j):
    """Entry (i, j), i != j, of a skew family stored as its upper triangle."""
    if i < j:
        return values[_pairs(n).index((i, j))]
    return -values[_pairs(n).index((j, i))]


def _dense(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError("%s needs shape %s, got %s" % (what, shape, values.shape))
    return values


@dataclass
class OneFormField:
    """theta = sum_k values[k] dx_k."""

    chart: GridChart
    values: np.ndarray

    def __post_init__(self):
        shape = (self.chart.dim,) + self.chart.counts
        self.values = _dense(self.values, shape, "one-form (one coefficient per axis)")

    @classmethod
    def from_arrays(cls, chart, arrays):
        return cls(chart, np.array(arrays, dtype=float))

    @classmethod
    def zeros(cls, chart):
        return cls(chart, np.zeros((chart.dim,) + chart.counts))

    def coefficient(self, axis):
        return ScalarField(self.chart, self.values[axis])

    def __sub__(self, other):
        self.chart.require_same(other.chart)
        return OneFormField(self.chart, self.values - other.values)

    def scaled(self, factor):
        """Pointwise scaling by a scalar or ScalarField."""
        if isinstance(factor, ScalarField):
            self.chart.require_same(factor.chart)
            factor = factor.values
        return OneFormField(self.chart, self.values * factor)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


@dataclass
class TwoFormField:
    """omega = sum_{k<l} values[pair(k, l)] dx_k^dx_l."""

    chart: GridChart
    values: np.ndarray

    def __post_init__(self):
        shape = (len(_pairs(self.chart.dim)),) + self.chart.counts
        self.values = _dense(self.values, shape, "two-form (one coefficient per k<l pair)")

    def coefficient(self, k, l):
        if k == l:
            return ScalarField.zeros(self.chart)
        return ScalarField(self.chart, _skew_entry(self.values, self.chart.dim, k, l))

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def interior_max_abs(self):
        return float(np.max([interior_max_abs(c) for c in self.values]))


@dataclass
class ConnectionField:
    """Skew matrix of one-forms; entry(j, i) == -entry(i, j) exactly.

    values is the (pairs, n, *counts) upper triangle, or a dict
    {(i, j): OneFormField} for the pairs i < j, stacked once here.
    """

    chart: GridChart
    values: np.ndarray

    def __post_init__(self):
        n = self.chart.dim
        pairs = _pairs(n)
        shape = (len(pairs), n) + self.chart.counts
        if isinstance(self.values, dict):
            if sorted(self.values) != pairs:
                raise ValueError("connection needs entries exactly for i<j pairs")
            for w in self.values.values():
                self.chart.require_same(w.chart)
            forms = [self.values[p].values for p in pairs]
            self.values = np.array(forms, dtype=float).reshape(shape)
        self.values = _dense(self.values, shape, "connection (one one-form per i<j pair)")

    def entry(self, i, j):
        if i == j:
            return OneFormField.zeros(self.chart)
        return OneFormField(self.chart, _skew_entry(self.values, self.chart.dim, i, j))

    def coefficient_matrix(self, axis):
        """Array W of shape (*counts, n, n) with W[..., i, j] = entry(i,j)_axis."""
        n = self.chart.dim
        out = np.zeros(self.chart.counts + (n, n))
        for (i, j), w in zip(_pairs(n), self.values):
            out[..., i, j] = w[axis]
            out[..., j, i] = -w[axis]
        return out

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


def d_scalar(f: ScalarField) -> OneFormField:
    """Exterior derivative of a scalar field (its gradient one-form)."""
    chart = f.chart
    out = np.empty((chart.dim,) + chart.counts)
    for k in range(chart.dim):
        out[k] = partial_derivative(f.values, k, chart.spacing[k])
    return OneFormField(chart, out)


def d_oneform(theta: OneFormField) -> TwoFormField:
    """Exterior derivative; coefficient of dx_k^dx_l is d_k theta_l - d_l theta_k."""
    chart = theta.chart
    pairs = _pairs(chart.dim)
    out = np.empty((len(pairs),) + chart.counts)
    for p, (k, l) in enumerate(pairs):
        dk = partial_derivative(theta.values[l], k, chart.spacing[k])
        dl = partial_derivative(theta.values[k], l, chart.spacing[l])
        np.subtract(dk, dl, out=out[p])
    return TwoFormField(chart, out)


def wedge(alpha: OneFormField, beta: OneFormField) -> TwoFormField:
    """Wedge product of two one-forms."""
    alpha.chart.require_same(beta.chart)
    chart = alpha.chart
    a, b = alpha.values, beta.values
    pairs = _pairs(chart.dim)
    # one pair at a time into a preallocated block: fancy-indexing all pairs
    # at once would copy both operands
    out = np.empty((len(pairs),) + chart.counts)
    # NaN and +-Inf coefficients pass on to the structure gate, which fails them
    with np.errstate(invalid="ignore"):
        for p, (k, l) in enumerate(pairs):
            np.multiply(a[k], b[l], out=out[p])
            out[p] -= a[l] * b[k]
    return TwoFormField(chart, out)


def closedness_residual(theta: OneFormField) -> float:
    """Max-norm of d(theta) over interior nodes."""
    return d_oneform(theta).interior_max_abs()


def _cumulative_line_integral(values, axis, base_index, spacing):
    """Composite-trapezoid integral from the base node along one axis.

    Returns I with I[base] = 0 and I[j] the signed integral from the base
    node to node j along `axis`.
    """
    f = np.asarray(values, dtype=float)
    n = f.ndim

    def sl(part):
        idx = [slice(None)] * n
        idx[axis] = part
        return tuple(idx)

    seg = 0.5 * spacing * (f[sl(slice(None, -1))] + f[sl(slice(1, None))])
    out = np.zeros_like(f)
    np.cumsum(seg, axis=axis, out=out[sl(slice(1, None))])
    out -= out[sl(slice(base_index, base_index + 1))]
    return out


def potential(theta: OneFormField, base="center"):
    """Primitive G of a (numerically) closed one-form, G(base) = 0.

    Integrates along the staircase path that follows the chart axes in
    order, then repeats with the axes reversed; the max discrepancy between
    the two primitives is returned as `path_residual`.  Callers decide what
    residual is tolerable for their data.
    """
    chart = theta.chart
    base_idx = chart.base_index(base)

    def staircase(axis_order):
        g = np.zeros(chart.counts)
        fixed = {k: base_idx[k] for k in range(chart.dim)}
        for axis in axis_order:
            region = tuple(
                slice(None)
                if k not in fixed or k == axis
                else slice(fixed[k], fixed[k] + 1)
                for k in range(chart.dim)
            )
            block = theta.values[axis][region]
            incr = _cumulative_line_integral(
                block, axis, base_idx[axis], chart.spacing[axis]
            )
            prev_region = tuple(
                slice(base_idx[axis], base_idx[axis] + 1) if k == axis else region[k]
                for k in range(chart.dim)
            )
            g[region] = g[prev_region] + incr
            del fixed[axis]
        return g

    order = list(range(chart.dim))
    g_fwd = staircase(order)
    g_rev = staircase(order[::-1])
    path_residual = float(np.max(np.abs(g_fwd - g_rev)))
    return ScalarField(chart, g_fwd), path_residual
