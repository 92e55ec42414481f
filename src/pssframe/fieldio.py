"""Text exchange format for grid fields ("pssfield v1").

Layout:
    pssfield v1; dim=<n>; counts=<c1,...,cn>; origin=<...>; spacing=<...>; components=<m>
    <m space-separated values for node 0>
    ...

Nodes are written in row-major order (axis n fastest), matching the C-order
array storage used throughout the package.  Values are written with
`%.17g` (17 significant digits), enough to make a write/read round trip
bit-exact.
"""

from __future__ import annotations

import numpy as np

from .grid import GridChart, ScalarField

_MAGIC = "pssfield v1"

# Nodes formatted per `%` operation in `write_field`: large enough that the
# per-block overhead vanishes, small enough that one block's text and value
# tuple stay under a megabyte for six components.
_BLOCK_NODES = 4096


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_tuple(values):
    return ",".join(_fmt(v) for v in values)


def write_field(path, chart, components):
    """Write one or more component fields sharing a chart.

    `components` may be ScalarFields, node arrays of the chart shape, or a
    single stacked array of shape (m, *counts).
    """
    if isinstance(components, np.ndarray) and components.ndim == chart.dim + 1:
        stack = np.asarray(components, dtype=float)
    else:
        cols = []
        for comp in components:
            if isinstance(comp, ScalarField):
                chart.require_same(comp.chart)
                cols.append(comp.values)
            else:
                cols.append(np.asarray(comp, dtype=float))
        stack = np.stack(cols, axis=0)
    m = stack.shape[0]
    if stack.shape[1:] != tuple(chart.counts):
        raise ValueError("component shape does not match the chart")

    header = (
        f"{_MAGIC}; dim={chart.dim}; "
        f"counts={','.join(str(c) for c in chart.counts)}; "
        f"origin={_fmt_tuple(chart.origin)}; "
        f"spacing={_fmt_tuple(chart.spacing)}; "
        f"components={m}"
    )
    flat = stack.reshape(m, -1)
    row = " ".join(["%.17g"] * m) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for start in range(0, flat.shape[1], _BLOCK_NODES):
            block = flat[:, start : start + _BLOCK_NODES]
            fh.write(row * block.shape[1] % tuple(block.T.ravel().tolist()))


def read_field(path):
    """Read a pssfield v1 file; returns (chart, array of shape (m, *counts))."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        parts = [p.strip() for p in header.split(";")]
        if not parts or parts[0] != _MAGIC:
            raise ValueError("not a pssfield v1 file: %r" % header[:40])
        meta = {}
        for p in parts[1:]:
            key, _, val = p.partition("=")
            meta[key.strip()] = val.strip()
        try:
            dim = int(meta["dim"])
            counts = tuple(int(v) for v in meta["counts"].split(","))
            origin = tuple(float(v) for v in meta["origin"].split(","))
            spacing = tuple(float(v) for v in meta["spacing"].split(","))
            m = int(meta["components"])
        except (KeyError, ValueError) as exc:
            raise ValueError("malformed pssfield header: %s" % exc) from exc
        if len(counts) != dim or len(origin) != dim or len(spacing) != dim:
            raise ValueError("pssfield header dimensions disagree")
        chart = GridChart(origin, spacing, counts)
        n_nodes = int(np.prod(counts))
        data = np.loadtxt(fh, dtype=float, ndmin=2)
        if data.shape != (n_nodes, m):
            raise ValueError(
                "pssfield body has shape %s, expected (%d, %d)"
                % (data.shape, n_nodes, m)
            )
    return chart, data.T.reshape((m,) + counts).copy()


def write_scalar(path, field: ScalarField):
    write_field(path, field.chart, [field])


def read_scalar(path):
    chart, stack = read_field(path)
    if stack.shape[0] != 1:
        raise ValueError("expected a single-component field")
    return ScalarField(chart, stack[0])
