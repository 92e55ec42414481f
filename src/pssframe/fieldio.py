"""Text exchange format for grid fields ("pssfield v1").

Layout:
    pssfield v1; dim=<n>; counts=<c1,...,cn>; origin=<...>; spacing=<...>; components=<m>
    <m space-separated values for node 0>
    ...

Nodes are written in row-major order (axis n fastest), matching the C-order
array storage used throughout the package.  Values are written as
`format(x, ".17g")` writes them (17 significant digits, enough to make a
write/read round trip bit-exact), but by a numpy kernel, `_format_g17`, that
produces the same bytes block by block.

Why the kernel is exact.  For a value x with 10^X <= |x| < 10^(X+1), `%.17g`
writes the integer D = round-half-even(|x| * 10^(16-X)), which has 17 digits
(a carry to 10^17 becomes 10^16 with X + 1), then lays D out in fixed or
scientific notation by X.  The kernel evaluates the product y = |x| * 10^k,
k = 16 - X, as a double-double:

- 10^k is the pair P_hi + P_lo, both correctly rounded from Python ints, so
  |10^k - P_hi - P_lo| <= 2^-106 * 10^k;
- |x| * P_hi is split exactly into p + e by Dekker's TwoProduct on
  Veltkamp-split operands (numpy has no fma);
- |x| * P_lo (below 12 in magnitude) is added to e in double precision.

For 10^16 <= y <= 10^17 the double p is an integer and |e| < 20, so
y - (p + e) is below 5e-15 in absolute value: the P_lo residual
(10^17 * 2^-106), the rounding of |x| * P_lo (2^-50) and the rounding of the
last addition (2^-49).  Rounding e to the nearest integer r therefore gives
D = p + r exactly unless the fractional part of e lies within
`_TIE_TOL` (2^-30, far above the error) of 1/2.  X starts as
floor(log10 |x|) and is corrected by one from the sign of y - 10^16 and of
y - 10^17, read exactly from (p, e); where those are too close to call, both
choices of X give the same digits after the carry.

Fallback cells are the near-ties, NaN, +-Inf and |x| outside
[_FAST_MIN, _FAST_MAX) (subnormals among them), where the scaled products or
the split could leave the double range.  Only those cells are formatted by
`format(x, ".17g")`, each into its own row of the output, so one NaN does not
send a whole block down the slow path.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .grid import GridChart, ScalarField

_MAGIC = "pssfield v1"

# Nodes formatted per kernel call in `write_field`.  Each call costs about
# 100 numpy calls whatever its size, and its work arrays take about 120 bytes
# per value, a few megabytes for six components.
_BLOCK_NODES = 4096

# |x| range of the fast path; outside it x * 10^k or the Veltkamp split of x
# or of 10^k could overflow or underflow.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
# Decimal exponents of fast cells: floor(log10 |x|) over the fast range, one
# correction step either side and the carry.
_X_MIN, _X_MAX = -202, 201
_SPLIT = 2.0**27 + 1.0
_TIE_TOL = 2.0**-30
# Byte slots per value: right-aligned sign and "0.000" prefix, 17 digits and
# a point, "e+dd[d]" padded at the end, and the separator.
_ZONE, _BODY, _EXP = 6, 18, 5
_SLOTS = _ZONE + _BODY + _EXP + 1
_U8 = np.uint8
_ROW = np.arange(_BODY, dtype=np.int8)[:, None]


@functools.cache
def _tables():
    """Lookup tables of the kernel, built on first use.

    Returns ((P_hi, P_lo, P_hi high half, P_hi low half) indexed by
    _X_MAX - X, exponent bytes (5, X), sign and prefix bytes (6, 2 X + sign),
    four-digit groups (4, 10000) as digit values, and each group's digit
    count without trailing zeros (10000,)).
    """
    pairs = []
    for k in range(16 - _X_MAX, 16 - _X_MIN + 1):
        n = 10 ** abs(k)
        if k >= 0:
            h = float(n)
            rest = float(n - int(h))
        else:
            h = 1 / n
            num, den = h.as_integer_ratio()
            rest = (den - num * n) / (den * n)
        pairs.append((h, rest))
    p_hi, p_lo = np.array(pairs).T.copy()
    c = p_hi * _SPLIT
    p_hh = c - (c - p_hi)
    xs = range(_X_MIN, _X_MAX + 1)
    exp = [("e%+03d" % x if x < -4 or x > 16 else "").ljust(_EXP, "\0") for x in xs]
    zone = [
        (sign + ("0." + "0" * (-x - 1) if -4 <= x < 0 else "")).rjust(_ZONE, "\0")
        for x in xs
        for sign in ("", "-")
    ]

    def columns(strings, width):
        text = "".join(strings).encode("ascii")
        return np.frombuffer(text, _U8).reshape(-1, width).T.copy()

    groups = np.indices((10,) * 4, dtype=_U8).reshape(4, 10000)
    # digits of each group up to its last nonzero one
    sig = np.zeros(10000, _U8)
    for count, digit in enumerate(groups, 1):
        sig[digit != 0] = count
    pow10 = (p_hi, p_lo, p_hh, p_hi - p_hh)
    return pow10, columns(exp, _EXP), columns(zone, _ZONE), groups, sig


def _scaled(w, X):
    """w * 10^(16 - X) as p + e, p = fl(w * P_hi); see the module docstring."""
    p_hi, p_lo, p_hh, p_hl = _tables()[0]
    idx = _X_MAX - X
    p = p_hi.take(idx)
    p *= w
    wh = w * _SPLIT
    wl = wh - w
    wh -= wl
    np.subtract(w, wh, out=wl)
    # Dekker: e = ((wh * p_hh - p) + wh * p_hl + wl * p_hh) + wl * p_hl, exact
    hh = p_hh.take(idx)
    e = wh * hh
    e -= p
    hh *= wl
    hl = p_hl.take(idx)
    wh *= hl
    e += wh
    e += hh
    wl *= hl
    e += wl
    wl = p_lo.take(idx)
    wl *= w
    e += wl
    return p, e


def _decimal(values):
    """(D, X, fast): |x| = D * 10^(X - 16) to 17 digits for the fast cells
    (D = 0, X = 0 for zeros); `fast` is False where `format` must be used."""
    w = np.abs(values)
    finite = np.isfinite(w)
    w[~finite] = 1.0  # keeps the comparisons and log10 below quiet
    zero = w == 0
    fast = finite & (((w >= _FAST_MIN) & (w < _FAST_MAX)) | zero)
    w[~fast | zero] = 1.0
    X = np.floor(np.log10(w)).astype(np.int16)
    p, e = _scaled(w, X)
    # log10 can put X one off next to a power of ten
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += high[fix].astype(np.int16) - low[fix]
        p[fix], e[fix] = _scaled(w[fix], X[fix])
    r = np.rint(e)
    fast &= np.abs(e - r) < 0.5 - _TIE_TOL  # near-ties go to the fallback
    D = p.astype(np.int64)
    D += r.astype(np.int64)
    carry = np.flatnonzero(D == 10**17)
    D[carry] = 10**16
    X[carry] += 1
    D[zero] = 0
    X[zero] = 0
    return D, X, fast


def _body(D, X, out):
    """Write the digits and point of each value into `out` (18 slots by n)."""
    groups, sig = _tables()[3:]
    # digits d0..d16 of D in rows 1..17, framed by zero rows: d0, then four
    # groups of four from two int32 halves; nsig counts the digits up to the
    # last nonzero one
    Z = np.empty((_BODY + 1, D.size), _U8)
    Z[0] = Z[-1] = 0
    hi = (D // 10**8).astype(np.int32)
    lo = (D - hi * np.int64(10**8)).astype(np.int32)
    top, g2 = np.divmod(hi, 10000)
    Z[1] = top // 10000
    g1 = top % 10000
    g3, g4 = np.divmod(lo, 10000)
    nsig = (Z[1] != 0).view(_U8)
    for row, g in zip((2, 6, 10, 14), (g1, g2, g3, g4)):
        Z[row : row + 4] = groups.take(g, axis=1)
        count = sig.take(g)
        nsig = np.where(count != 0, row - 1 + count, nsig)
    digits = Z[1:18]

    # `%g`: fixed notation for -4 <= X < 17, trailing zeros stripped; digits
    # before the point are X + 1 (fixed), 1 (scientific) or none (0.000ddd,
    # whose point is in the prefix); integer digits are never stripped
    sci = (X < -4) | (X > 16)
    small = (X < 0) & ~sci
    intlen = np.where(sci, 1, np.where(small, 0, X + 1)).astype(np.int8)
    digits += 48
    digits *= _ROW[:17] < np.maximum(nsig, intlen)
    pos = np.where(small, _BODY, intlen).astype(np.int8)

    # slot j holds digit j before the point, the point at `pos` (NUL when
    # nothing follows it) and digit j - 1 after it; uint8 arithmetic selects,
    # as np.where on these rows is several times slower
    same, shifted = Z[1:], Z[:_BODY]
    np.subtract(same, shifted, out=out)
    out *= _ROW < pos
    out += shifted
    point = (nsig > pos) * _U8(46) - shifted
    point *= _ROW == pos
    out += point


def _format_g17(values, sep):
    """Bytes of `format(x, ".17g")` for each x of `values`, each followed by its
    separator byte from `sep` (a uint8 array of the same length)."""
    exp_t, zone_t = _tables()[1:3]
    D, X, fast = _decimal(values)
    C = np.empty((_SLOTS, values.size), _U8)
    xi = X - _X_MIN
    C[:_ZONE] = zone_t.take(2 * xi + np.signbit(values), axis=1)
    _body(D, X, C[_ZONE : _ZONE + _BODY])
    C[_ZONE + _BODY : -1] = exp_t.take(xi, axis=1)
    C[-1] = sep
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(
            format(x, ".17g").encode("ascii").ljust(_SLOTS - 1, b"\0")
            for x in values[slow].tolist()
        )
        C[:-1, slow] = np.frombuffer(text, _U8).reshape(-1, _SLOTS - 1).T
    o = C.T  # one row per value; compressing the view beats a transposed copy
    return o[o != 0].tobytes()


def _fmt_tuple(values):
    v = np.asarray(values, dtype=float)
    return _format_g17(v, np.full(v.size, ord(","), _U8))[:-1].decode("ascii")


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
    sep = np.full(m, ord(" "), _U8)
    sep[-1] = ord("\n")
    seps = np.tile(sep, min(flat.shape[1], _BLOCK_NODES))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, flat.shape[1], _BLOCK_NODES):
            block = flat[:, start : start + _BLOCK_NODES].T.ravel()
            fh.write(_format_g17(block, seps[: block.size]))


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
        n_nodes = math.prod(counts)
        with warnings.catch_warnings():
            # numpy only warns on a body without data; it is a malformed file
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, dtype=float, ndmin=2)
            except UserWarning:
                raise ValueError(
                    "pssfield body is empty, expected (%d, %d)" % (n_nodes, m)
                ) from None
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
