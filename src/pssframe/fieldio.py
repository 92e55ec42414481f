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

Reading.  Any file that np.loadtxt reads after the header is accepted.  A
body in the writer's own grammar, lines of m tokens [-]d+[.d+][e(+|-)d+]
joined by single spaces, each line ending in a newline, takes a fast
reader instead, `_read_fast`, which fills the component-major result chunk
by chunk (whole lines of about 128 KB).  Per chunk:

- one pass over the bytes finds every byte that is not a digit; a table of
  allowed pairs of consecutive such events (`_RULES`) checks the grammar,
  and the separators check that every line holds m tokens;
- the chunk's digits, with the points deleted and each `e` a space, are
  parsed as int64 by np.fromstring, so a token is the integer D (and its
  exponent, when it has one) and its value is D * 10^q, q = exponent -
  digits after the point; the sign of -0 is taken from the bytes;
- D * 10^q is formed as a double-double by the writer's machinery: D =
  D_hi + D_lo exactly, 10^q = P_hi + P_lo from the same table, D_hi * P_hi
  split by TwoProduct, D_hi * P_lo and D_lo * P_hi added in double.  For
  |D| < 10^18 and |q| <= 290 the result p + e lies within 2^-102 |v| of the
  exact value v, far inside half an ulp (>= 2^-54 |v|).  With d = 2^-83 |p|
  (between 2^-31 and 2^-30 of an ulp), fl(p + (e - d)) and fl(p + (e + d))
  bracket v, so where they agree that double is v correctly rounded.

Where they differ (a near-tie), or q lies outside the table, the token is
parsed by float() on its own, as the writer falls back to `format`; both
round correctly, as np.loadtxt does, so every value is the one np.loadtxt
gives.  Any chunk outside the grammar (a comment, a tab, CR, nan or inf,
`+3`, `.5`, more than 18 significant digits, a ragged row, a last line
without a newline, non-ASCII bytes) sends the whole file back to the
np.loadtxt reader, so its values and its error messages stay exactly those
of np.loadtxt.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import warnings

import numpy as np

from .grid import GridChart

_MAGIC = "pssfield v1"

# Values formatted per kernel call in `write_field`, rounded down to whole
# nodes.  Each call costs about 100 numpy calls whatever its size, and its
# work arrays take about 120 bytes per value, about 1 MB per call.  Larger
# calls run slower per value (cache), smaller ones pay the fixed cost more
# often.
_BLOCK_VALUES = 8192

# |x| range of the fast path; outside it x * 10^k or the Veltkamp split of x
# or of 10^k could overflow or underflow.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
# Decimal exponents of fast cells: floor(log10 |x|) over the fast range, one
# correction step either side and the carry.
_X_MIN, _X_MAX = -202, 201
# Powers 10^k in the table: the writer's 10^(16 - X) for the X above and the
# reader's 10^q for its safe shifts q.  At |k| <= 290 every Dekker partial
# product of the reader stays exact and D * 10^q (D < 10^18) stays normal.
_K_MIN, _K_MAX = -290, 290
# table row of 10^(16 - X) is _K_X - X
_K_X = 16 - _K_MIN
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for doubles
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

    Returns ((P_hi, P_lo, P_hi high half, P_hi low half) of 10^k indexed by
    k - _K_MIN, exponent bytes (5, X), sign and prefix bytes (6, 2 X + sign),
    four-digit groups (4, 10000) as digit values, and each group's digit
    count without trailing zeros (10000,)).
    """
    pairs = []
    for k in range(_K_MIN, _K_MAX + 1):
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


def _scaled(w, idx, w_lo=None):
    """(w + w_lo) * 10^k as p + e, p = fl(w * P_hi), for the table rows `idx`
    of 10^k (k = _K_MIN + idx); see the module docstring."""
    p_hi, p_lo, p_hh, p_hl = _tables()[0]
    p = p_hi.take(idx)
    tail = None if w_lo is None else w_lo * p
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
    if tail is not None:
        e += tail
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
    p, e = _scaled(w, _K_X - X)
    # log10 can put X one off next to a power of ten
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += high[fix].astype(np.int16) - low[fix]
        p[fix], e[fix] = _scaled(w[fix], _K_X - X[fix])
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


def _block_nodes(m):
    """Nodes per kernel call of `write_field` for m components per node."""
    return max(1, _BLOCK_VALUES // m)


def write_field(path, chart, components):
    """Write one or more component fields sharing a chart.

    `components` is a sequence of node arrays of the chart shape, or a
    single stacked array of shape (m, *counts).
    """
    if isinstance(components, np.ndarray) and components.ndim == chart.dim + 1:
        stack = np.asarray(components, dtype=float)
    else:
        stack = np.stack([np.asarray(comp, dtype=float) for comp in components])
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
    nodes = _block_nodes(m)
    sep = np.full(m, ord(" "), _U8)
    sep[-1] = ord("\n")
    seps = np.tile(sep, min(flat.shape[1], nodes))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for start in range(0, flat.shape[1], nodes):
            block = flat[:, start : start + nodes].T.ravel()
            fh.write(_format_g17(block, seps[: block.size]))


# Event kinds of the reader's fast grammar [-]d+[.d+][e(+|-)d+]: every byte
# but a digit is an event.
_SP, _NL, _MINUS, _DOT, _E, _PLUS, _BAD = range(1, 8)
_KINDS = np.array([b" \n-.e+".find(c) + 1 or _BAD for c in range(256)], _U8)


def _grammar_rules():
    """Allowed pairs of consecutive events, indexed by (kind << 4) | (next
    kind << 1) | (digits between them); an exponent sign is a _PLUS."""
    rules = np.zeros(128, bool)
    allowed = {
        _SP: ((_MINUS, 0), (_SP, 1), (_NL, 1), (_DOT, 1), (_E, 1)),
        _MINUS: ((_SP, 1), (_NL, 1), (_DOT, 1), (_E, 1)),
        _DOT: ((_SP, 1), (_NL, 1), (_E, 1)),
        _E: ((_PLUS, 0),),
        _PLUS: ((_SP, 1), (_NL, 1)),
    }
    allowed[_NL] = allowed[_SP]
    for kind, pairs in allowed.items():
        for after, digits in pairs:
            rules[kind << 4 | after << 1 | digits] = True
    return rules


_RULES = _grammar_rules()
# Body bytes per fast-reader chunk: the chunk's temporaries stay below
# glibc's 128 KB mmap threshold.
_CHUNK = 1 << 17
# Relative half-width of the tie test: 2^-30 of an ulp at most.
_READ_TOL = _TIE_TOL * 2.0**-53


def _parse_header(line):
    """(chart, m) from a header line; ValueError names what is wrong."""
    header = line.strip()
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
    if m < 1:
        raise ValueError("malformed pssfield header: components must be >= 1")
    if len(counts) != dim or len(origin) != dim or len(spacing) != dim:
        raise ValueError("pssfield header dimensions disagree")
    return GridChart(origin, spacing, counts), m


def _to_double(D, q):
    """(values, slow): D * 10^q correctly rounded, and the cells whose
    rounding the kernel cannot certify (near-ties, q outside the table)."""
    idx = q - _K_MIN
    outside = None
    if q.min() < _K_MIN or q.max() > _K_MAX:
        outside = (idx < 0) | (idx > _K_MAX - _K_MIN)
        idx[outside] = 0
    hi = D.astype(np.float64)
    lo = D - hi.astype(np.int64)
    p, e = _scaled(hi, idx, lo.astype(np.float64))
    # v lies within 2^-102 |v| of p + e; both ends of p + e +- d round alike
    # unless a rounding boundary lies between them
    d = np.abs(p)
    d *= _READ_TOL
    low = e - d
    e += d
    low += p
    e += p
    slow = e != low
    if outside is not None:
        slow |= outside
    return e, slow


def _parse_chunk(buf, m):
    """Node-major values of `buf`, whole lines after a leading newline, or
    None when `buf` leaves the fast grammar or has a row of other than m."""
    raw = np.frombuffer(buf, _U8)
    pos = np.flatnonzero(raw - _U8(48) >= 10)  # every byte but a digit
    kind = _KINDS.take(raw.take(pos))
    ie = np.flatnonzero(kind == _E)
    if ie.size:  # the rules know an exponent sign as _PLUS
        signs = kind.take(ie + 1)
        signs[signs == _MINUS] = _PLUS
        kind[ie + 1] = signs
    gap = np.diff(pos)
    code = kind[:-1] << 4
    code |= kind[1:] << 1
    code |= gap > 1
    if not _RULES.take(code).all():
        return None
    ends = np.flatnonzero(kind < _MINUS)  # separators; ends[0] is the leading one
    n_tokens = ends.size - 1
    rows = n_tokens // m
    if (
        n_tokens != rows * m
        or np.count_nonzero(kind == _NL) != rows + 1
        or not (kind[ends[m::m]] == _NL).all()
    ):
        return None
    digits = buf.replace(b".", b"")
    if ie.size:
        digits = digits.replace(b"e", b" ")  # the exponent is its own integer
    ints = np.fromstring(digits, np.int64, sep=" ")
    # np.fromstring saturates where the digits overflow int64
    big = ints.max() >= 10**18 or ints.min() <= -(10**18)
    if big or ints.size != n_tokens + ie.size:
        return None
    # a token's first event is its sign or its point; its point ends the
    # digits before it, and the digits after it make q
    first = ends[:-1] + 1
    neg = kind.take(first) == _MINUS
    first += neg
    q = 1 - gap.take(first, mode="clip")  # the last token may have no event
    q *= kind.take(first) == _DOT
    D = ints
    if ie.size:
        te = np.searchsorted(ends, ie) - 1
        at = te + np.arange(1, ie.size + 1)
        q[te] += ints[at]
        D = np.delete(ints, at)
    values, slow = _to_double(D, q)
    values[neg & (D == 0)] = -0.0
    for j in np.flatnonzero(slow).tolist():
        values[j] = float(buf[pos[ends[j]] + 1 : pos[ends[j + 1]]])
    return values


def _read_fast(fh):
    """(chart, (m, nodes) array) of a file in the writer's own grammar, read
    chunk by chunk, or None for any other file."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None  # a pipe cannot be read a second time
    line = fh.readline()
    if not line.endswith(b"\n") or not line.isascii() or b"\r" in line:
        return None
    try:
        chart, m = _parse_header(line.decode("ascii"))
    except ValueError:
        return None
    n_nodes = math.prod(chart.counts)
    # every value takes at least two bytes
    if 2 * n_nodes * m > st.st_size - len(line):
        return None
    data = np.empty((m, n_nodes))
    row = 0
    while buf := fh.read(_CHUNK):
        if not buf.endswith(b"\n"):
            buf += fh.readline()
            if not buf.endswith(b"\n"):
                return None
        values = _parse_chunk(b"\n" + buf, m)
        if values is None or row + values.size // m > n_nodes:
            return None
        block = values.reshape(-1, m).T
        data[:, row : row + block.shape[1]] = block
        row += block.shape[1]
    if row != n_nodes:
        return None
    return chart, data


def _read_loadtxt(path):
    """The general reader: any body np.loadtxt reads, with its messages."""
    with open(path, "r", encoding="ascii") as fh:
        chart, m = _parse_header(fh.readline())
        n_nodes = math.prod(chart.counts)
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
    return chart, data.T.copy()


def read_field(path):
    """Read a pssfield v1 file; returns (chart, array of shape (m, *counts)).

    A body in the writer's grammar takes the fast reader; any other file is
    read by np.loadtxt, which gives the same values and every message."""
    with open(path, "rb") as fh:
        fast = _read_fast(fh)
    chart, data = fast or _read_loadtxt(path)
    return chart, data.reshape((data.shape[0],) + chart.counts)

