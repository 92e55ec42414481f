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

How the kernel lays out the text.  Each value becomes a record of four
little-endian 64-bit words, 32 bytes, where a NUL byte stands for nothing;
one bytes.translate pass over a block's records deletes every NUL:

- the zone word: the sign and, for -4 <= X < 0, the prefix `0.` to `0.000`;
- three body words: D's digits d0..d7, d8..d15 and d16, one digit value per
  byte, first digit lowest, the first two from a 10,000-entry table of
  four-digit groups of D's int32 halves.  The double d0..d7 + d8..d15 *
  2^64 + d16 * 2^128 of the words has its highest set bit in the byte of
  the last nonzero digit, so its exponent field gives the count of digits
  up to that one; the bytes at and after the point's slot move up one
  byte, carried from word to word; and one table by that count and X adds
  the ASCII zero of each digit written (those up to the last nonzero one,
  and the integer digits), the point where a digit follows it and the
  exponent `e+dd` or `e-ddd` of the scientific notation (X < -4 or
  X > 16) in the last word's six spare bytes, whose last is the separator.

Fallback cells are the near-ties, NaN, +-Inf and |x| outside
[_FAST_MIN, _FAST_MAX) (subnormals among them), where the scaled products or
the split could leave the double range.  Only those cells are formatted by
`format(x, ".17g")`, each into its own record, so one NaN does not send a
whole block down the slow path.

Reading.  Any file that np.loadtxt reads after the header is accepted.  A
body in the writer's own grammar, lines of m tokens [-]d+[.d+][e(+|-)d+]
joined by single spaces, each line ending in a newline, takes a fast
reader instead, `_read_fast`, which hands the nodes of each chunk (whole
lines of about 128 KB) to the caller's fold as soon as they are parsed: by
default they fill the component-major result, and a fold that keeps only
what it needs of each chunk reads a file without holding it (the structure
gate of `frames.frame_file_structure`).  Per chunk:

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
# nodes.  Each call costs about 130 numpy operations whatever its size, and
# its records and work arrays take about 130 bytes per value, about 1.07 MB
# per call (`WRITE257_ROTATION_PEAK` in the tests).  On the 257^2 kink's
# four fields 4,096 runs about 6 % slower, 16,384 about 4 % faster for
# twice the memory, which `KINK257_SOLVE_FRAME_PEAK` does not allow, and
# 32,768 falls out of cache, 60 % slower.
_BLOCK_VALUES = 8192

# |x| range of the fast path; outside it x * 10^k or the Veltkamp split of x
# or of 10^k could overflow or underflow.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
# Decimal exponents of fast cells: floor(log10 |x|) over the fast range, one
# correction step either side and the carry.
_X_MIN, _X_MAX = -202, 201
_NX = _X_MAX - _X_MIN + 1
# Powers 10^k in the table: the writer's 10^(16 - X) for the X above and the
# reader's 10^q for its safe shifts q.  At |k| <= 290 every Dekker partial
# product of the reader stays exact and D * 10^q (D < 10^18) stays normal.
_K_MIN, _K_MAX = -290, 290
# table row of 10^(16 - X) is _K_X - X
_K_X = 16 - _K_MIN
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for doubles
_TIE_TOL = 2.0**-30
_U8 = np.uint8
# Words of the writer's records, little-endian on every host so that a
# record's bytes come in the order they are written.
_W = np.dtype("<u8")


@functools.cache
def _tables():
    """(P_hi, P_lo, P_hi high half, P_hi low half) of 10^k indexed by
    k - _K_MIN, built on first use; the writer and the reader share them."""
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
    return p_hi, p_lo, p_hh, p_hi - p_hh


@functools.cache
def _words():
    """Lookup tables of the writer's records, built with numpy on first use.

    Returns (the word of each four-digit group 0..9999, one digit value per
    byte, first digit lowest; _NX times the digits written, by the exponent
    field of `_digit_words`; the body bytes at and after the point, (3, _NX)
    words by X - _X_MIN; the ASCII zeros, the point and the exponent, (3,
    18 * _NX) words by _NX * digits written + X - _X_MIN; the zone word,
    (2 * _NX,) by 2 (X - _X_MIN) + sign).
    """
    groups = np.indices((10,) * 4, dtype=_U8).reshape(4, -1).T
    digits = np.ascontiguousarray(groups).view("<u4").ravel().astype(_W)
    # the double's highest set bit lies in the byte of the last nonzero
    # digit: bits 0..63 are d0..d7, 64..127 are d8..d15 and 128.. is d16
    bit = np.arange(2048) - 1023
    rows = np.where(bit < 0, 0, np.minimum(bit // 8 + 1, 17)) * _NX

    # the bytes of the body words by word, digits written, point slot p and
    # byte: the digits before the point in place, the point where a digit
    # follows it and the digits after it one slot up; p = 18 is 0.000ddd,
    # whose point is in the zone, and integer digits are written whatever
    # their value
    slot = np.arange(24).reshape(3, 1, 1, 8)
    p = np.arange(19)[:, None]
    count = np.maximum(np.arange(18)[:, None, None], np.where(p == 18, 0, p))
    digit = (slot < p) & (slot < count) | (slot > p) & (slot <= count)
    body = (48 * digit + 46 * ((slot == p) & (count > p))).astype(_U8)

    xs = np.arange(_X_MIN, _X_MAX + 1)
    sci = (xs < -4) | (xs > 16)
    small = (xs < 0) & ~sci
    point = np.where(sci, 1, np.where(small, 18, xs + 1))
    # the exponent of the scientific notation in slots 18..22, its hundreds
    # digit only where it is not zero
    a = np.abs(xs)
    exp = np.zeros((_NX, 3, 8), _U8)
    exp[:, 2, 2:7] = np.stack(
        [
            np.full(_NX, 101),
            np.where(xs < 0, 45, 43),
            np.where(a >= 100, 48 + a // 100, 0),
            48 + a // 10 % 10,
            48 + a % 10,
        ],
        1,
    )
    exp[~sci] = 0
    fill = body.take(point, axis=2)
    fill += exp.transpose(1, 0, 2)[:, None]
    after = 255 * (slot[:, 0] >= point[:, None])
    # the sign, then the prefix 0. to 0.000 of -4 <= X < 0
    byte = np.arange(8)
    prefix = small[:, None] & (byte >= 1) & (byte < 2 - xs[:, None])
    zone = np.repeat(np.where(prefix, np.where(byte == 2, 46, 48), 0)[:, None], 2, 1)
    zone[:, 1, 0] = 45
    return (
        digits,
        rows,
        after.astype(_U8).view(_W).reshape(3, -1),
        fill.view(_W).reshape(3, -1),
        zone.astype(_U8).view(_W).ravel(),
    )


def _scaled(w, idx, w_lo=None):
    """(w + w_lo) * 10^k as p + e, p = fl(w * P_hi), for the table rows `idx`
    of 10^k (k = _K_MIN + idx); see the module docstring."""
    p_hi, p_lo, p_hh, p_hl = _tables()
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
    (D = 0, X = 0 for zeros), X of dtype intp; `fast` is False where
    `format` must be used."""
    w = np.abs(values)
    zero = w == 0
    fast = (w >= _FAST_MIN) & (w < _FAST_MAX)  # False for NaN
    w[~fast] = 1.0  # keeps log10 below quiet
    fast |= zero
    X = np.floor(np.log10(w)).astype(np.intp)
    p, e = _scaled(w, _K_X - X)
    # log10 can put X one off next to a power of ten
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        X[fix] += high[fix].astype(np.intp) - low[fix]
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


def _digit_words(D):
    """(v1, v2, v3, e): D's digits d0..d7, d8..d15 and d16 as the bytes of
    three words, first digit lowest, and the exponent field of a double
    whose highest set bit lies in the byte of D's last nonzero digit."""
    digits = _words()[0]
    hi = D // 10**9
    D -= hi * 10**9
    lo = D.astype(np.int32)
    q = lo // 10
    lo -= q * 10
    words = []
    for n in (hi.astype(np.int32), q):
        g = n // 10000
        n -= g * 10000
        w = digits.take(n)
        w <<= 32
        w |= digits.take(g)
        words.append(w)
    v1, v2 = words
    f = v1.astype(np.float64)
    f += v2 * 2.0**64
    f += lo * 2.0**128
    return v1, v2, lo.astype(_W), f.view(np.int64) >> 52


def _records(values, sep):
    """The (n, 4) word records of `values` (see the module docstring), each
    ending in its separator byte from `sep`."""
    rows, after, fill, zone = _words()[1:]
    D, X, fast = _decimal(values)
    X -= _X_MIN  # the tables' index of X
    rec = np.empty((values.size, 4), _W)
    z = X << 1
    z += np.signbit(values)
    rec[:, 0] = zone.take(z)
    v1, v2, v3, e = _digit_words(D)
    row = rows.take(e)
    row += X
    # the bytes at and after the point's slot move up one byte, carried
    # across words; then the ASCII zeros, the point and the exponent
    carry = None
    for i, v in enumerate((v1, v2, v3)):
        t = after[i].take(X)
        t &= v
        v ^= t
        v |= fill[i].take(row)
        if carry is not None:
            v |= carry
        carry = t >> 56
        t <<= 8
        np.bitwise_or(v, t, out=rec[:, i + 1])
    slow = np.flatnonzero(~fast)
    if slow.size:
        rec[slow] = np.frombuffer(
            b"".join(
                format(x, ".17g").encode("ascii").ljust(32, b"\0")
                for x in values[slow].tolist()
            ),
            _W,
        ).reshape(-1, 4)
    rec[:, 3] |= sep.astype(_W) << 56
    return rec


def _format_g17(values, sep):
    """Bytes of `format(x, ".17g")` for each x of `values`, each followed by its
    separator byte from `sep` (a uint8 array of the same length)."""
    return _records(values, sep).tobytes().translate(None, b"\0")


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
        f"origin={','.join(format(float(v), '.17g') for v in chart.origin)}; "
        f"spacing={','.join(format(float(v), '.17g') for v in chart.spacing)}; "
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


class _Fill:
    """The default sink of `read_field`: the nodes into one (m, *counts) array."""

    def __init__(self, chart, m):
        self.data = np.empty((m,) + chart.counts)
        self._flat = self.data.reshape(m, -1)
        self._row = 0

    def __call__(self, block):
        self._flat[:, self._row : self._row + block.shape[1]] = block
        self._row += block.shape[1]

    def result(self):
        return self.data


def _sink(fold, chart, m):
    """fold(chart, m), or the array's `_Fill` when there is no fold or it
    declines the file."""
    sink = None if fold is None else fold(chart, m)
    return _Fill(chart, m) if sink is None else sink


def _read_fast(fh, fold=None):
    """(chart, sink) of a file in the writer's own grammar, its nodes handed
    to the sink of `_sink` chunk by chunk, or None for any other file."""
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
    sink = _sink(fold, chart, m)
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
        sink(block)
        row += block.shape[1]
    if row != n_nodes:
        return None
    return chart, sink


def _read_loadtxt(path):
    """The general reader: any body np.loadtxt reads, with its messages;
    (chart, (m, nodes) view of the node-major array)."""
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
    return chart, data.T


def read_field(path, fold=None):
    """Read a pssfield v1 file; returns (chart, array of shape (m, *counts)).

    fold, when given, is called as fold(chart, m) once the header is read
    and returns a sink, or None for the array after all.  The sink takes the
    nodes in order as (m, k) component-major blocks, sink(block), and
    read_field returns (chart, sink.result()) in place of the array.  A body
    in the writer's grammar takes the fast reader, which hands on each chunk
    as it is parsed.  Any other file, also one that leaves the grammar part
    way, is read by np.loadtxt, which gives the same values and every
    message, and its whole array goes as one block to a fresh sink."""
    with open(path, "rb") as fh:
        fast = _read_fast(fh, fold)
    if fast is None:
        chart, data = _read_loadtxt(path)
        sink = _sink(fold, chart, data.shape[0])
        sink(data)
        fast = chart, sink
    chart, sink = fast
    return chart, sink.result()
