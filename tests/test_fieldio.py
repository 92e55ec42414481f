"""pssfield v1 text round trips and header validation."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from pssframe import GridChart, read_field, write_field
from pssframe import fieldio


def test_scalar_round_trip_is_bit_exact(tmp_path, rng):
    chart = GridChart((-0.3, 1.0 / 3.0), (0.1, 0.25), (7, 5))
    f = rng.standard_normal(chart.shape) * 1e3
    path = tmp_path / "f.pssfield"
    write_field(path, chart, [f])
    chart2, back = read_field(path)
    assert chart2.counts == chart.counts
    assert back.shape == (1,) + chart.shape
    assert np.array_equal(back[0], f)
    assert chart2.origin == pytest.approx(chart.origin, abs=0.0)
    assert chart2.spacing == pytest.approx(chart.spacing, abs=0.0)


def test_multi_component_round_trip(tmp_path, rng):
    chart = GridChart((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (3, 4, 5))
    stack = rng.standard_normal((4,) + chart.shape)
    path = tmp_path / "v.pssfield"
    write_field(path, chart, stack)
    chart2, back = read_field(path)
    assert chart2.counts == (3, 4, 5)
    assert back.shape == (4, 3, 4, 5)
    assert np.array_equal(back, stack)


def test_write_accepts_mixed_component_types(tmp_path):
    chart = GridChart((0.0,), (1.0,), (6,))
    write_field(tmp_path / "m.pssfield", chart, [[2.5] * 6, np.arange(6)])
    _, back = read_field(tmp_path / "m.pssfield")
    assert np.array_equal(back[0], np.full(6, 2.5))
    assert np.array_equal(back[1], np.arange(6.0))


def test_write_rejects_shape_mismatch(tmp_path):
    chart = GridChart((0.0,), (1.0,), (6,))
    with pytest.raises(ValueError):
        write_field(tmp_path / "bad.pssfield", chart, [np.zeros(5)])


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.pssfield"
    path.write_text("nonsense v9; dim=1\n0.0\n")
    with pytest.raises(ValueError, match="not a pssfield"):
        read_field(path)


def test_read_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.pssfield"
    path.write_text("pssfield v1; dim=two; counts=3; origin=0; spacing=1; components=1\n")
    with pytest.raises(ValueError, match="malformed"):
        read_field(path)


def test_read_rejects_inconsistent_dimensions(tmp_path):
    path = tmp_path / "bad.pssfield"
    path.write_text(
        "pssfield v1; dim=2; counts=3; origin=0,0; spacing=1,1; components=1\n"
        + "0\n" * 3
    )
    with pytest.raises(ValueError, match="dimensions disagree"):
        read_field(path)


def test_read_rejects_truncated_body(tmp_path):
    path = tmp_path / "short.pssfield"
    path.write_text(
        "pssfield v1; dim=1; counts=4; origin=0; spacing=1; components=1\n0\n1\n"
    )
    with pytest.raises(ValueError, match="body"):
        read_field(path)


def test_identical_fields_produce_identical_bytes(tmp_path):
    chart = GridChart((0.0, 0.0), (0.1, 0.2), (4, 4))
    x, t = chart.meshgrid()
    write_field(tmp_path / "a.pssfield", chart, [np.sin(x + t)])
    write_field(tmp_path / "b.pssfield", chart, [np.sin(x + t)])
    assert (tmp_path / "a.pssfield").read_bytes() == (tmp_path / "b.pssfield").read_bytes()


def _fmt(x):
    return format(float(x), ".17g")


def _reference_bytes(chart, stack):
    """The writer's output as formatted value by value, one node per line."""
    lines = [
        "pssfield v1; dim=%d; counts=%s; origin=%s; spacing=%s; components=%d"
        % (
            chart.dim,
            ",".join(str(c) for c in chart.counts),
            ",".join(_fmt(v) for v in chart.origin),
            ",".join(_fmt(v) for v in chart.spacing),
            stack.shape[0],
        )
    ]
    flat = stack.reshape(stack.shape[0], -1)
    for node in range(flat.shape[1]):
        lines.append(" ".join(_fmt(flat[c, node]) for c in range(flat.shape[0])))
    return ("\n".join(lines) + "\n").encode("ascii")


_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e22, 3.0, -7.0, 0.1]


@pytest.mark.parametrize("m", [1, 2, 6])
def test_write_matches_per_value_reference_across_blocks(tmp_path, rng, m):
    # 2.5 blocks and a bit: two block boundaries and a partial last block
    nodes = fieldio._block_nodes(m)
    counts = (nodes // 2 + 1, 5)
    chart = GridChart((-0.3, 1.0 / 3.0), (0.1, 1e-7), counts)
    stack = rng.standard_normal((m,) + chart.shape) * 10.0 ** rng.integers(
        -300, 300, (m,) + chart.shape
    )
    flat = stack.reshape(m, -1)
    flat[:, : len(_SPECIAL)] = _SPECIAL
    flat[:, nodes - 1 : nodes + 1] = [-0.0, np.nan]
    path = tmp_path / "g.pssfield"
    write_field(path, chart, stack)
    assert path.read_bytes() == _reference_bytes(chart, stack)


def test_write_matches_reference_for_non_contiguous_stack(tmp_path, rng):
    chart = GridChart((0.0, 0.0), (0.5, 0.25), (256, 20))
    base = rng.standard_normal((20, chart.counts[0], 3 * len(_SPECIAL)))
    base[..., : len(_SPECIAL)] = _SPECIAL
    stack = np.transpose(base, (2, 1, 0))[::3, :, ::-1]  # (m, counts) view
    assert stack.shape[1:] == chart.shape and not stack.flags.c_contiguous
    assert stack[0].size > 2 * fieldio._block_nodes(stack.shape[0])
    path = tmp_path / "nc.pssfield"
    write_field(path, chart, stack)
    assert path.read_bytes() == _reference_bytes(chart, stack)


def test_write_matches_reference_for_integer_components(tmp_path):
    chart = GridChart((0.0,), (1.0,), (7,))
    comps = [np.arange(-3, 4), np.array([0, 1, -1, 2**53, -(2**60), 10**18, 5])]
    path = tmp_path / "int.pssfield"
    write_field(path, chart, comps)
    stack = np.stack([np.asarray(c, dtype=float) for c in comps])
    assert path.read_bytes() == _reference_bytes(chart, stack)


def _ties(rng, count):
    """Doubles m * 2^-j (m odd) whose exact decimal has 18 significant digits
    ending in 5: `%.17g` must round them half to even."""
    ties = [2.0**-25]
    for j in range(2, 26):
        lo = max(1, -(-(10**17) // 5**j))
        hi = min(2**53, 10**18 // 5**j)
        for m in rng.integers(lo, hi, count // 24).tolist():
            ties.append((m | 1) * 2.0**-j)
    return np.array(ties)


def _near_ties():
    """Doubles x = m * 2^-(L+k) with x * 10^k = odd/2 +- 2^-L and 17 integer
    digits: closer to a tie than the kernel's error bound, so they need the
    fallback when 10^k is not a double (k > 22)."""
    out = []
    for k in range(1, 60):
        for L in range(40, 80):
            inverse = pow(5**k, -1, 2**L)
            for r in (2 ** (L - 1) - 1, 2 ** (L - 1) + 1):
                m = r * inverse % 2**L
                if m < 2**52:
                    m += -(-(2**52 - m) // 2**L) * 2**L
                if m < 2**53 and 10**16 <= m * 5**k >> L < 10**17:
                    out.append(math.ldexp(m, -L - k))
    return np.array(out)


def _dense_values(rng):
    """About 1.0e6 doubles covering every path of the `%.17g` kernel."""
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, 4_000, dtype=np.uint64)
    ties = _ties(rng, 8_000)
    tens = np.array([float("1e%d" % k) for k in range(-320, 309)])
    # the fixed/scientific switches of %g, and carries: float("1e-14") lies
    # below 10^-14 and its 17-digit rounding carries into the next decade
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1.0, 0.99999999999999999])
    # each of them and its three neighbours on either side
    near = np.concatenate([tens, switches]).view(np.int64)[:, None] + np.arange(-3, 4)
    walks = (switches[:4, None] * (1.0 + np.arange(-40, 41) * 2.0**-52)).ravel()
    big_ints = rng.integers(2**53, 2**62, 10_000).astype(float)
    structured = np.concatenate(
        [
            ties,
            _near_ties(),
            np.nextafter(ties, 0.0),
            np.nextafter(ties, 1.0),
            near.ravel().view(np.float64),
            walks,
            big_ints,
            [2.0**53, 2.0**53 + 2, 2.0**60, 1e18, 9007199254740993.0],
            [0.0, np.inf, np.nan],
        ]
    )
    bulk = rng.standard_normal(870_000)
    return np.concatenate(
        [bits.view(np.float64), subnormal.view(np.float64), structured, -structured, bulk]
    )


def test_g17_kernel_matches_format_on_dense_values(rng):
    values = _dense_values(rng)
    assert values.size >= 10**6
    chunk = 3 * fieldio._BLOCK_VALUES
    newline = np.full(chunk, ord("\n"), np.uint8)
    for start in range(0, values.size, chunk):
        block = values[start : start + chunk]
        expected = ("{:.17g}\n" * block.size).format(*block.tolist()).encode()
        assert fieldio._format_g17(block, newline[: block.size]) == expected


def test_g17_kernel_formats_only_fallback_cells_per_value(monkeypatch, rng):
    values = rng.standard_normal(3 * 4096)
    fallback = [np.nan, -np.inf, 5e-324, 2.0**-25, 1e250]
    at = rng.choice(values.size, len(fallback), replace=False)
    values[at] = fallback
    seps = np.tile(np.array([ord(" "), ord(" "), ord("\n")], np.uint8), 4096)
    expected = "".join(
        format(x, ".17g") + chr(s) for x, s in zip(values.tolist(), seps.tolist())
    ).encode()
    calls = []

    def counting_format(x, spec):
        calls.append(x)
        return format(x, spec)

    monkeypatch.setattr(fieldio, "format", counting_format, raising=False)
    assert fieldio._format_g17(values, seps) == expected
    assert len(calls) == len(fallback)


# the decades -6..18 reach every point slot of the body, those on the word
# boundaries (7/8, 15/16) among them, and every 0.000 prefix; the rest are
# the ends of the fast range [1e-200, 1e200) and the fallback cells past them
_LAYOUT_EXPONENTS = list(range(-6, 19)) + [-202, -201, -200, 199, 200, 201, 202]


def _significant_digits(text):
    mantissa = text.lstrip("-").partition("e")[0].replace(".", "").lstrip("0")
    return len(mantissa.rstrip("0"))


@pytest.mark.parametrize("X", _LAYOUT_EXPONENTS)
def test_g17_kernel_lays_out_every_digit_count_and_point_slot(X):
    # for each k, a k-digit decimal of the decade 10^X whose double %.17g
    # prints with k significant digits; in some decades (1e-6, 1e200) no
    # double prints with one digit
    rng = np.random.default_rng(X + 1000)
    values = []
    for k in range(1, 18):
        for M in rng.integers(10 ** (k - 1), 10**k, 400).tolist():
            x = float("%de%d" % (M, X - k + 1))
            if _significant_digits(format(x, ".17g")) == k:
                values.append(x)
                break
        else:
            assert k == 1
    assert len(values) >= 16
    values = np.array(values + [-x for x in values])
    expected = ("{:.17g}\n" * values.size).format(*values.tolist()).encode()
    newline = np.full(values.size, ord("\n"), np.uint8)
    assert fieldio._format_g17(values, newline) == expected


# tracemalloc peak in bytes of write_field on the 257^2 kink workload's
# chart for a rotation [[c, -s], [s, c]] of a kink angle, passed as
# `solve-frame` passes it, a component-major view of its node-major
# entries: 1,108,258 with a component-major slot matrix per block,
# 1,073,435 with its 32-byte word records; the guard is the next multiple
# of 50,000 bytes
WRITE257_ROTATION_PEAK = 1_100_000


def test_writing_the_kink_rotation_holds_one_block_of_records(tmp_path):
    chart = GridChart((0.5, -2.0), (3.5 / 256, 4.0 / 256), (257, 257))
    x, y = chart.meshgrid()
    phi = 0.3 + 4.0 * np.arctan(np.exp(2.0 * x - y))
    rot = np.stack([np.cos(phi), -np.sin(phi), np.sin(phi), np.cos(phi)], -1)
    path = tmp_path / "rotation.pssfield"
    write_field(path, chart, np.moveaxis(rot, -1, 0))
    # a full collection empties the free lists, as for the solver guards
    gc.collect()
    tracemalloc.start()
    try:
        write_field(path, chart, np.moveaxis(rot, -1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WRITE257_ROTATION_PEAK


def test_read_reports_the_exact_expected_node_count(tmp_path):
    path = tmp_path / "huge.pssfield"
    path.write_text(
        "pssfield v1; dim=2; counts=100000000000,100000000000; origin=0,0; "
        "spacing=1,1; components=6\n" + "0 0 0 0 0 0\n"
    )
    with pytest.raises(
        ValueError,
        match=r"body has shape \(1, 6\), expected \(10000000000000000000000, 6\)$",
    ):
        read_field(path)


def test_read_refuses_an_empty_body_without_a_warning(tmp_path):
    path = tmp_path / "empty.pssfield"
    path.write_text("pssfield v1; dim=1; counts=4; origin=0; spacing=1; components=2\n")
    with pytest.raises(ValueError, match=r"body is empty, expected \(4, 2\)"):
        read_field(path)


def _refuse_loadtxt(path):
    raise AssertionError("the fast reader declined %s" % path)


def test_fast_reader_matches_loadtxt_bit_for_bit(tmp_path, rng, monkeypatch):
    values = _dense_values(rng)
    values = values[np.isfinite(values)]
    stack = values[: values.size // 6 * 6].reshape(-1, 6).T
    chart = GridChart((0.0,), (1.0,), (stack.shape[1],))
    path = tmp_path / "dense.pssfield"
    write_field(path, chart, stack)
    body = path.read_bytes()
    assert b"e-" in body and b"e+" in body
    tiny = (np.abs(stack) < np.finfo(float).tiny) & (stack != 0)
    assert tiny.any() and np.signbit(stack[stack == 0]).any()
    assert np.abs(stack).max() > 1e308 and np.abs(stack[stack != 0]).min() < 1e-320
    _, expected = fieldio._read_loadtxt(path)
    monkeypatch.setattr(fieldio, "_read_loadtxt", _refuse_loadtxt)
    _, back = read_field(path)
    assert back.flags.c_contiguous
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))
    assert np.array_equal(back.view(np.int64), stack.view(np.int64))


def _decimal_ties():
    """Tokens of exact ties and of decimals D * 10^-k within 1 / (2 * 5^k) ulp
    of a midpoint between two doubles (D * 2^(s+1) = odd * 5^k +- 1 with odd
    of 54 bits), in fixed and exponent form and with both signs."""
    tokens = ["9007199254740993", "-9007199254740995", "9.007199254740993e+15"]
    for k, s in ((14, 27), (17, 33), (20, 42), (22, 47)):
        for delta in (1, -1):
            step = 2 ** (s + 1)
            odd = -delta * pow(5**k, -1, step) % step
            odd += -(-(2**53 - odd) // step) * step
            D = str((odd * 5**k + delta) // step)
            fixed = D[:-k] + "." + D[-k:] if len(D) > k else "0." + D.zfill(k)
            tokens += [fixed, "-%se-%d" % (D, k)]
    return tokens


def test_fast_reader_rounds_only_near_ties_by_float(tmp_path, monkeypatch):
    ties = _decimal_ties()
    tokens = [t for tie in ties for t in (tie, "0.25")]
    path = tmp_path / "ties.pssfield"
    path.write_text(
        "pssfield v1; dim=1; counts=%d; origin=0; spacing=1; components=2\n"
        % len(ties)
        + "".join("%s %s\n" % pair for pair in zip(tokens[::2], tokens[1::2]))
    )
    _, expected = fieldio._read_loadtxt(path)
    calls = []

    def counting_float(x):
        if isinstance(x, bytes):
            calls.append(x)
        return float(x)

    monkeypatch.setattr(fieldio, "float", counting_float, raising=False)
    monkeypatch.setattr(fieldio, "_read_loadtxt", _refuse_loadtxt)
    _, back = read_field(path)
    assert sorted(calls) == sorted(t.encode() for t in ties)
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))
    reference = np.array([float(t) for t in tokens]).reshape(-1, 2).T
    assert np.array_equal(back.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "body",
    [
        b"1 2\n# note\n3 4\n5 6\n",
        b"1\t2\n3 4\n5 6\n",
        b"1 2\r\n3 4\r\n5 6\r\n",
        b"+3 2\n3 4\n5 6\n",
        b".5 2\n3 4\n5 6\n",
        b"5. 2\n3 4\n5 6\n",
        b"1E5 2\n1e5 4\n5 6\n",
        b"1234567890123456789012345 2\n0.1234567890123456789012345 4\n5 6\n",
        b"1 1e+99999999999999999999\n3 4\n5 6\n",
        b"nan 2\n-inf 4\ninf 6\n",
        b"1 2 3\n3 4\n5 6\n",
        b"1.2.3 2\n3 4\n5 6\n",
        b"1  2\n3 4\n5 6\n",
        b"1 2\n\n3 4\n5 6\n",
        b"1 2\n3 4\n5 6",
        b"1 2\n3 4\n",
        b"1 2\n3 4\n5 6\n7 8\n",
        b"1 2\n3 \xc3\xa9\n5 6\n",
    ],
    ids=[
        "comment",
        "tab",
        "crlf",
        "plus",
        "leading-point",
        "trailing-point",
        "unsigned-exponent",
        "25-digits",
        "saturated-exponent",
        "nan-inf",
        "ragged",
        "two-points",
        "double-space",
        "blank-line",
        "no-final-newline",
        "short",
        "long",
        "non-ascii",
    ],
)
def test_bodies_outside_the_fast_grammar_read_as_loadtxt_reads_them(tmp_path, body):
    path = tmp_path / "other.pssfield"
    path.write_bytes(
        b"pssfield v1; dim=1; counts=3; origin=0; spacing=1; components=2\n" + body
    )
    with open(path, "rb") as fh:
        assert fieldio._read_fast(fh) is None
    try:
        _, expected = fieldio._read_loadtxt(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            read_field(path)
        assert str(info.value) == str(exc)
    else:
        _, back = read_field(path)
        assert np.array_equal(back.view(np.int64), expected.view(np.int64))
