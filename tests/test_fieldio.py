"""pssfield v1 text round trips and header validation."""

import numpy as np
import pytest

from pssframe import (
    GridChart,
    ScalarField,
    read_field,
    read_scalar,
    write_field,
    write_scalar,
)
from pssframe import fieldio


def test_scalar_round_trip_is_bit_exact(tmp_path, rng):
    chart = GridChart((-0.3, 1.0 / 3.0), (0.1, 0.25), (7, 5), ("x", "t"))
    f = ScalarField(chart, rng.standard_normal(chart.shape) * 1e3)
    path = tmp_path / "f.pssfield"
    write_scalar(path, f)
    g = read_scalar(path)
    assert g.chart.counts == chart.counts
    assert np.array_equal(g.values, f.values)
    assert g.chart.origin == pytest.approx(chart.origin, abs=0.0)
    assert g.chart.spacing == pytest.approx(chart.spacing, abs=0.0)


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
    f = ScalarField.constant(chart, 2.5)
    write_field(tmp_path / "m.pssfield", chart, [f, np.arange(6.0)])
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


def test_read_scalar_requires_single_component(tmp_path):
    chart = GridChart((0.0,), (1.0,), (3,))
    write_field(tmp_path / "two.pssfield", chart, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="single-component"):
        read_scalar(tmp_path / "two.pssfield")


def test_identical_fields_produce_identical_bytes(tmp_path):
    chart = GridChart((0.0, 0.0), (0.1, 0.2), (4, 4))
    f = ScalarField.from_function(chart, lambda x, t: np.sin(x + t))
    write_scalar(tmp_path / "a.pssfield", f)
    write_scalar(tmp_path / "b.pssfield", f)
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
    counts = (fieldio._BLOCK_NODES // 2 + 1, 5)
    chart = GridChart((-0.3, 1.0 / 3.0), (0.1, 1e-7), counts)
    stack = rng.standard_normal((m,) + chart.shape) * 10.0 ** rng.integers(
        -300, 300, (m,) + chart.shape
    )
    flat = stack.reshape(m, -1)
    flat[:, : len(_SPECIAL)] = _SPECIAL
    flat[:, fieldio._BLOCK_NODES - 1 : fieldio._BLOCK_NODES + 1] = [-0.0, np.nan]
    path = tmp_path / "g.pssfield"
    write_field(path, chart, stack)
    assert path.read_bytes() == _reference_bytes(chart, stack)


def test_write_matches_reference_for_non_contiguous_stack(tmp_path, rng):
    chart = GridChart((0.0, 0.0), (0.5, 0.25), (fieldio._BLOCK_NODES // 16, 20))
    base = rng.standard_normal((20, chart.counts[0], 3 * len(_SPECIAL)))
    base[..., : len(_SPECIAL)] = _SPECIAL
    stack = np.transpose(base, (2, 1, 0))[::3, :, ::-1]  # (m, counts) view
    assert stack.shape[1:] == chart.shape and not stack.flags.c_contiguous
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
