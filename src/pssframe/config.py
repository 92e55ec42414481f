"""Typed run configuration parsed from INI-style files.

Every config key is one row of `KEYS`: section, name, `RunConfig`
attribute, default, converter from text, domain and the runs that read
it.  Physical defaults live here rather than in the numerical kernels.
Parsing is strict: an unknown section or key, or a value outside its
key's domain, fails with a diagnostic naming the key, so typos never
silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
from collections import namedtuple

import numpy as np

from .errors import ConfigError
from .frames import DET_RTOL_DEFAULT, ORTH_TOL_DEFAULT
from .rotation_solver import GATE_FACTOR_DEFAULT, initial_rotation, scaling_constants

MODEL_KINDS = ("camassa_holm", "sine_gordon", "igsge", "external")

_TIME_AXIS_DEFAULTS = {"camassa_holm": 1, "sine_gordon": 0, "igsge": 0, "external": 0}


# ---------------------------------------------------------------------------
# converters (text -> value; ValueError names what is wrong) and domains
# (value -> None, or what the value must be)

def _list(convert):
    return lambda text: tuple(convert(part) for part in text.split(",") if part.strip())


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _l0(text):
    if text.strip() == "identity":
        return None
    values = _list(float)(text)
    n = int(round(len(values) ** 0.5))
    if n * n != len(values):
        raise ValueError("need n*n comma-separated entries")
    return np.array(values).reshape(n, n)


def _base(text):
    text = text.strip()
    return text if text in ("center", "origin") else _list(int)(text)


def _periodic_axis(text):
    text = text.strip().lower()
    if text in ("none", ""):
        return None
    if int(text) != 1:
        raise ValueError("only axis 1 (the first axis) is supported")
    return 0  # stored zero-based


def _each(holds, need):
    """The domain of a value, or a tuple of values, whose every entry holds."""

    def check(value):
        for entry in value if isinstance(value, tuple) else (value,):
            if not holds(entry):
                return "%s, got %r" % (need, entry)

    return check


def _one_of(*names):
    def check(value):
        if value not in names:
            return "%r is not one of %s" % (value, ", ".join(names))

    return check


def _finite_matrix(matrix):
    return None if matrix is None else _FINITE(tuple(matrix.ravel().tolist()))


def _at_least(low, need):
    return _each(lambda v: v >= low, need)


def _counts(value):
    if any(count < 3 for count in value):
        return "need at least 3 nodes per axis, got %s" % list(value)


def _scales(value):
    if len(value) < 2:
        return "needs at least two entries"
    if len(set(value)) < len(value):
        return "must be pairwise distinct, got %s" % list(value)
    return _at_least(1, "must be positive")(value)


_FINITE = _each(math.isfinite, "must be finite")
_POSITIVE = _each(lambda v: math.isfinite(v) and v > 0, "must be finite and positive")
# The structure gate squares the chart spacing.  The Camassa-Holm chart
# spacing is (period / nx, t_final / nt), and its residual cubes the first.
_SQUARE = _each(
    lambda v: v > 0 and 0.0 < v * v < math.inf,
    "must be finite and positive, with a finite, nonzero square",
)
_CUBE = _each(
    lambda v: v > 0 and 0.0 < v * v * v < math.inf,
    "must be finite and positive, with a finite, nonzero cube",
)
# a zero coordinate constant scales its frame field away, and a zero igsge
# constant makes the coframe singular at every node
_NONZERO = _each(lambda v: math.isfinite(v) and v != 0, "must be finite and nonzero")
# the solvers refuse a rotation past ORTH_TOL_DEFAULT before a run reads orth_tol
_ORTH_TOL = _each(
    lambda v: 0 < v <= ORTH_TOL_DEFAULT,
    "must be finite, positive and at most %g, the solvers' own bound" % ORTH_TOL_DEFAULT,
)
_NX = _each(lambda v: v >= 16 and v % 2 == 0, "must be an even number >= 16")
_KINKS = _one_of("static_kink", "moving_kink")
_ONE_BASED = _at_least(1, "is one-based and must be >= 1")
_VELOCITY = _each(lambda v: abs(v) < 1, "must satisfy |v| < 1")


# ---------------------------------------------------------------------------
# the table

Key = namedtuple("Key", "section name attr default convert domain readers")


def _key(section, name, default, convert, domain, readers, attr=None):
    """A row of `KEYS`; the `RunConfig` attribute is the key's name unless given."""
    return Key(section, name, attr or name, default, convert, domain, readers)


# A run reads a key when it carries one of the row's readers.  A run carries
# its command, its model kind, and "expand" (hierarchy, and conserve on the
# camassa_holm family) or "frame" (the commands on one frame: verify,
# solve-frame, converge, conserve on the other models).  verify carries
# "frame", so it takes phi0 and l0 without using them.
_CH = ("camassa_holm",)
_CHARTED = ("sine_gordon", "igsge")
_SOLVES = ("solve-frame", "converge", "conserve")
_EVERY = MODEL_KINDS

KEYS = (
    _key("model", "kind", "sine_gordon", str.strip, _one_of(*MODEL_KINDS), _EVERY, "model_kind"),
    _key("model", "m", 0.0, float, _FINITE, _CH),
    _key("model", "period", 6.0, float, _CUBE, _CH),
    _key("model", "t_final", 2.0, float, _SQUARE, _CH),
    _key("model", "nx", 256, int, _NX, _CH),
    _key("model", "nt", 64, int, _at_least(1, "must be positive"), _CH),
    _key("model", "cfl", 0.3, float, _POSITIVE, _CH),
    _key("model", "u0_offset", 0.2, float, _FINITE, _CH),
    _key("model", "u0_amplitude", 0.1, float, _FINITE, _CH),
    _key("model", "kink", "static_kink", str.strip, _KINKS, ("sine_gordon",)),
    _key("model", "velocity", 0.0, float, _VELOCITY, ("sine_gordon",)),
    _key("model", "c", (), _list(float), _NONZERO, ("igsge",)),
    _key("model", "field_file", "", str.strip, None, ("external",)),
    _key("chart", "origin", (), _list(float), _FINITE, _CHARTED),
    _key("chart", "spacing", (), _list(float), _SQUARE, _CHARTED),
    _key("chart", "extent", (), _list(float), _POSITIVE, _CHARTED),
    _key("chart", "counts", (), _list(int), _counts, _CHARTED),
    # phi0 starts 2D charts, l0 (None: the identity) higher dimensions
    _key("solver", "phi0", None, float, _FINITE, ("frame",)),
    _key("solver", "l0", None, _l0, _finite_matrix, ("frame",)),
    # None: the chart center (index 0 of a periodic first axis)
    _key("solver", "base", None, _base, None, _SOLVES + ("hierarchy",)),
    _key("solver", "coordinates_check", False, _bool, None, ("solve-frame",)),
    _key("solver", "coordinate_constants", (), _list(float), _NONZERO, ("solve-frame",)),
    _key("hierarchy", "order", 1, int, _at_least(0, "must be nonnegative"), ("expand",)),
    _key("hierarchy", "periodic_axis", None, _periodic_axis, None, ("expand",)),
    _key("hierarchy", "start_values", (), _list(float), _FINITE, ("expand",)),
    # one-based; 0: the model's own time axis
    _key("conservation", "time_axis", 0, int, _ONE_BASED, ("conserve",)),
    _key("conservation", "drift_tol", None, float, _FINITE, ("conserve",)),
    _key("conservation", "svg", False, _bool, None, ("conserve",)),
    _key("convergence", "scales", (1, 2, 4), _list(int), _scales, ("converge",)),
    _key("convergence", "order_floor", 1.7, float, _FINITE, ("converge",)),
    _key("tolerances", "gate_factor", GATE_FACTOR_DEFAULT, float, _POSITIVE, _EVERY),
    _key("tolerances", "orth_tol", ORTH_TOL_DEFAULT, float, _ORTH_TOL, _SOLVES),
    _key("tolerances", "det_rtol", DET_RTOL_DEFAULT, float, _POSITIVE, ("solve-frame",)),
    _key("output", "directory", "out", str.strip, None, _EVERY, "out_dir"),
)

_ROWS = {(row.section, row.name): row for row in KEYS}
_BY_ATTR = {row.attr: row for row in KEYS}

# a run that does not read one of these keys refuses it when it is set
_EXPANSION_START = (
    "the expansion commands start each order from [hierarchy] start_values (or periodic_axis)"
)
_UNREAD_REASONS = {
    "phi0": _EXPANSION_START,
    "l0": _EXPANSION_START,
    "coordinates_check": "only solve-frame runs the coordinate check",
}


class RunConfig:
    """Everything a command needs: one attribute per row of `KEYS`.

    Each attribute holds its row's default until a config sets it.
    """

    def __init__(self):
        for row in KEYS:
            setattr(self, row.attr, row.default)

    def resolved_time_axis(self):
        """The zero-based time axis."""
        return self.time_axis - 1 if self.time_axis else _TIME_AXIS_DEFAULTS[self.model_kind]


def _where(attr):
    row = _BY_ATTR[attr]
    return "[%s] %s" % (row.section, row.name)


def parse_config(path):
    """Parse a config file into a RunConfig; raise ConfigError on problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("unreadable config: %s" % exc) from exc
    if not read:
        raise ConfigError("config file not found: %s" % path)

    cfg = RunConfig()
    for section in parser.sections():
        if not any(row.section == section for row in KEYS):
            raise ConfigError("unknown config section [%s]" % section)
        for name in parser.options(section):
            row = _ROWS.get((section, name))
            if row is None:
                raise ConfigError("unknown key %r in section [%s]" % (name, section))
            try:
                value = row.convert(parser.get(section, name))
                problem = row.domain and row.domain(value)
            except (ValueError, configparser.Error) as exc:
                problem = exc
            if problem:
                raise ConfigError("[%s] %s: %s" % (section, name, problem))
            setattr(cfg, row.attr, value)
    _check_relations(cfg)
    return cfg


def _check_relations(cfg):
    """The checks that relate two or more keys."""
    if cfg.extent:
        if cfg.spacing:
            raise ConfigError("[chart]: give either spacing or extent, not both")
        if not cfg.counts:
            raise ConfigError("[chart] extent needs counts in the same section")
        if len(cfg.extent) != len(cfg.counts):
            raise ConfigError("[chart] extent and counts lengths differ")
        cfg.spacing = tuple(e / (c - 1) for e, c in zip(cfg.extent, cfg.counts))
        if 0.0 in cfg.spacing:
            raise ConfigError("[chart] extent: too small for counts, the spacing is 0")
        if problem := _SQUARE(cfg.spacing):
            raise ConfigError("[chart] extent: the spacing %s" % problem)
    kind = cfg.model_kind
    if kind in _CHARTED:
        required = (("counts", "counts"), ("spacing", "spacing (or extent)"), ("origin", "origin"))
        for attr, what in required:
            if not getattr(cfg, attr):
                raise ConfigError("[chart] %s is required for model %s" % (what, kind))
        n = len(cfg.counts)
        if len({n, len(cfg.spacing), len(cfg.origin)}) != 1:
            raise ConfigError("[chart] origin/spacing/counts lengths differ")
        if kind == "sine_gordon" and n != 2:
            raise ConfigError("[chart] the kink model needs a 2D chart")
    if kind == "igsge":
        if len(cfg.c) != n - 1:
            raise ConfigError("[model] c needs %d entries for a %dD chart" % (n - 1, n))
        # the sum of squares igsge_explicit_solution forms, on floats that overflow quietly
        if abs(sum(v * v for v in cfg.c) - 1.0) > 1e-12:
            raise ConfigError("[model] c: must have unit length, got %s" % list(cfg.c))
        if not cfg.origin[0] > 0.0:
            raise ConfigError(
                "[chart] origin: the igsge solution needs x_1 > 0 on the chart, got %r"
                % cfg.origin[0]
            )
    if kind == "external" and not cfg.field_file:
        raise ConfigError("[model] field_file is required for the external model")
    if cfg.coordinate_constants and not cfg.coordinates_check:
        raise ConfigError(
            "[solver] coordinate_constants: applies only with coordinates_check = true "
            "(solve-frame)"
        )
    if cfg.start_values and cfg.periodic_axis == 0:
        raise ConfigError(
            "[hierarchy] start_values: periodic_axis = 1 chooses the start of every "
            "order itself"
        )
    if len(cfg.start_values) > cfg.order + 1:
        raise ConfigError(
            "[hierarchy] start_values: %d entries, but order %d starts only orders "
            "0..%d" % (len(cfg.start_values), cfg.order, cfg.order)
        )


def run_labels(cfg, command):
    """The readers a run of command on cfg carries (see `KEYS`).

    A set key that the run does not read and that names a reason in
    `_UNREAD_REASONS` is a config error, and so is an expansion command
    on a model without a parameter family.
    """
    family = cfg.model_kind == "camassa_holm"
    expand = command == "hierarchy" or (command == "conserve" and family)
    if expand and not family:
        raise ConfigError("the expansion commands need the camassa_holm model (parameter family)")
    labels = {command, cfg.model_kind, "expand" if expand else "frame"}
    for attr, reason in _UNREAD_REASONS.items():
        value = getattr(cfg, attr)
        is_set = value is not None and value is not False
        if is_set and labels.isdisjoint(_BY_ATTR[attr].readers):
            raise ConfigError("%s: %s" % (_where(attr), reason))
    return labels


def _start_matrix(cfg, chart, labels):
    if chart.dim > 2:
        return initial_rotation(cfg.l0, chart.dim)
    if cfg.l0 is not None:
        raise ValueError("applies to charts of dimension >= 3; 2D charts start from phi0")


def _base_index(cfg, chart, labels):
    base = chart.base_index("center" if cfg.base is None else cfg.base)
    if "expand" in labels and cfg.periodic_axis == 0 and cfg.base is not None and base[0]:
        raise ValueError(
            "periodic_axis = 1 starts every order on the first-axis index 0, got base %s"
            % (base,)
        )
    return base


def _time_axis(cfg, chart, labels):
    axis = cfg.resolved_time_axis()
    if axis >= chart.dim:
        raise ValueError("axis %d is not an axis of the %dD chart" % (axis + 1, chart.dim))
    return axis


# the keys whose domain depends on the chart: attr -> (cfg, chart, labels) -> value
_ON_CHART = {
    "l0": _start_matrix,
    "base": _base_index,
    "coordinate_constants": lambda cfg, chart, labels: scaling_constants(
        cfg.coordinate_constants or None, chart.dim
    ),
    "time_axis": _time_axis,
}


def on_chart(cfg, chart, command):
    """The chart-dependent keys that a run of command reads, resolved on chart.

    Returns {attr: value}: the `l0` start matrix (None on 2D charts), the
    `base` index, the `coordinate_constants` and the zero-based `time_axis`.
    A value that does not fit the chart is a config error naming its key.
    """
    labels = run_labels(cfg, command)
    resolved = {}
    for attr, resolve in _ON_CHART.items():
        if not labels.isdisjoint(_BY_ATTR[attr].readers):
            try:
                resolved[attr] = resolve(cfg, chart, labels)
            except ValueError as exc:
                raise ConfigError("%s: %s" % (_where(attr), exc)) from exc
    return resolved
