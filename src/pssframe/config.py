"""Typed run configuration parsed from INI-style files.

All physical defaults (tolerances, expansion order, nondegeneracy
thresholds) live here rather than in the numerical kernels.  Parsing is
strict: unknown sections or keys fail with a diagnostic naming the
offender, so typos never silently fall back to defaults.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MODEL_KINDS = ("camassa_holm", "sine_gordon", "igsge", "external")

_KNOWN_KEYS = {
    "model": {
        "kind",
        "m",
        "period",
        "t_final",
        "nx",
        "nt",
        "cfl",
        "u0_offset",
        "u0_amplitude",
        "kink",
        "velocity",
        "c",
        "field_file",
    },
    "chart": {"origin", "spacing", "extent", "counts", "axis_names"},
    "solver": {
        "phi0",
        "l0",
        "base",
        "coordinates_check",
        "coordinate_constants",
    },
    "hierarchy": {"order", "periodic_axis", "start_values"},
    "conservation": {"time_axis", "drift_tol", "svg"},
    "convergence": {"scales", "order_floor"},
    "tolerances": {"gate_factor", "orth_tol", "det_rtol"},
    "output": {"directory"},
}

_TIME_AXIS_DEFAULTS = {"camassa_holm": 1, "sine_gordon": 0, "igsge": 0, "external": 0}


@dataclass
class RunConfig:
    """Everything a command needs, with defaults already applied."""

    model_kind: str = "sine_gordon"
    # shallow-water model
    m: float = 0.0
    period: float = 6.0
    t_final: float = 2.0
    nx: int = 256
    nt: int = 64
    cfl: float = 0.3
    u0_offset: float = 0.2
    u0_amplitude: float = 0.1
    # kink model
    kink: str = "static_kink"
    velocity: float = 0.0
    # explicit nD solution
    c: tuple = ()
    # external frame data
    field_file: str = ""
    # chart (used by kink / nD / external-with-chart models)
    origin: tuple = ()
    spacing: tuple = ()
    counts: tuple = ()
    axis_names: tuple = ()
    # solver
    phi0: float = None  # None: start from 0 (2D charts)
    l0: np.ndarray = None
    base: object = None  # None: the chart center (index 0 of a periodic first axis)
    coordinates_check: bool = False
    coordinate_constants: tuple = ()
    # expansion
    order: int = 1
    periodic_axis: object = None
    start_values: tuple = ()
    # conservation
    time_axis: int = -1  # zero-based; -1 means "model default"
    drift_tol: float = None
    svg: bool = False
    # convergence
    scales: tuple = (1, 2, 4)
    order_floor: float = 1.7
    # tolerances
    gate_factor: float = 10.0
    orth_tol: float = 1e-12
    det_rtol: float = 1e-8
    # output
    out_dir: str = "out"

    def resolved_time_axis(self):
        if self.time_axis >= 0:
            return self.time_axis
        return _TIME_AXIS_DEFAULTS[self.model_kind]


def _floats(text):
    return tuple(float(part.strip()) for part in text.split(",") if part.strip())


def _finite(text, positive=False):
    value = float(text)
    if not np.isfinite(value) or (positive and not value > 0):
        need = "finite and positive" if positive else "finite"
        raise ValueError("must be %s, got %r" % (need, value))
    return value


def _finites(text, positive=False):
    return tuple(_finite(part, positive) for part in text.split(",") if part.strip())


def _ints(text):
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _counts(text):
    counts = _ints(text)
    if any(c < 3 for c in counts):
        raise ValueError("need at least 3 nodes per axis, got %s" % list(counts))
    return counts


def _bool(text, where):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError("%s: expected a boolean, got %r" % (where, text))


def parse_config(path):
    """Parse a config file into a RunConfig; raise ConfigError on problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("unreadable config: %s" % exc) from exc
    if not read:
        raise ConfigError("config file not found: %s" % path)

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError("unknown config section [%s]" % section)
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))

    cfg = RunConfig()

    def value(section, key, convert):
        try:
            return convert(parser.get(section, key))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError("[%s] %s: %s" % (section, key, exc)) from exc

    def take(section, key, convert, attr=None):
        if parser.has_option(section, key):
            setattr(cfg, attr or key, value(section, key, convert))

    take("model", "kind", str.strip, "model_kind")
    if cfg.model_kind not in MODEL_KINDS:
        raise ConfigError(
            "[model] kind: %r is not one of %s" % (cfg.model_kind, ", ".join(MODEL_KINDS))
        )
    take("model", "m", float)
    take("model", "period", float)
    take("model", "t_final", float)
    take("model", "nx", int)
    take("model", "nt", int)
    take("model", "cfl", float)
    take("model", "u0_offset", float)
    take("model", "u0_amplitude", float)
    take("model", "kink", str.strip)
    take("model", "velocity", float)
    take("model", "c", _floats)
    take("model", "field_file", str.strip)

    take("chart", "origin", _finites)
    take("chart", "spacing", lambda text: _finites(text, positive=True))
    take("chart", "counts", _counts)
    take(
        "chart",
        "axis_names",
        lambda text: tuple(part.strip() for part in text.split(",") if part.strip()),
    )
    if parser.has_option("chart", "extent"):
        if cfg.spacing:
            raise ConfigError("[chart]: give either spacing or extent, not both")
        extent = value("chart", "extent", lambda text: _finites(text, positive=True))
        if not cfg.counts:
            raise ConfigError("[chart] extent needs counts in the same section")
        if len(extent) != len(cfg.counts):
            raise ConfigError("[chart] extent and counts lengths differ")
        cfg.spacing = tuple(e / (c - 1) for e, c in zip(extent, cfg.counts))
        if 0.0 in cfg.spacing:
            raise ConfigError("[chart] extent: too small for counts, the spacing is 0")

    take("solver", "phi0", float)

    def parse_l0(text):
        text = text.strip()
        if text == "identity":
            return None
        values = _floats(text)
        n = int(round(len(values) ** 0.5))
        if n * n != len(values):
            raise ConfigError("[solver] l0: need n*n comma-separated entries")
        return np.array(values).reshape(n, n)

    take("solver", "l0", parse_l0)

    def parse_base(text):
        text = text.strip()
        if text in ("center", "origin"):
            return text
        return tuple(int(p.strip()) for p in text.split(","))

    take("solver", "base", parse_base)
    take(
        "solver",
        "coordinates_check",
        lambda t: _bool(t, "[solver] coordinates_check"),
    )
    take("solver", "coordinate_constants", _floats)

    take("hierarchy", "order", int)
    if cfg.order < 0:
        raise ConfigError("[hierarchy] order must be nonnegative")

    def parse_periodic(text):
        text = text.strip().lower()
        if text in ("none", ""):
            return None
        value = int(text)
        if value != 1:
            raise ConfigError(
                "[hierarchy] periodic_axis: only axis 1 (the first axis) is supported"
            )
        return 0  # stored zero-based

    take("hierarchy", "periodic_axis", parse_periodic)
    take("hierarchy", "start_values", _floats)

    def parse_time_axis(text):
        value = int(text)
        if value < 1:
            raise ConfigError("[conservation] time_axis is one-based and must be >= 1")
        return value - 1

    take("conservation", "time_axis", parse_time_axis)
    take("conservation", "drift_tol", _finite)
    take("conservation", "svg", lambda t: _bool(t, "[conservation] svg"))

    take("convergence", "scales", _ints)
    if len(cfg.scales) < 2:
        raise ConfigError("[convergence] scales needs at least two entries")
    take("convergence", "order_floor", _finite)

    for name in ("gate_factor", "orth_tol", "det_rtol"):
        take("tolerances", name, lambda text: _finite(text, positive=True))

    take("output", "directory", str.strip, "out_dir")

    _validate_model(cfg)
    return cfg


def _validate_model(cfg):
    if cfg.model_kind in ("sine_gordon", "igsge"):
        if not cfg.counts:
            raise ConfigError("[chart] counts is required for model %s" % cfg.model_kind)
        if not cfg.spacing:
            raise ConfigError(
                "[chart] spacing (or extent) is required for model %s" % cfg.model_kind
            )
        if not cfg.origin:
            raise ConfigError("[chart] origin is required for model %s" % cfg.model_kind)
        dims = {len(cfg.counts), len(cfg.spacing), len(cfg.origin)}
        if len(dims) != 1:
            raise ConfigError("[chart] origin/spacing/counts lengths differ")
        if cfg.axis_names and len(cfg.axis_names) != len(cfg.counts):
            raise ConfigError(
                "[chart] axis_names: need %d names, got %d"
                % (len(cfg.counts), len(cfg.axis_names))
            )
        if cfg.model_kind == "sine_gordon" and len(cfg.counts) != 2:
            raise ConfigError("[chart] the kink model needs a 2D chart")
        if cfg.model_kind == "igsge":
            n = len(cfg.counts)
            if len(cfg.c) != n - 1:
                raise ConfigError(
                    "[model] c needs %d entries for a %dD chart" % (n - 1, n)
                )
    if cfg.model_kind == "sine_gordon" and cfg.kink not in (
        "static_kink",
        "moving_kink",
    ):
        raise ConfigError("[model] kink must be static_kink or moving_kink")
    if cfg.model_kind == "external" and not cfg.field_file:
        raise ConfigError("[model] field_file is required for the external model")
    if cfg.model_kind == "camassa_holm":
        if cfg.nx < 16 or cfg.nx % 2:
            raise ConfigError("[model] nx must be an even number >= 16")
        if cfg.nt < 1:
            raise ConfigError("[model] nt must be positive")
        if cfg.period <= 0 or cfg.t_final <= 0:
            raise ConfigError("[model] period and t_final must be positive")
