"""The config key table: every row against the command line and the README."""

import json
import math
import os
import re
import warnings

import pytest

from conftest import cosh_metric_frame, exp_metric_frame
from pssframe.cli import main
from pssframe.config import KEYS, parse_config, run_labels
from pssframe.errors import ConfigError
from pssframe.frames import save_frame_data

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# cheapest first: the change check stops at the first command that shows it
COMMANDS = ("verify", "conserve", "hierarchy", "converge", "solve-frame")
VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300")
# keys that size the work: a value their domain accepts is only parsed, so
# no case allocates or loops by a huge value
SIZING = {
    "nx", "nt", "counts", "order", "scales",
    "m", "period", "t_final", "cfl", "u0_offset", "u0_amplitude",
}

SG = {
    "model": {"kind": "sine_gordon"},
    "chart": {"origin": "-2, -2", "extent": "4, 4", "counts": "9, 9"},
    "convergence": {"scales": "1, 2"},
}
IGSGE = {
    "model": {"kind": "igsge", "c": "0.6, 0.8"},
    "chart": {"origin": "0.5, -2, -2", "extent": "2, 4, 4", "counts": "5, 5, 5"},
    "convergence": {"scales": "1, 2"},
}
CH = {
    "model": {
        "kind": "camassa_holm", "m": "0.5", "period": "6", "t_final": "0.2",
        "nx": "16", "nt": "2",
    },
    "hierarchy": {"order": "1", "periodic_axis": "1"},
    "convergence": {"scales": "1, 2"},
}
EXTERNAL = {"model": {"kind": "external", "field_file": "{exp_frame}"}}


def with_keys(base, **keys):
    """base with section__key = value entries set (None removes the key)."""
    config = {section: dict(entries) for section, entries in base.items()}
    for name, value in keys.items():
        section, key = name.split("__")
        config.setdefault(section, {})[key] = value
        if value is None:
            del config[section][key]
    return config


SG_COORDS = with_keys(SG, solver__coordinates_check="true", solver__coordinate_constants="1")
SG_MOVING = with_keys(SG, model__kink="moving_kink", model__velocity="0.3")

# row name -> (base config, another accepted value that changes some output)
CASES = {
    "kind": (with_keys(SG, model__c="1", chart__origin="0.5, -2"), "igsge"),
    "m": (CH, "0.25"),
    "period": (CH, "5"),
    "t_final": (CH, "0.3"),
    "nx": (CH, "18"),
    "nt": (CH, "3"),
    "cfl": (CH, "0.5"),
    "u0_offset": (CH, "0.3"),
    "u0_amplitude": (CH, "0.2"),
    "kink": (SG_MOVING, "static_kink"),
    "velocity": (SG_MOVING, "0.5"),
    "c": (with_keys(IGSGE, solver__l0="0, -1, 0, 1, 0, 0, 0, 0, 1"), "0.8, 0.6"),
    "field_file": (EXTERNAL, "{cosh_frame}"),
    "origin": (SG, "-2, -1.5"),
    "spacing": (with_keys(SG, chart__extent=None, chart__spacing="0.5, 0.5"), "0.5, 0.4"),
    "extent": (SG, "4, 5"),
    "counts": (SG, "9, 11"),
    "phi0": (with_keys(SG, solver__phi0="0.1"), "0.3"),
    "l0": (with_keys(IGSGE, solver__l0="1, 0, 0, 0, 1, 0, 0, 0, 1"), "0, -1, 0, 1, 0, 0, 0, 0, 1"),
    "base": (with_keys(SG, solver__base="4, 4"), "0, 0"),
    "coordinates_check": (SG, "true"),
    "coordinate_constants": (SG_COORDS, "2"),
    "order": (CH, "2"),
    "periodic_axis": (CH, "none"),
    "start_values": (with_keys(CH, hierarchy__periodic_axis=None, hierarchy__start_values="0.1"), "0.3"),
    "time_axis": (SG, "2"),
    "drift_tol": (with_keys(SG, conservation__drift_tol="1"), "1e-30"),
    "svg": (SG, "true"),
    "scales": (SG, "1, 3"),
    "order_floor": (SG, "100"),
    "gate_factor": (SG, "1e-30"),
    "orth_tol": (SG, "1e-30"),
    "det_rtol": (SG_COORDS, "0.5"),
    "directory": (SG, "elsewhere"),
}


class Runner:
    """Writes configs and runs the command line, each run in its own directory."""

    def __init__(self, tmp_path, monkeypatch, capsys):
        self.tmp, self.monkeypatch, self.capsys = tmp_path, monkeypatch, capsys
        self.frames = {"exp_frame": exp_metric_frame, "cosh_frame": cosh_metric_frame}
        self.count = 0

    def write(self, config):
        self.count += 1
        lines = []
        for section, entries in config.items():
            lines.append("[%s]" % section)
            lines += ["%s = %s" % item for item in entries.items()]
        text = "\n".join(lines) + "\n"
        for name, frame in self.frames.items():
            if "{%s}" % name in text:
                field = self.tmp / (name + ".pssfield")
                if not field.exists():
                    save_frame_data(field, frame(9))
                text = text.replace("{%s}" % name, str(field))
        path = self.tmp / ("%d.ini" % self.count)
        path.write_text(text)
        return str(path)

    def run(self, command, path, snapshot=False):
        """(exit code, stdout, stderr, {file: bytes}) of one run, checked.

        Every manifest is checked; the other files are read for a snapshot.
        The run writes into a fresh directory: --out, or the working
        directory when the config names its own output directory.
        """
        self.count += 1
        run_dir = self.tmp / ("run%d" % self.count)
        with open(path) as fh:
            text = fh.read()
        if "[output]" in text:
            run_dir.mkdir()
            self.monkeypatch.chdir(run_dir)
            argv = [command, "--config", path]
        else:
            argv = [command, "--config", path, "--out", str(run_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = self.capsys.readouterr()
        where = (command, text)
        assert code in (0, 1, 2), where
        assert not caught, (where, [str(w.message) for w in caught])
        assert "Traceback" not in err, where
        files = {}
        for root, _, names in os.walk(run_dir):
            for name in names:
                full = os.path.join(root, name)
                if name == "manifest.json":
                    files[os.path.relpath(full, run_dir)] = _checked_manifest(full, where)
                elif snapshot:
                    with open(full, "rb") as fh:
                        files[os.path.relpath(full, run_dir)] = fh.read()
        return code, out, err, files


def _non_finite(value):
    if isinstance(value, dict):
        return any(_non_finite(item) for item in value.values())
    if isinstance(value, list):
        return any(_non_finite(item) for item in value)
    if isinstance(value, float):
        return not math.isfinite(value)
    return value in ("nan", "inf", "-inf")


def _checked_manifest(path, where):
    """The manifest without its config digest and tolerances echo; a passing
    manifest holds only finite results."""
    with open(path) as fh:
        manifest = json.load(fh)
    results = manifest["results"]
    assert not (results.get("pass") is True and _non_finite(results)), (where, results)
    del manifest["config_sha256"], manifest["tolerances"]
    return json.dumps(manifest, sort_keys=True)


def _readers(row, config):
    """The commands that read row on config."""
    cfg = parse_config(config)
    commands = []
    for command in COMMANDS:
        try:
            labels = run_labels(cfg, command)
        except ConfigError:
            continue
        if not labels.isdisjoint(row.readers):
            commands.append(command)
    return commands


def _with_value(config, row, value):
    """config with the row's key set to value; in a list only the first entry."""
    rest = config.get(row.section, {}).get(row.name, "").split(",", 1)[1:]
    return with_keys(config, **{row.section + "__" + row.name: ",".join([value] + rest)})


@pytest.fixture(scope="session")
def snapshots():
    """Outputs by (command, config text), shared by the rows with one base."""
    return {}


def test_every_row_has_a_case():
    assert sorted(CASES) == sorted(row.name for row in KEYS)


@pytest.mark.parametrize("row", KEYS, ids=[row.name for row in KEYS])
def test_every_value_of_every_key(tmp_path, monkeypatch, capsys, snapshots, row):
    runner = Runner(tmp_path, monkeypatch, capsys)
    base, other = CASES[row.name]
    base_path = runner.write(base)
    commands = _readers(row, base_path)
    assert commands, row.name
    for value in VALUES:
        config = runner.write(_with_value(base, row, value))
        try:
            parse_config(config)
        except ConfigError:
            # every command parses first, so one of them shows the refusal
            runs = commands[:1]
        else:
            runs = [] if row.name in SIZING else commands
        for command in runs:
            code, _, err, _ = runner.run(command, config)
            if code == 2:  # one line naming the key (a field file names itself)
                key = value if row.name == "field_file" else "[%s] %s" % (row.section, row.name)
                assert err.startswith("config error: " + key) and err.count("\n") == 1, err
    # the key changes some output (exit code, stdout or a file) of some
    # command that reads it
    changed = runner.write(with_keys(base, **{row.section + "__" + row.name: other}))

    def outputs(command, config):
        with open(config) as fh:
            key = (command, fh.read())
        if key not in snapshots:
            code, out, _, files = runner.run(command, config, snapshot=True)
            snapshots[key] = code, out, files
        return snapshots[key]

    assert any(outputs(c, base_path) != outputs(c, changed) for c in commands), row.name


CH_OPEN = with_keys(CH, hierarchy__periodic_axis=None)


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("verify", with_keys(CH, model__m="nan"), "[model] m"),
        ("verify", with_keys(CH, model__period="nan"), "[model] period"),
        ("verify", with_keys(CH, model__t_final="inf"), "[model] t_final"),
        ("verify", with_keys(CH, model__cfl="-1"), "[model] cfl"),
        ("verify", with_keys(SG_MOVING, model__velocity="1.5"), "[model] velocity"),
        ("verify", with_keys(SG_MOVING, model__velocity="nan"), "[model] velocity"),
        ("verify", with_keys(IGSGE, model__c="nan, 0.8"), "[model] c"),
        ("conserve", with_keys(SG, conservation__time_axis="5"), "[conservation] time_axis"),
        ("converge", with_keys(SG, convergence__scales="1, 0"), "[convergence] scales"),
        ("converge", with_keys(SG, convergence__scales="1, 1"), "[convergence] scales"),
        ("solve-frame", with_keys(SG, solver__phi0="nan"), "[solver] phi0"),
        # past the solvers' own bound 1e-12 the key did nothing
        ("solve-frame", with_keys(SG, tolerances__orth_tol="1e-6"), "[tolerances] orth_tol"),
        (
            "solve-frame",
            with_keys(SG_COORDS, solver__coordinate_constants="nan"),
            "[solver] coordinate_constants",
        ),
        ("hierarchy", with_keys(CH_OPEN, hierarchy__start_values="nan"), "[hierarchy] start_values"),
    ],
    ids=[
        "m-nan", "period-nan", "t_final-inf", "cfl--1", "velocity-1.5", "velocity-nan", "c-nan",
        "time_axis-5", "scales-1-0", "scales-1-1", "phi0-nan", "orth_tol-1e-6",
        "coordinate_constants-nan",
        "start_values-nan",
    ],
)
def test_values_that_crashed_or_ran_exit_2_naming_their_key(
    tmp_path, monkeypatch, capsys, command, config, key
):
    runner = Runner(tmp_path, monkeypatch, capsys)
    code, _, err, _ = runner.run(command, runner.write(config))
    assert code == 2
    assert err.startswith("config error: %s: " % key) and err.count("\n") == 1, err


def test_orth_tol_names_the_solvers_bound(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[tolerances]\north_tol = 1.5e-12\n")
    with pytest.raises(ConfigError, match=r"orth_tol: .*at most 1e-12.*got 1\.5e-12"):
        parse_config(str(path))


def test_readme_config_reference_matches_the_table():
    with open(README) as fh:
        text = fh.read()
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", text, re.M)
    assert sorted(rows) == sorted((row.section, row.name) for row in KEYS)


def test_readme_example_configs_parse(tmp_path):
    with open(README) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 2  # kink.ini and ch.ini
    for index, block in enumerate(blocks):
        path = tmp_path / ("%d.ini" % index)
        path.write_text(block)
        parse_config(str(path))
