"""The documented API: README's Python quickstart runs, every exported name resolves."""

import importlib
import re
from pathlib import Path

import pytest

import pssframe
import pssframe.models
from pssframe import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("### Python quickstart") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed[1:]] == ["solve", "conserve"]


@pytest.mark.parametrize("module", [pssframe, pssframe.models], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _section(title, end):
    text = README.read_text()
    start = text.index(title)
    return text[start : text.index(end, start)]


def _names(text):
    """Backticked identifiers and dotted names in text; shapes and formats are skipped."""
    return re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", text)


def _resolve(owner, dotted):
    """True when every part of dotted resolves from owner (an attribute or a
    dataclass field)."""
    for part in dotted.split("."):
        if hasattr(owner, part):
            owner = getattr(owner, part)
        elif part in getattr(owner, "__dataclass_fields__", {}):
            owner = None
        else:
            return False
    return True


def _tour_rows():
    """(module, contract text) per row of the README Library tour table."""
    rows = []
    for line in _section("## Library tour", "### Python quickstart").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
        if len(cells) == 2 and cells[0].startswith("`pssframe"):
            rows.append((importlib.import_module(cells[0].strip("`")), cells[1]))
    return rows


def test_library_tour_names_resolve_in_their_row_module():
    rows = _tour_rows()
    assert len(rows) >= 9
    unresolved = []
    for module, contract in rows:
        for name in _names(contract):
            # a dotted name may also be module.name of another pssframe module
            if not (_resolve(module, name) or "." in name and _resolve(pssframe, name)):
                unresolved.append((module.__name__, name))
    assert unresolved == []


def test_removed_names_are_gone():
    removed = _section("Removed from the API", "### Python quickstart")
    dotted = [name for name in _names(removed) if "." in name]
    assert "frames.FrameRotationField" in dotted
    assert {
        "rotation_solver.CoordinateCheck.max_bracket",
        "rotation_solver.CoordinateCheck.valid_fraction",
        "rotation_solver.structure_threshold",
    } <= set(dotted)
    for name in dotted:
        assert not _resolve(pssframe, name), name
        assert not _resolve(importlib.import_module("pssframe.models"), name), name


def test_readme_converge_columns_are_the_header_converge_writes(tmp_path):
    documented = re.search(r"\*\*`converge\.csv`\*\* — rows `([^`]+)`", README.read_text())
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\nkind = sine_gordon\n\n[chart]\norigin = -4, -4\nextent = 8, 8\n"
        "counts = 9, 9\n\n[convergence]\nscales = 1, 2\n"
    )
    cli.main(["converge", "--config", str(config), "--out", str(tmp_path / "out")])
    header = (tmp_path / "out" / "converge.csv").read_text().splitlines()[0]
    assert header == documented.group(1)
