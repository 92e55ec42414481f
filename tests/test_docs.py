"""The documented API: README's Python quickstart runs, every exported name resolves."""

import re
from pathlib import Path

import pytest

import pssframe
import pssframe.models

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
