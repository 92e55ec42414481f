"""The names the benchmark's tracer spans by name still resolve in pssframe.

`perfbench/spans.py` wraps each `(module, function)` of its LAYERS table and
counts `EtaSeries.__mul__` by name; a refactor that drops one of them would
break only a traced benchmark run.  The file is read, not imported, so no
bytecode is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_spanned_layer_resolves(spans):
    missing = []
    for module_name, func, work in spans.LAYERS:
        module = importlib.import_module("pssframe." + module_name)
        if not callable(getattr(module, func, None)):
            missing.append("%s.%s" % (module_name, func))
        assert work is None or work in spans.WORK
    assert missing == []
    assert set(spans.TOP_LEVEL) <= set(spans.SPAN_NAMES)


def test_the_counted_product_resolves_and_tracing_restores_it(spans):
    series = importlib.import_module("pssframe.hierarchy").EtaSeries
    mul = series.__dict__["__mul__"]
    assert callable(mul)
    with spans.traced(spans.Tracer()):
        assert series.__dict__["__mul__"] is not mul
    assert series.__dict__["__mul__"] is mul
