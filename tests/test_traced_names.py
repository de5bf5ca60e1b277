"""The benchmark's traced functions must exist in the program.

``perfbench/tracing.py`` wraps the functions named in ``TRACED`` from outside;
a traced name the program no longer defines makes every traced benchmark run
incorrect. This test reads that list and checks each name here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()


@pytest.mark.parametrize("module,attribute", tracing.TRACED,
                         ids=[f"{m}.{a}" for m, a in tracing.TRACED])
def test_traced_name_is_defined(module, attribute):
    owner = importlib.import_module("qfin." + module)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attribute, None))


def test_every_traced_module_imports():
    for module in tracing.MODULES:
        importlib.import_module("qfin." + module)
