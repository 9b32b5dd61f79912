"""Every name the benchmark tracer (bench/tracer.py) rebinds still exists.

A traced benchmark run rebinds these names in ``qdid`` and fails when one
is gone, so a source change that removes or renames one must show here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qdid import empirical

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module, name", [(m, a) for m, a, _ in tracer.FUNCTIONS], ids=str
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "cls, name", [(c, a) for c, a, _ in tracer.METHODS], ids=str
)
def test_traced_method_is_defined_on_its_class(cls, name):
    assert name in vars(getattr(empirical, cls))
