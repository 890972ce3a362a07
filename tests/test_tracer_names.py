"""Every name the benchmark's tracer wraps still exists in etlab, so a
refactor that deletes or renames a traced function fails here rather than in
a benchmark run.  Only ``perfbench/tracer.py`` is read; it is loaded from its
file, since ``perfbench`` is not a package."""

import importlib.util
from pathlib import Path

import pytest

import etlab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in tracer.FUNCTIONS.items()
                                         for name in names])
def test_traced_function_exists(layer, name):
    assert callable(getattr(getattr(etlab, layer), name))


@pytest.mark.parametrize("layer, cls, method", [m[:3] for m in tracer.METHODS])
def test_traced_method_exists(layer, cls, method):
    assert callable(getattr(getattr(etlab, layer), cls).__dict__[method])
