"""Every layer the benchmark tracer wraps must still exist in ulmimo.

The tracer (``bench/tracer.py``) fails at trace time when a wrapped name
stops resolving; this check moves that failure into the test suite. The
tracer module is loaded read-only: nothing is wrapped or patched.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    name = "_ulmimo_bench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return sorted({(mod, attr) for _, mod, attr, _, _ in module.TARGETS})


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert callable(vars(owner).get(name)), f"{module}.{attr}"
