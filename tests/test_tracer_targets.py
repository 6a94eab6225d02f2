"""The benchmark's contract with ulmimo, checked inside the test suite.

The tracer (``bench/tracer.py``) fails at trace time when a wrapped name
stops resolving or a layer a workload runs records no calls, and the gate
(``bench/gate.py``) fails a call whose outputs drift from ``bench/refs``.
These checks move both failures into the test suite: every traced name
must resolve, one traced CLI call per workload at the default seed must
exercise its layers and match its stored references, and one untraced call
per workload at the holdout seed must match its references too, as the
benchmark's warm-up call does. The benchmark
modules are loaded read-only; the trace wraps and then restores the
package's functions exactly as a traced benchmark call does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ulmimo import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(stem):
    name = f"_ulmimo_bench_{stem}"
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


tracer, gate, workloads = _load("tracer"), _load("gate"), _load("workloads")


def _targets():
    return sorted({(mod, attr) for _, mod, attr, _, _ in tracer.TARGETS})


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert callable(vars(owner).get(name)), f"{module}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_matches_references(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    out = tmp_path / "out"
    trace = tracer.Trace()
    with trace.installed():
        assert cli.main(workload.cli_args(seed, out)) == 0
    tracer.check_exercised(trace, workload.exercised)
    refs = gate.load_references(BENCH / "refs", name)
    problems, _ = gate.Gate(refs).check(out, seed)
    assert problems == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_holdout_workload_matches_references(tmp_path, name):
    seed = workloads.HOLDOUT_SEED
    out = tmp_path / "out"
    assert cli.main(workloads.WORKLOADS[name].cli_args(seed, out)) == 0
    refs = gate.load_references(BENCH / "refs", name)
    problems, _ = gate.Gate(refs).check(out, seed)
    assert problems == []
