"""What a run loads, what its output depends on, and what it costs the heap.

ulmimo needs numpy alone: importing the package and running any command
must leave scipy, which only the tests use, unloaded, and logging too,
which only a clamped link gain reports with; the package root loads none
of its submodules. The project's declared dependencies must
match what the code imports, and its ``test`` extra what the tests import
beyond them. A run's output bytes must not depend on the BLAS thread
count, and the CLI fixes the heap thresholds so a trial's arrays are not
unmapped and faulted back in on every trial. Each run-time
check runs in a fresh interpreter, since this test process already holds
scipy.
"""

import ast
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ulmimo

SRC = Path(ulmimo.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, **env: str) -> str:
    """Run code in a fresh interpreter importing this ulmimo, with env added
    to the environment; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def unwanted_modules_after(code: str) -> list[str]:
    """Which of scipy and logging are loaded once code has run; a run must
    leave both unloaded."""
    report = ("\nimport sys\n"
              "print(*[m for m in ('scipy', 'logging') if m in sys.modules])\n")
    return run_fresh(code + report).splitlines()[-1].split()


def cli_run(out: Path, *argv: str) -> str:
    return ("from ulmimo import cli\n"
            f"assert cli.main({[*argv, '--out', str(out)]!r}) == 0")


def test_import_leaves_scipy_unloaded():
    assert unwanted_modules_after("import ulmimo.cli") == []


def test_bare_import_loads_no_submodule():
    # names are imported from their modules; the package root re-exports none
    out = run_fresh("import sys, ulmimo\n"
                    "print([m for m in sys.modules if m.startswith('ulmimo.')])")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("asymptotic", "--scenario", "idealized-01"),
    ("rategap", "--scenario", "idealized-01"),
    ("rates", "--scenario", "cost231-7cell"),
], ids=["asymptotic", "rategap", "rates"])
def test_limit_only_runs_leave_scipy_unloaded(tmp_path, argv):
    assert unwanted_modules_after(cli_run(tmp_path / "o", *argv)) == []
    assert (tmp_path / "o" / f"{argv[0]}.csv").exists()


# at alpha = 1, K = M and every MMSE solve takes the dense path
@pytest.mark.parametrize("argv", [
    ("montecarlo", "--antennas", "8", "--alpha", "1.0", "--trials", "4",
     "--estimate", "noisy"),
    ("percentile", "--antennas", "8", "--alpha", "1.0", "--trials", "20"),
], ids=["montecarlo", "percentile"])
def test_simulating_runs_leave_scipy_unloaded(tmp_path, argv):
    assert unwanted_modules_after(cli_run(tmp_path / "o", *argv)) == []
    assert (tmp_path / "o" / f"{argv[0]}.csv").exists()


@pytest.mark.parametrize("estimate", ["noiseless", "training"])
def test_output_bytes_do_not_depend_on_blas_threads(tmp_path, estimate):
    # at M = 128 a threaded BLAS splits the filters' products between threads,
    # and in training mode the stacked per-cell products of the estimator
    argv = ("montecarlo", "--scenario", "idealized-01", "--antennas", "128",
            "--alpha", "1.0", "--trials", "5", "--estimate", estimate)
    for threads in ("1", "2"):
        run_fresh(cli_run(tmp_path / threads, *argv),
                  OPENBLAS_NUM_THREADS=threads)
    csv = [(tmp_path / t / "montecarlo.csv").read_bytes() for t in "12"]
    assert csv[0] == csv[1]


def _third_party_imports(package: Path) -> set[str]:
    """Top-level modules imported by any file under package, function-local
    imports included, less the standard library and ulmimo itself."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"ulmimo"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

    def names(requirements):
        return {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in requirements}

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = names(project["dependencies"])
    assert _third_party_imports(ROOT / "src" / "ulmimo") == runtime
    assert _third_party_imports(ROOT / "tests") == (
        runtime | names(project["optional-dependencies"]["test"]))


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_repeated_training_run_takes_no_page_faults_per_trial(tmp_path):
    # the first call warms the heap; the second must reuse it
    trials = 50
    argv = ["montecarlo", "--estimate", "training", "--alpha", "1.0",
            "--antennas", "50", "--trials", str(trials),
            "--out", str(tmp_path / "o")]
    out = run_fresh(f"""
import resource
from ulmimo import cli
assert cli.main({argv!r}) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main({argv!r}) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")
    assert int(out.split()[-1]) < trials
