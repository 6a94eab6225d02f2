"""What loads scipy: only the dense Cholesky filter solve does.

The closed-form limits need numpy alone, so importing the package and
running the limit-only commands must leave scipy unloaded; the first dense
Monte Carlo solve loads it. Each check runs in a fresh interpreter, since
this test process already holds scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ulmimo

SRC = Path(ulmimo.__file__).resolve().parents[1]

# prints whether scipy was loaded once the snippet before it has run
_REPORT = "\nimport sys\nprint('scipy' in sys.modules)\n"


def scipy_loaded_after(code: str) -> bool:
    proc = subprocess.run([sys.executable, "-c", code + _REPORT],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def cli_run(out: Path, *argv: str) -> str:
    return ("from ulmimo import cli\n"
            f"assert cli.main({[*argv, '--out', str(out)]!r}) == 0")


@pytest.mark.parametrize("code", ["import ulmimo", "import ulmimo.cli"])
def test_import_leaves_scipy_unloaded(code):
    assert not scipy_loaded_after(code)


@pytest.mark.parametrize("argv", [
    ("asymptotic", "--scenario", "idealized-01"),
    ("rategap", "--scenario", "idealized-01"),
    ("rates", "--scenario", "cost231-7cell"),
], ids=["asymptotic", "rategap", "rates"])
def test_limit_only_runs_leave_scipy_unloaded(tmp_path, argv):
    assert not scipy_loaded_after(cli_run(tmp_path / "o", *argv))
    assert (tmp_path / "o" / f"{argv[0]}.csv").exists()


def test_dense_solve_loads_scipy_with_unchanged_output(tmp_path):
    # at alpha = 1 and M = 8, K = M and every MMSE solve takes the dense path
    argv = ("montecarlo", "--scenario", "idealized-01", "--antennas", "8",
            "--alpha", "1.0", "--trials", "4", "--estimate", "noisy")
    assert scipy_loaded_after(cli_run(tmp_path / "lazy", *argv))
    assert scipy_loaded_after("import scipy.linalg.lapack\n"
                              + cli_run(tmp_path / "eager", *argv))
    lazy = (tmp_path / "lazy" / "montecarlo.csv").read_bytes()
    assert lazy == (tmp_path / "eager" / "montecarlo.csv").read_bytes()
