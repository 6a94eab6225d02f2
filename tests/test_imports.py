"""What loads scipy, and what a Monte Carlo run costs the C heap.

The closed-form limits need numpy alone, so importing the package and
running the limit-only commands must leave scipy unloaded. The first dense
Monte Carlo solve loads scipy's compiled LAPACK module by itself, never
``scipy.linalg``'s package init, and the CLI fixes the heap thresholds so a
trial's arrays are not unmapped and faulted back in on every trial. Each
check runs in a fresh interpreter, since this test process already holds
scipy.linalg.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import ulmimo

SRC = Path(ulmimo.__file__).resolve().parents[1]


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter importing this ulmimo; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_loaded_after(code: str, module: str = "scipy") -> bool:
    """Whether ``module`` was loaded once code has run."""
    report = f"\nimport sys\nprint({module!r} in sys.modules)\n"
    return run_fresh(code + report).split()[-1] == "True"


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


def test_dense_run_leaves_scipy_linalg_package_unloaded(tmp_path):
    argv = ("montecarlo", "--scenario", "idealized-01", "--antennas", "8",
            "--alpha", "1.0", "--trials", "4")
    code = ("from ulmimo.montecarlo import _FLAPACK\n"
            + cli_run(tmp_path / "o", *argv)
            + "\nimport sys\nassert _FLAPACK in sys.modules")
    assert not scipy_loaded_after(code, "scipy.linalg")


def _hermitian_pd(rng, M):
    A = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    return A @ A.conj().T + 0.1 * np.eye(M)


def test_loaded_cholesky_matches_scipy_linalg_lapack(tmp_path):
    rng = np.random.default_rng(5)
    mats = [_hermitian_pd(rng, M) for M in (1, 8, 50)]
    mats.append(np.diag([1.0, -1.0, 2.0]).astype(complex))  # not PD
    rhs = [rng.standard_normal((len(S), 2)) + 1j * rng.standard_normal(
        (len(S), 2)) for S in mats]
    inputs = tmp_path / "in.npz"
    outputs = tmp_path / "out.npz"
    np.savez(inputs, *mats, *rhs)
    run_fresh(f"""
import sys
import numpy as np
from ulmimo.montecarlo import _flapack
assert "scipy.linalg" not in sys.modules
lp = _flapack()
assert "scipy.linalg" not in sys.modules
data = np.load({str(inputs)!r})
n = len(data.files) // 2
out = {{}}
for i in range(n):
    S, b = data[f"arr_{{i}}"], data[f"arr_{{i + n}}"]
    out[f"f{{i}}"], info = lp.zpotrf(S, lower=1, overwrite_a=0, clean=0)
    out[f"i{{i}}"] = np.array(info)
    if info == 0:
        out[f"x{{i}}"], out[f"j{{i}}"] = lp.zpotrs(out[f"f{{i}}"], b, lower=1)
np.savez({str(outputs)!r}, **out)
""")
    got = np.load(outputs)
    for i, (S, b) in enumerate(zip(mats, rhs)):
        factor, info = lapack.zpotrf(S, lower=1, overwrite_a=0, clean=0)
        assert int(got[f"i{i}"]) == info
        assert got[f"f{i}"].tobytes() == factor.tobytes()
        if info == 0:
            x, info2 = lapack.zpotrs(factor, b, lower=1)
            assert got[f"x{i}"].tobytes() == x.tobytes()
            assert int(got[f"j{i}"]) == info2
    assert int(got["i3"]) != 0  # the indefinite matrix is reported


def test_missing_lapack_extension_raises_import_error_naming_it(monkeypatch):
    import importlib.machinery

    from ulmimo import montecarlo
    monkeypatch.delitem(sys.modules, montecarlo._FLAPACK)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        montecarlo._flapack()


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
