"""Drift gate for the closed-form sweeps.

The CSVs under ``tests/data/limits`` were written by ``asymptotic`` on the
three idealized scenarios (default grid) and ``rategap`` on idealized-01,
and their pilot-MMSE cells then rewritten from the 50-digit oracle (the
``det_eq_oracle`` fixture): each is the nearest float to the limit the
oracle computes, and ``rategap``'s gap takes the perfect-estimate SINR
the code computes. A refactor of the limit SINRs may change summation
order, so every float cell must stay within 1e-12 relative of its pinned
value; every other cell, and the header, must match exactly.
``asymptotic`` on idealized-01 is also pinned byte for byte, by SHA-256.
"""

import hashlib
from pathlib import Path

import mpmath
import pytest

from ulmimo import cli
from ulmimo.asymptotic import det_eq_sinr_rows
from ulmimo.geometry import idealized_gains
from ulmimo.scenario import parse_scenario

DATA = Path(__file__).parent / "data" / "limits"
REL_TOL = 1e-12
ASYMPTOTIC_IDEALIZED_01_SHA256 = (
    "617d83a0b8ad4e5a162afaa1bfcf462d63db5fca1cb9ef3b63fa27270213cda2")

RUNS = [
    ("asymptotic", "idealized-001", "asymptotic.csv"),
    ("asymptotic", "idealized-01", "asymptotic.csv"),
    ("asymptotic", "idealized-1", "asymptotic.csv"),
    ("rategap", "idealized-01", "rategap.csv"),
]


def _run(tmp_path, command, scenario, fname) -> str:
    out = tmp_path / "run"
    assert cli.main([command, "--scenario", scenario, "--out", str(out)]) == 0
    return (out / fname).read_text()


@pytest.mark.parametrize("command,scenario,fname", RUNS,
                         ids=[f"{c}-{s}" for c, s, _ in RUNS])
def test_floats_within_drift_allowance(tmp_path, command, scenario, fname):
    got = _run(tmp_path, command, scenario, fname).splitlines()
    want = (DATA / f"{command}-{scenario}.csv").read_text().splitlines()
    assert got[:2] == want[:2]
    assert len(got) == len(want)
    for got_line, want_line in zip(got[2:], want[2:]):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells)
        for g, w in zip(got_cells, want_cells):
            assert float(g) == pytest.approx(float(w), rel=REL_TOL, abs=0.0)


def test_idealized_01_asymptotic_byte_identical(tmp_path):
    got = _run(tmp_path, "asymptotic", "idealized-01", "asymptotic.csv")
    digest = hashlib.sha256(got.encode()).hexdigest()
    assert digest == ASYMPTOTIC_IDEALIZED_01_SHA256


@pytest.mark.parametrize("command,scenario", [run[:2] for run in RUNS],
                         ids=[f"{c}-{s}" for c, s, _ in RUNS])
def test_pilot_cells_are_the_oracle_limits(det_eq_oracle, command, scenario):
    sc = parse_scenario(scenario)
    for line in (DATA / f"{command}-{scenario}.csv").read_text().splitlines()[2:]:
        cells = [float(c) for c in line.split(",")]
        alpha = cells[0]
        beta = sc.gain_model.beta_other if command == "asymptotic" else cells[1]
        dist = idealized_gains(sc.cells, beta)
        pilot = det_eq_oracle(dist, alpha, sc.noise_var)[3][0]
        with mpmath.workdps(50):
            if command == "asymptotic":
                want = 10 * mpmath.log10(pilot)
            else:
                perfect = mpmath.mpf(float(
                    det_eq_sinr_rows(dist, alpha, sc.noise_var)[2][0]))
                want = mpmath.log(1 + perfect, 2) - mpmath.log(1 + pilot, 2)
            assert cells[2] == float(want), line
