"""Drift gate for the closed-form sweeps.

The CSVs under ``tests/data/limits`` were written by ``asymptotic`` on the
three idealized scenarios (default grid) and ``rategap`` on idealized-01.
A refactor of the limit SINRs may change summation order, so every float
cell must stay within 1e-12 relative of its pinned value; every other
cell, and the header, must match exactly. ``asymptotic`` on idealized-01
is also pinned byte for byte.
"""

from pathlib import Path

import pytest

from ulmimo import cli

DATA = Path(__file__).parent / "data" / "limits"
REL_TOL = 1e-12

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
    assert got == (DATA / "asymptotic-idealized-01.csv").read_text()
