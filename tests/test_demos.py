"""Smoke test of the demo scripts: each exits 0 and prints its snapshot.

The snapshots under ``tests/data/demos`` are the scripts' stdout at the
time they were recorded; the demos are seeded, so any change in their
output is a change in the library behaviour they exercise.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOTS = Path(__file__).parent / "data" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_snapshot():
    assert [d.stem for d in DEMOS] == sorted(
        s.stem for s in SNAPSHOTS.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_snapshot(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (SNAPSHOTS / f"{demo.stem}.txt").read_text()
