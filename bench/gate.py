"""Correctness gate: compare one CLI call's output directory with references.

References live in ``refs/<workload>/seed-<n>/``, one file per output,
CSVs gzip-compressed. A call at a reference seed is checked exactly:
float CSV cells within 1e-12 relative (the drift allowed for batched
BLAS), every other CSV byte equal, ``scenario.json`` byte-equal and
``manifest.json`` byte-equal except ``out_dir``. A call at any other seed
is checked for shape: the same files, headers equal up to the seed, the
cells that do not depend on the seed byte-equal, every other cell a finite
float, and the manifest byte-equal except ``out_dir`` and ``seed``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-12


class Reference:
    """Stored outputs of one workload at one master seed."""

    def __init__(self, directory: Path):
        self.seed = int(directory.name.removeprefix("seed-"))
        self.files: dict[str, str] = {}
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            name = path.name
            if name.endswith(".gz"):
                name, data = name[:-3], gzip.decompress(data)
            self.files[name] = data.decode()


def load_references(ref_root: Path, workload: str) -> dict[int, Reference]:
    refs = [Reference(d) for d in sorted((ref_root / workload).glob("seed-*"))]
    return {r.seed: r for r in refs}


def _is_float_cell(cell: str) -> bool:
    # write_csv prints floats with repr() and ints with str().
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


def _float_close(got: str, ref: str) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == ref
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.split("\n")[2:] if line]


def seed_free_columns(csv_texts: list[str]) -> set[int]:
    """Columns whose cells are byte-equal across references of different seeds."""
    tables = [_rows(t) for t in csv_texts]
    width = len(tables[0][0])
    return {j for j in range(width)
            if all(len(t) == len(tables[0]) and
                   all(r[j] == r0[j] for r, r0 in zip(t, tables[0]))
                   for t in tables[1:])}


def _compare_csv(name, got, ref, ref_seed, seed, free) -> list[str]:
    """``free`` None compares exactly; otherwise only columns in ``free``
    must match and the rest must be finite floats."""
    got_lines, ref_lines = got.split("\n"), ref.split("\n")
    header = ref_lines[0].replace(f" seed={ref_seed} ", f" seed={seed} ", 1)
    if got_lines[0] != header or got_lines[1] != ref_lines[1]:
        return [f"{name}: header differs"]
    got_rows, ref_rows = _rows(got), _rows(ref)
    if len(got_rows) != len(ref_rows) or not got.endswith("\n"):
        return [f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got_rows, ref_rows)):
        if len(g) != len(r):
            problems.append(f"{name} row {i}: {len(g)} cells, reference {len(r)}")
            continue
        for j, (gc, rc) in enumerate(zip(g, r)):
            if free is None:
                ok = _float_close(gc, rc) if _is_float_cell(rc) else gc == rc
            else:
                ok = gc == rc if j in free else _finite(gc)
            if not ok:
                problems.append(f"{name} row {i} col {j}: {gc!r} vs {rc!r}")
        if len(problems) > 5:
            break
    return problems


def _manifest_key_line(key: str, text: str) -> str:
    return f'"{key}": {json.dumps(json.loads(text)[key])}'


def _compare_manifest(got: str, ref: str, keys) -> list[str]:
    try:
        for key in keys:
            got = got.replace(_manifest_key_line(key, got),
                              _manifest_key_line(key, ref), 1)
    except (ValueError, KeyError) as exc:
        return [f"manifest.json: unreadable ({exc})"]
    return [] if got == ref else ["manifest.json: differs"]


class Gate:
    """Checks a workload's output directories against its references."""

    def __init__(self, refs: dict[int, Reference]):
        """``refs`` holds at least two seeds, to tell which cells depend on it."""
        self.refs = refs
        self.csv_names = sorted(n for n in next(iter(refs.values())).files
                                if n.endswith(".csv"))
        self.free = {n: seed_free_columns([r.files[n] for r in refs.values()])
                     for n in self.csv_names}

    def check(self, out_dir: Path, seed: int) -> tuple[list[str], str]:
        """Problems found, and a fingerprint of the seed-dependent output."""
        ref = self.refs.get(seed)
        exact = ref is not None
        ref = ref or next(iter(self.refs.values()))
        got = {}
        for name in ref.files:
            try:
                got[name] = (out_dir / name).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                return [f"{name}: unreadable ({exc})"], ""
        problems = []
        if got["scenario.json"] != ref.files["scenario.json"]:
            problems.append("scenario.json: differs")
        problems += _compare_manifest(got["manifest.json"], ref.files["manifest.json"],
                                      ["out_dir"] if exact else ["out_dir", "seed"])
        for name in self.csv_names:
            problems += _compare_csv(name, got[name], ref.files[name], ref.seed,
                                     seed, None if exact else self.free[name])
        return problems, self._fingerprint(got)

    def _fingerprint(self, files: dict[str, str]) -> str:
        """Hash of the CSV bodies, which leave out the header with the seed."""
        digest = hashlib.sha256()
        for name in self.csv_names:
            digest.update(files[name].split("\n", 1)[-1].encode())
        return digest.hexdigest()

    def reference_fingerprints(self) -> set[str]:
        return {self._fingerprint(r.files) for r in self.refs.values()}
