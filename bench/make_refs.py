#!/usr/bin/env python3
"""Rewrite the correctness gate's reference outputs.

    python3 bench/make_refs.py

Runs every workload once at each reference seed, with BLAS pinned as in
run.py, and stores its outputs under ``bench/refs/<workload>/seed-<n>/``
(CSVs gzip-compressed). Only rewrite them for a change that is meant to
change the outputs, and say so in that change.
"""

import gzip
import os
import shutil
import sys

from run import BENCH, ROOT, WORK, import_cli  # pins BLAS threads on import
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    cli = import_cli()
    os.chdir(ROOT)
    out = WORK / "refs"
    for workload in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            shutil.rmtree(out, ignore_errors=True)
            # a relative --out keeps machine paths out of the stored manifest
            code = cli.main(workload.cli_args(seed, out.relative_to(ROOT)))
            if code != 0:
                print(f"{workload.name} seed {seed}: exit code {code}", file=sys.stderr)
                return 1
            dest = BENCH / "refs" / workload.name / f"seed-{seed}"
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for path in sorted(out.iterdir()):
                if path.suffix == ".csv":
                    (dest / f"{path.name}.gz").write_bytes(
                        gzip.compress(path.read_bytes(), mtime=0))
                else:
                    shutil.copyfile(path, dest / path.name)
            print(f"wrote {dest.relative_to(ROOT)}")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
