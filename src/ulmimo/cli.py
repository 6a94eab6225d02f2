"""Command-line surface: parse a scenario, run one experiment, emit CSVs.

Commands map one-to-one onto the experiment runners; ``validate`` runs a
quick invariant self-check. Every run writes its manifest next to the
CSVs, and the manifest (command, scenario hash, seed, overrides) fully
determines every output byte. Exit codes: 0 success, 2 configuration
error, 3 fixed-point non-convergence, 4 other numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, experiments, validate
from .errors import (ConvergenceError, InvalidInputError, NumericalError)
from .experiments import ALL_FILTERS, ESTIMATE_MODES, write_csv
from .scenario import (Scenario, parse_scenario, scenario_hash,
                       serialize_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_NUMERICAL = 4

_DEFAULT_ALPHAS = {
    "asymptotic": [round(0.05 * i, 2) for i in range(1, 31)],
    "montecarlo": [0.2, 0.5, 1.0],
    "percentile": [0.2, 0.5, 1.0],
    "rates": [round(0.1 * i, 1) for i in range(1, 11)],
    "rategap": [0.2, 0.4, 0.6, 0.8, 1.0],
}
# glibc's mallopt parameters (<malloc.h>) and the values main sets. A Monte
# Carlo trial allocates and frees the same arrays, from tens of KB to about
# 2 MB at M = 50, on every trial. Left to glibc's dynamic thresholds, some
# of them are mapped and unmapped, or the heap top holding them is trimmed,
# and their pages fault back in on the next trial. 32 MiB is the highest
# value glibc's dynamic mmap threshold reaches on 64-bit hosts; it keeps in
# the heap every per-trial array up to a (B, K, M) channel of 7 cells at
# M = 500 and alpha = 1. The trim threshold is twice it, the ratio glibc
# keeps when it raises the threshold itself.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 * 2 ** 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES

# The run flags each command reads (--scenario, --seed and --out are not run
# flags). A run flag given to a command that does not read it is refused.
# rates simulates, and so reads --antennas and --estimate, only with --trials.
_RUN_FLAGS = ("alpha", "antennas", "trials", "estimate", "filters")
FLAGS_READ = {
    "asymptotic": ("alpha",),
    "montecarlo": _RUN_FLAGS,
    "percentile": ("alpha", "antennas", "trials", "estimate"),
    "rates without --trials": ("alpha",),
    "rates with --trials": ("alpha", "antennas", "trials", "estimate"),
    "rategap": ("alpha",),
    "validate": (),
}
# values of the run flags left out, filled in before the run and recorded
# in the manifest; the default --alpha grids and trial count are not recorded
_FLAG_DEFAULTS = {"antennas": 50, "estimate": "noiseless",
                  "filters": ",".join(ALL_FILTERS)}
_DEFAULT_TRIALS = 500
_DEFAULT_BETA_GRID = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]


def _parse_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"could not parse list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmimo",
        description="Uplink multi-cell MIMO: large-system SINR and Monte Carlo")
    parser.add_argument("command",
                        choices=["asymptotic", "montecarlo", "percentile",
                                 "rates", "rategap", "validate"])
    parser.add_argument("--scenario", default="idealized-01",
                        help="scenario file path or bundled scenario name")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--alpha", default=None,
                        help="comma-separated loading values")
    parser.add_argument("--antennas", type=int, metavar="M")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--estimate", choices=ESTIMATE_MODES)
    parser.add_argument("--filters",
                        help="comma-separated subset of mf,mmse,mmse-perfect "
                             "(montecarlo only)")
    return parser


def _manifest(args, scenario: Scenario) -> dict:
    return {
        "schema": 1,
        "tool": "ulmimo",
        "version": __version__,
        "command": args.command,
        "scenario_path": str(args.scenario),
        "scenario_name": scenario.name,
        "scenario_sha": scenario_hash(scenario),
        "seed": int(args.seed),
        "out_dir": str(args.out),
        "overrides": {flag: getattr(args, flag) for flag in _RUN_FLAGS},
    }


def _resolve_flags(args) -> None:
    """Refuse run flags the command does not read, then fill in defaults."""
    reader = args.command
    if reader == "rates":
        reader += " without --trials" if args.trials is None else " with --trials"
    for flag in _RUN_FLAGS:
        if getattr(args, flag) is not None and flag not in FLAGS_READ[reader]:
            raise InvalidInputError(f"--{flag} is not read by {reader}")
    for flag, value in _FLAG_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, value)


def _check_out_dir(out_dir: Path) -> None:
    """Refuse, without making it, a directory mkdir could not make."""
    ancestor = out_dir.absolute()
    try:
        # a dangling symlink stops the walk: mkdir could not make it
        while not (ancestor.exists() or ancestor.is_symlink()):
            ancestor = ancestor.parent
        if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
            raise OSError(f"{ancestor} is not a writable directory")
    except OSError as exc:
        raise InvalidInputError(
            f"cannot create output directory {out_dir}: {exc}") from exc


def dispatch(args) -> int:
    """Check every input, run, and only then create the output directory."""
    if not 0 <= args.seed < 2 ** 64:
        raise InvalidInputError("--seed must lie in [0, 2**64)")
    _resolve_flags(args)
    scenario = parse_scenario(args.scenario)
    if args.command == "validate":
        return EXIT_OK if validate.run_all(print) else EXIT_NUMERICAL
    out_dir = Path(args.out)
    _check_out_dir(out_dir)

    filters = tuple(tok for tok in args.filters.split(",") if tok)
    if not filters:
        raise InvalidInputError("--filters must name at least one filter")

    alphas = (_DEFAULT_ALPHAS[args.command] if args.alpha is None
              else _parse_list(args.alpha))
    trials = _DEFAULT_TRIALS if args.trials is None else args.trials

    if args.command == "asymptotic":
        result = experiments.asymptotic_sweep(scenario, alphas)
        outputs = {"asymptotic.csv": result}
    elif args.command == "montecarlo":
        result = experiments.monte_carlo_result(
            scenario, args.antennas, alphas, trials, filters,
            args.estimate, args.seed)
        outputs = {"montecarlo.csv": result}
    elif args.command == "percentile":
        result = experiments.percentile_sweep(
            scenario, args.antennas, alphas, trials, args.estimate, args.seed)
        outputs = {"percentile.csv": result}
    elif args.command == "rates":
        result = experiments.rate_table(
            scenario, args.antennas, alphas, args.trials, args.estimate,
            args.seed)
        outputs = {"rates.csv": result}
    elif args.command == "rategap":
        result = experiments.rate_gap_sweep(scenario, alphas,
                                            _DEFAULT_BETA_GRID)
        outputs = {"rategap.csv": result}
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInputError(f"unknown command {args.command!r}")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for fname, res in outputs.items():
            write_csv(res, out_dir / fname)
        (out_dir / "manifest.json").write_text(
            json.dumps(_manifest(args, scenario), indent=2, sort_keys=True)
            + "\n")
        (out_dir / "scenario.json").write_text(serialize_scenario(scenario))
    except OSError as exc:
        raise InvalidInputError(f"cannot write outputs: {exc}") from exc
    return EXIT_OK


@functools.cache
def _steady_heap() -> None:
    """Fix the C heap's mmap and trim thresholds, once per process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # no mallopt: the allocator keeps its own policy
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _steady_heap()
    args = build_parser().parse_args(argv)
    try:
        code = dispatch(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONVERGENCE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
