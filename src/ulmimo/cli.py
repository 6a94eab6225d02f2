"""Command-line surface: parse a scenario, run one experiment, emit CSVs.

Commands map one-to-one onto the experiment runners; ``validate`` runs a
quick invariant self-check. Every run writes its manifest next to the
CSVs, and on one numpy/OpenBLAS build and CPU the manifest (command,
scenario hash, seed if the command reads one, overrides) fully determines
every output byte. A run exits 0, or with the ``exit_code`` of the
``ulmimo.errors`` type that ended it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, validate
from .errors import InvalidInputError, NumericalError
from .experiments import ALL_FILTERS, ESTIMATE_MODES, write_csv
from .scenario import (Scenario, parse_scenario, scenario_hash,
                       serialize_scenario)
from .workers import set_blas_threads

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

# --scenario, --seed and --out have manifest fields of their own; the run
# flags sit under "overrides". Every argparse default is None: a flag left
# out takes its value here before the manifest is written, but --alpha and
# --trials stay None there and the command's grid and _DEFAULT_TRIALS run.
_BASE = ("scenario", "seed", "out")
_RUN_FLAGS = ("alpha", "antennas", "trials", "estimate", "filters")
_FLAG_DEFAULTS = {"scenario": "idealized-01", "seed": 0, "out": "out",
                  "antennas": 50, "estimate": "noiseless",
                  "filters": ",".join(ALL_FILTERS)}
_DEFAULT_TRIALS = 500

# One entry per command: the flags it reads (any other flag given exits 2),
# the --alpha grid it runs when --alpha is left out, and its runner, called
# with the arguments (the grid resolved into args.grid) and the scenario to
# give the rows of <command>.csv. rates simulates, and so reads --antennas
# and --estimate, only with --trials (see _resolve_flags). asymptotic and
# rategap draw nothing and so read no --seed. validate reads no flag, runs
# its fixed checks and writes nothing.
_SIMULATION = ("antennas", "trials", "estimate")
COMMANDS = {
    "asymptotic": (
        ("scenario", "out", "alpha"),
        [round(0.05 * i, 2) for i in range(1, 31)],
        lambda args, sc: experiments.asymptotic_sweep(sc, args.grid)),
    "montecarlo": (
        (*_BASE, "alpha", *_SIMULATION, "filters"), [0.2, 0.5, 1.0],
        lambda args, sc: experiments.monte_carlo_result(
            sc, args.antennas, args.grid, _trials(args),
            _split_list("filters", args.filters, str), args.estimate,
            args.seed)),
    "percentile": (
        (*_BASE, "alpha", *_SIMULATION), [0.2, 0.5, 1.0],
        lambda args, sc: experiments.percentile_sweep(
            sc, args.antennas, args.grid, _trials(args), args.estimate,
            args.seed)),
    "rates": (
        (*_BASE, "alpha", "trials"), [round(0.1 * i, 1) for i in range(1, 11)],
        lambda args, sc: experiments.rate_table(
            sc, args.antennas, args.grid, args.trials, args.estimate,
            args.seed)),
    "rategap": (
        ("scenario", "out", "alpha"), [0.2, 0.4, 0.6, 0.8, 1.0],
        lambda args, sc: experiments.rate_gap_sweep(
            sc, args.grid, [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1])),
    "validate": ((), None, None),
}


def _split_list(flag: str, text: str, parse) -> list:
    """The comma-separated entries of ``--flag``; an empty entry is refused."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise InvalidInputError(f"--{flag} has an empty entry in {text!r}")
    try:
        return [parse(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidInputError(f"could not parse list {text!r}") from exc


def _trials(args) -> int:
    return _DEFAULT_TRIALS if args.trials is None else args.trials


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulmimo",
        description="Uplink multi-cell MIMO: large-system SINR and Monte Carlo")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--scenario",
                        help="scenario file path or bundled scenario name")
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--alpha", help="comma-separated loading values")
    parser.add_argument("--antennas", type=int, metavar="M")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--estimate", choices=ESTIMATE_MODES)
    parser.add_argument("--filters",
                        help="comma-separated subset of mf,mmse,mmse-perfect "
                             "(montecarlo only)")
    return parser


def _manifest(args, scenario: Scenario) -> dict:
    """The run's inputs; "seed" only for a command that reads --seed."""
    manifest = {
        "schema": 1,
        "tool": "ulmimo",
        "version": __version__,
        "command": args.command,
        "scenario_path": str(args.scenario),
        "scenario_name": scenario.name,
        "scenario_sha": scenario_hash(scenario),
        "out_dir": str(args.out),
        "overrides": {flag: getattr(args, flag) for flag in _RUN_FLAGS},
    }
    if "seed" in COMMANDS[args.command][0]:
        manifest["seed"] = int(args.seed)
    return manifest


def _resolve_flags(args) -> None:
    """Refuse flags the command does not read, then fill in defaults."""
    reader, reads = args.command, COMMANDS[args.command][0]
    if reader == "rates":
        simulates = args.trials is not None
        reader += " with --trials" if simulates else " without --trials"
        reads += ("antennas", "estimate") if simulates else ()
    for flag in (*_BASE, *_RUN_FLAGS):
        if getattr(args, flag) is not None and flag not in reads:
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
    """Check every input and run; only then write the outputs, all under
    temporary names first, so that a failed write leaves the old files as
    they were. manifest.json is renamed into place last."""
    _resolve_flags(args)
    _, alphas, run = COMMANDS[args.command]
    if run is None:  # validate
        return 0 if validate.run_all(print) else NumericalError.exit_code
    scenario = parse_scenario(args.scenario)
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    args.grid = (alphas if args.alpha is None
                 else _split_list("alpha", args.alpha, float))
    result = run(args, scenario)
    names = (f"{args.command}.csv", "scenario.json", "manifest.json")
    temps = [out_dir / f".{name}.tmp" for name in names]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(result, temps[0])
        temps[1].write_text(serialize_scenario(scenario))
        temps[2].write_text(json.dumps(_manifest(args, scenario), indent=2,
                                       sort_keys=True) + "\n")
        for temp, name in zip(temps, names):
            os.replace(temp, out_dir / name)
    except OSError as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise InvalidInputError(f"cannot write outputs: {exc}") from exc
    return 0


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
    set_blas_threads(1)  # the output bytes must not depend on BLAS threads
    args = build_parser().parse_args(argv)
    # numpy's float errors are raised, so an overflow or NaN ends the run
    # instead of reaching an output, and exit as a NumericalError does
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return dispatch(args)
    except (InvalidInputError, NumericalError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", NumericalError.exit_code)
