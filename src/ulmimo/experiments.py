"""Experiment runners: sweeps over loading, percentiles, rates, CSV output.

Every runner is a pure function of (scenario, master seed, knobs), each
passed explicitly; trial randomness comes from per-(point, trial)
substreams so results do not depend on evaluation order and any emitted
row can be recomputed from the metadata in its CSV header.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotic import det_eq_sinr_rows, to_db
from .errors import InvalidInputError, check_count, check_real
from .fading import FadingDistribution
from .geometry import idealized_gains
from .montecarlo import (draw_channels, empirical_sinr,
                         generate_pilot_sequences, matched_filter,
                         mmse_filter_perfect, mmse_filter_pilot,
                         pilot_estimate_noiseless, pilot_estimate_noisy,
                         training_based_estimate, users_per_cell)
from .rng import check_seed, seed_substream
from .scenario import Scenario, scenario_hash
from .workers import cpu_count, run_blocks, split

CSV_SCHEMA = 1
MIN_PERCENTILE_SAMPLES = 20
# Caps checked before any draw. The B*K*M channel entries of one trial: 2**24
# complex entries are 256 MiB per (B, K, M) array, and a training trial at
# K = M peaks at five; it admits M = 1024 at alpha = 1.5 in 7 cells. The SINR
# samples of one sweep, loadings x filters x trials: 2**24 float64 are 128 MiB.
MAX_TRIAL_ENTRIES = 2 ** 24
MAX_SWEEP_SAMPLES = 2 ** 24
# The fewest channel entries, summed over its trials, that a block of a
# sweep draws. A forked worker costs its start and the pages it and this
# process then copy on write: on a 2-vCPU host (one BLAS thread each),
# noiseless sweeps at M = 50 and 100 broke even at 0.5-0.6M entries a block
# and training sweeps at M = 50 below 0.12M.
_BLOCK_MIN_ENTRIES = 500_000
# drops in the drop law of the percentile and rate runners
PERCENTILE_DROPS = 4000
RATE_DROPS = 10_000

FILTER_MF = "mf"
FILTER_MMSE = "mmse"
FILTER_MMSE_PERFECT = "mmse-perfect"
ALL_FILTERS = (FILTER_MF, FILTER_MMSE, FILTER_MMSE_PERFECT)

ESTIMATE_MODES = ("noiseless", "noisy", "training")

# unit of every CSV column a runner emits, written into the CSV header
COLUMN_UNITS = {
    "alpha": "ratio", "beta_other": "ratio", "filter": "-", "trial": "count",
    "sinr_db": "dB", "sinr_mf_pilot_db": "dB", "sinr_mmse_pilot_db": "dB",
    "sinr_mmse_perfect_db": "dB", "five_pct_mmse_mc_db": "dB",
    "five_pct_perfect_mc_db": "dB", "five_pct_mmse_det_db": "dB",
    "five_pct_perfect_det_db": "dB", "rate_gap": "bits/symbol",
    "rate_pilot": "bits/symbol", "rate_perfect": "bits/symbol",
    "rate_pilot_mc": "bits/symbol", "rate_perfect_mc": "bits/symbol",
}


@dataclass
class SweepResult:
    """Rows plus the metadata that makes them recomputable."""

    columns: list[str]
    rows: list[tuple]
    meta: dict[str, str]


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip representation
    return str(value)


def write_csv(result: SweepResult, path: str | Path) -> None:
    """One file per figure/table analog, with schema/seed/units in the header."""
    units = ",".join(f"{c}:{COLUMN_UNITS[c]}" for c in result.columns)
    meta = " ".join(f"{k}={v}" for k, v in sorted(result.meta.items()))
    with Path(path).open("w") as f:
        f.write(f"# ulmimo-csv schema={CSV_SCHEMA} {meta} units={units}\n")
        f.write(",".join(result.columns) + "\n")
        for row in result.rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def _base_meta(scenario: Scenario, seed) -> dict[str, str]:
    return {"scenario": scenario.name, "scenario_sha": scenario_hash(scenario),
            "seed": str(seed)}


def _simulation_meta(M: int, trials: int, estimate_mode: str) -> dict[str, str]:
    return {"antennas": str(M), "trials": str(trials),
            "estimate": estimate_mode}


def _check_alpha_grid(alpha_grid) -> list[float]:
    grid = [check_real("alpha", a) for a in alpha_grid]
    if not grid:
        raise InvalidInputError("alpha grid must be non-empty")
    if any(not 0.0 < a <= 1.5 for a in grid):
        raise InvalidInputError("alpha grid must lie in (0, 1.5]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("alpha grid must be strictly increasing")
    return grid


# ---------------------------------------------------------------------------
# closed-form sweeps
# ---------------------------------------------------------------------------

def _check_idealized(scenario: Scenario, runner: str) -> None:
    if not scenario.is_idealized:
        raise InvalidInputError(
            f"{runner} sweeps need an idealized scenario; use the "
            "percentile or rates runners for drop-based models")


def asymptotic_sweep(scenario: Scenario, alpha_grid) -> SweepResult:
    """Limiting SINR of the three receivers versus loading (idealized cells)."""
    _check_idealized(scenario, "asymptotic")
    grid = _check_alpha_grid(alpha_grid)
    dist = idealized_gains(scenario.cells, scenario.gain_model.beta_other)
    rows = []
    for a in grid:
        mf, pilot, perfect = det_eq_sinr_rows(dist, a, scenario.noise_var)
        rows.append((a, to_db(mf[0]), to_db(pilot[0]), to_db(perfect[0])))
    return SweepResult(
        columns=["alpha", "sinr_mf_pilot_db", "sinr_mmse_pilot_db",
                 "sinr_mmse_perfect_db"],
        rows=rows,
        meta=_base_meta(scenario, "none"),
    )


def rate_gap_sweep(scenario: Scenario, alpha_list, beta_other_grid) -> SweepResult:
    """Per-user rate lost to estimate contamination, idealized cells.

    Restricted to beta_other <= 0.1; above that both receivers are
    other-cell-interference limited and the comparison is uninformative.
    """
    _check_idealized(scenario, "rate-gap")
    alphas = _check_alpha_grid(alpha_list)
    betas = [check_real("beta_other", b) for b in beta_other_grid]
    if any(not 0.0 < b <= 0.1 for b in betas):
        raise InvalidInputError("beta_other grid must lie in (0, 0.1]")
    rows = []
    for a in alphas:
        for b in betas:
            _, pilot, perfect = det_eq_sinr_rows(
                idealized_gains(scenario.cells, b), a, scenario.noise_var)
            gap = np.log2(1.0 + perfect[0]) - np.log2(1.0 + pilot[0])
            rows.append((a, b, float(gap)))
    return SweepResult(
        columns=["alpha", "beta_other", "rate_gap"],
        rows=rows,
        meta=_base_meta(scenario, "none"),
    )


# ---------------------------------------------------------------------------
# Monte Carlo machinery
# ---------------------------------------------------------------------------

def _estimate_for_mode(real, mode: str, pilot_snr: float, rng):
    if mode == "noiseless":
        return pilot_estimate_noiseless(real)
    if mode == "noisy":
        return pilot_estimate_noisy(real, pilot_snr, rng)
    # "training"; monte_carlo_sweep checks the mode before any trial
    sequences = generate_pilot_sequences(real.K, real.B, rng)
    return training_based_estimate(real, sequences, pilot_snr, rng)


def run_trial(scenario: Scenario, K: int, M: int, mode: str, filters,
              rng_channel, rng_pilot) -> list[float]:
    """One trial of K users per cell: draw, estimate, filter, measure; one
    SINR per filter, in the order of ``filters``."""
    real = draw_channels(scenario, K, M, rng_channel)
    est = _estimate_for_mode(real, mode, scenario.pilot.pilot_snr, rng_pilot)
    sinrs = []
    for f in filters:
        if f == FILTER_MF:
            filt = matched_filter(est)
        elif f == FILTER_MMSE:
            filt = mmse_filter_pilot(est, real)
        else:  # FILTER_MMSE_PERFECT; monte_carlo_sweep checks the names
            filt = mmse_filter_perfect(real)
        sinrs.append(empirical_sinr(filt, real).sinr)
    return sinrs


def _trial_block(scenario: Scenario, M: int, Ks, filters, mode: str,
                 master_seed: int, lo: int, hi: int):
    """Trials lo..hi-1 at each loading's user count in ``Ks``: their SINRs,
    shape (loadings, filters, hi - lo), or (loading index, trial, error) of
    the first trial in sweep order that raised."""
    out = np.empty((len(Ks), len(filters), hi - lo))
    uses_pilot_stream = mode != "noiseless"
    # loading-major: measured faster than trial-major with forked blocks, so
    # a failed trial comes back as a value ordered by (loading, trial)
    for ai, K in enumerate(Ks):
        channel_tag, pilot_tag = f"mc.channel.a{ai}", f"mc.pilot.a{ai}"
        for t in range(lo, hi):
            try:
                rng_ch = seed_substream(master_seed, channel_tag, t)
                rng_pn = (seed_substream(master_seed, pilot_tag, t)
                          if uses_pilot_stream else None)
                out[ai, :, t - lo] = run_trial(scenario, K, M, mode, filters,
                                               rng_ch, rng_pn)
            except Exception as exc:
                return ai, t, exc
    return out


def monte_carlo_sweep(scenario: Scenario, M: int, alpha_grid, trials: int,
                      filters, estimate_mode: str,
                      master_seed: int) -> dict[tuple[float, str], np.ndarray]:
    """Empirical SINR samples per (alpha, filter).

    Channel and gain draws for a trial come from one substream, pilot
    noise from another, so the three estimate modes of the same seed see
    identical channels. The noiseless mode draws no pilot noise and
    derives no pilot substream.

    Every input is checked before any trial runs. Each loading's user
    count K = round(alpha*M) is derived once, here, and read by the caps,
    the block count and every block. The trial indices are
    split into contiguous blocks, the same at every loading, one per CPU
    the process may run on but none holding fewer than
    ``_BLOCK_MIN_ENTRIES`` channel entries; the first block runs in this
    process and each other one in a forked worker. Since a trial's
    substreams are keyed by its index, the samples, and the error raised
    when trials fail (that of the first failing trial in loading-then-trial
    order), do not depend on the number of blocks.
    """
    check_count("trials", trials)
    grid = _check_alpha_grid(alpha_grid)
    if estimate_mode not in ESTIMATE_MODES:
        raise InvalidInputError(f"unknown estimate mode {estimate_mode!r}")
    filters = tuple(filters)
    if not filters:
        raise InvalidInputError("filter list must be non-empty")
    for i, f in enumerate(filters):
        if f not in ALL_FILTERS:
            raise InvalidInputError(f"unknown filter {f!r}")
        if f in filters[:i]:
            raise InvalidInputError(f"filter {f!r} is named twice")
    Ks = [users_per_cell(a, M) for a in grid]
    entries = scenario.cells * Ks[-1] * M
    if entries > MAX_TRIAL_ENTRIES:
        raise InvalidInputError(
            f"a trial at M={reprlib.repr(M)}, alpha={grid[-1]} holds "
            f"{reprlib.repr(entries)} channel entries, above the cap of "
            f"{MAX_TRIAL_ENTRIES}")
    if len(grid) * len(filters) * trials > MAX_SWEEP_SAMPLES:
        raise InvalidInputError(
            f"{len(grid)} loadings x {len(filters)} filters x {trials} trials "
            f"exceed the cap of {MAX_SWEEP_SAMPLES} SINR samples")
    check_seed(master_seed)
    sweep_entries = trials * scenario.cells * sum(Ks) * M
    blocks = max(1, min(cpu_count(), trials,
                        sweep_entries // _BLOCK_MIN_ENTRIES))
    compute = functools.partial(_trial_block, scenario, M, Ks, filters,
                                estimate_mode, master_seed)
    results = run_blocks(compute, split(trials, blocks))
    failures = [r for r in results if not isinstance(r, np.ndarray)]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    out = np.concatenate(results, axis=2)
    return {(a, f): out[ai, fi] for ai, a in enumerate(grid)
            for fi, f in enumerate(filters)}


def monte_carlo_result(scenario: Scenario, M: int, alpha_grid, trials: int,
                       filters, estimate_mode: str,
                       master_seed: int) -> SweepResult:
    """Monte Carlo sweep as rows of raw per-trial SINRs."""
    samples = monte_carlo_sweep(scenario, M, alpha_grid, trials, filters,
                                estimate_mode, master_seed)
    rows = [(a, f, t, to_db(vals[t]))
            for (a, f), vals in sorted(samples.items())
            for t in range(len(vals))]
    return SweepResult(
        columns=["alpha", "filter", "trial", "sinr_db"],
        rows=rows,
        meta=_base_meta(scenario, master_seed)
        | _simulation_meta(M, trials, estimate_mode),
    )


# ---------------------------------------------------------------------------
# scalar reductions
# ---------------------------------------------------------------------------

def five_percentile(samples) -> float:
    """Empirical 5% quantile with linear order-statistic interpolation."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < MIN_PERCENTILE_SAMPLES:
        raise InvalidInputError(
            f"five-percentile needs at least {MIN_PERCENTILE_SAMPLES} samples")
    return float(np.quantile(samples, 0.05))


def achievable_rate(sinr_samples) -> float:
    """Mean of log2(1 + SINR) over the samples, bits/symbol."""
    samples = np.asarray(sinr_samples, dtype=float)
    if samples.size == 0:
        raise InvalidInputError("rate needs at least one sample")
    return float(np.mean(np.log2(1.0 + samples)))


def sum_rate(alpha: float, M: int, sinr: float) -> float:
    """alpha * M * log2(1 + SINR), bits/symbol for the whole cell."""
    check_real("alpha", alpha)
    if not alpha > 0.0:  # NaN fails too
        raise InvalidInputError("alpha must be positive")
    check_count("M", M)
    return float(alpha * M * np.log2(1.0 + sinr))


# ---------------------------------------------------------------------------
# drop-based runners
# ---------------------------------------------------------------------------

def _simulation_and_limit(scenario: Scenario, M: int | None, grid,
                          trials: int | None, estimate_mode: str | None,
                          master_seed: int, n_drops: int,
                          reduce) -> list[tuple]:
    """(alpha, simulated, limit) per loading: ``reduce`` of the pilot- and
    perfect-estimate MMSE SINRs, simulated (an empty pair when ``trials`` is
    None) and in the limit over a law of ``n_drops`` drops."""
    pair = (FILTER_MMSE, FILTER_MMSE_PERFECT)
    mc = {} if trials is None else monte_carlo_sweep(
        scenario, M, grid, trials, pair, estimate_mode, master_seed)
    rng = seed_substream(master_seed, "drops")
    dist = FadingDistribution(scenario.gain_matrix(n_drops, rng).T)
    rows = []
    for a in grid:
        _, *limits = det_eq_sinr_rows(dist, a, scenario.noise_var)
        simulated = tuple(reduce(mc[(a, f)]) for f in pair) if mc else ()
        rows.append((a, simulated, tuple(reduce(x) for x in limits)))
    return rows


def percentile_sweep(scenario: Scenario, M: int, alpha_grid, trials: int,
                     estimate_mode: str, master_seed: int) -> SweepResult:
    """Five-percentile SINR versus loading: simulation and limit side by side."""
    grid = _check_alpha_grid(alpha_grid)
    check_count("trials", trials)
    if trials < MIN_PERCENTILE_SAMPLES:
        raise InvalidInputError(
            f"percentile sweeps need at least {MIN_PERCENTILE_SAMPLES} trials")
    rows = _simulation_and_limit(
        scenario, M, grid, trials, estimate_mode, master_seed,
        PERCENTILE_DROPS, lambda x: to_db(five_percentile(x)))
    return SweepResult(
        columns=["alpha", "five_pct_mmse_mc_db", "five_pct_perfect_mc_db",
                 "five_pct_mmse_det_db", "five_pct_perfect_det_db"],
        rows=[(a, *simulated, *limit) for a, simulated, limit in rows],
        meta=_base_meta(scenario, master_seed)
        | _simulation_meta(M, trials, estimate_mode)
        | {"drops": str(PERCENTILE_DROPS)},
    )


def rate_table(scenario: Scenario, M: int | None, alpha_grid,
               trials: int | None, estimate_mode: str | None,
               master_seed: int) -> SweepResult:
    """Achievable rate per user: limit values, plus simulation when asked.

    The limit columns average instantaneous rates over the drop profiles.
    With ``trials=None`` nothing is simulated and M and the estimate mode
    are not read. Simulation columns need K = round(alpha*M) >= 3; below
    that the finite-system table is not reproduced, it is refused.
    """
    grid = _check_alpha_grid(alpha_grid)
    columns = ["alpha", "rate_pilot", "rate_perfect"]
    meta = _base_meta(scenario, master_seed) | {"drops": str(RATE_DROPS)}
    if trials is not None:
        # K = round(alpha M) never falls along the increasing grid
        if users_per_cell(grid[0], M) < 3:
            raise InvalidInputError(
                f"alpha={grid[0]}, M={M} gives fewer than 3 users per cell; "
                "refusing to extrapolate the rate table")
        columns += ["rate_pilot_mc", "rate_perfect_mc"]
        meta |= _simulation_meta(M, trials, estimate_mode)
    rows = _simulation_and_limit(scenario, M, grid, trials, estimate_mode,
                                 master_seed, RATE_DROPS, achievable_rate)
    return SweepResult(
        columns=columns,
        rows=[(a, *limit, *simulated) for a, simulated, limit in rows],
        meta=meta)
