"""The benchmark's four workloads and the seeds they run at.

Why each workload was chosen is recorded once, in BENCHMARK.json.

Each workload is one closed-loop client: it calls ``ulmimo.cli.main`` with
a fixed argument list, waits for the CSV and manifest, and only then
starts the next call, one call outstanding at a time. That is how the tool
is used: a researcher waits for each run.

Every timed repetition gets its own master seed, derived from the workload
seed, so a result cache added later cannot turn repetitions into hits.
Reference outputs are stored for two master seeds per workload: the CLI's
default seed and a holdout seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0
HOLDOUT_SEED = 4099
REFERENCE_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)

# Spans (see tracer.py) that every workload's traced call must record.
_CLI = frozenset({"cli.dispatch", "scenario.parse_scenario",
                  "experiments.sweep", "experiments.write_csv"})
_TRIALS = frozenset({
    "rng.seed_substream", "experiments.run_trial", "montecarlo.draw_channels",
    "montecarlo.draw", "scenario.gain_matrix", "montecarlo.filter.mmse_pilot",
    "montecarlo.filter.mmse_perfect", "montecarlo.filter.lowrank",
    "montecarlo.filter.dense", "montecarlo.empirical_sinr"})
_DROPS = frozenset({
    "rng.seed_substream", "geometry.drop_users", "geometry.points_in_hex",
    "geometry.hex_layout", "geometry.large_scale_gains",
    "experiments.det_eq_sinr_rows", "asymptotic.solve_det_eq",
    "asymptotic.solve_eta1_perfect", "asymptotic.eta1_map",
    "asymptotic.eta1_perfect_map", "fading.expect",
    "fading.expect_total_gain"})

_MC = ("montecarlo", "--scenario", "idealized-01", "--antennas", "50",
       "--alpha", "0.2,0.5,1.0", "--filters", "mf,mmse,mmse-perfect")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments except --seed and --out
    work_metric: str       # end-to-end throughput name in the report
    work_unit: str
    work: int              # units of work completed by one call
    exercised: frozenset[str]

    def cli_args(self, seed: int, out_dir) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-pilot",
        argv=_MC + ("--estimate", "noiseless", "--trials", "500"),
        work_metric="trials_per_s", work_unit="trials/s", work=500 * 3,
        exercised=_CLI | _TRIALS | {"montecarlo.filter.mf",
                                    "montecarlo.estimate.noiseless"}),
    Workload(
        name="mc-training",
        # 200 trials: the training-mode size the ROADMAP quotes; at 500 a
        # call takes about 6 s and a run holds too few repetitions.
        argv=_MC + ("--estimate", "training", "--trials", "200"),
        work_metric="trials_per_s", work_unit="trials/s", work=200 * 3,
        exercised=_CLI | _TRIALS | {"montecarlo.filter.mf",
                                    "montecarlo.estimate.training",
                                    "montecarlo.pilot_sequences"}),
    Workload(
        name="edge-cost231",
        argv=("percentile", "--scenario", "cost231-7cell", "--antennas", "50",
              "--alpha", "0.2,0.5,1.0", "--trials", "500"),
        work_metric="trials_per_s", work_unit="trials/s", work=500 * 3,
        exercised=_CLI | _TRIALS | _DROPS | {"montecarlo.estimate.noiseless"}),
    Workload(
        name="rates-limits",
        argv=("rates", "--scenario", "cost231-7cell"),
        work_metric="drop_evals_per_s", work_unit="drop*alpha/s",
        work=10_000 * 10,
        exercised=_CLI | _DROPS),
)}


def rep_seed(workload: str, seed: int, rep: int) -> int:
    """Master seed of one timed repetition, a 63-bit hash of its position."""
    digest = hashlib.sha256(f"ulmimo-bench/{workload}/{seed}/{rep}".encode())
    return int.from_bytes(digest.digest()[:8], "little") >> 1
