"""A 50-antenna system is already 'large': simulation versus the limits.

Draws finite channels, forms contaminated estimates three ways (exact
combination, noisy pilots at 28 dB, full per-cell training sequences),
runs the three receivers, and compares median empirical SINR against the
closed-form limits. Medians land within a few tenths of a dB at M = 50.
"""

import numpy as np

from ulmimo import asymptotic as la
from ulmimo.experiments import ALL_FILTERS, monte_carlo_sweep
from ulmimo.geometry import idealized_gains
from ulmimo.scenario import parse_scenario

SEED = 2024
M = 50
TRIALS = 300

scenario = parse_scenario("idealized-01")
dist = idealized_gains(7, 0.01)

for mode in ("noiseless", "noisy", "training"):
    print(f"\nestimate mode: {mode}")
    print(f"{'alpha':>6} {'filter':>14} {'median sim':>11} {'limit':>8} {'gap':>7}")
    samples = monte_carlo_sweep(scenario, M, [0.2, 0.5, 1.0], TRIALS,
                                ALL_FILTERS, mode, SEED)
    for alpha in (0.2, 0.5, 1.0):
        sinrs = la.det_eq_sinr_rows(dist, alpha, scenario.noise_var)
        limits = {filt: la.to_db(x[0])
                  for filt, x in zip(("mf", "mmse", "mmse-perfect"), sinrs)}
        for filt, limit in limits.items():
            med = la.to_db(np.median(samples[(alpha, filt)]))
            print(f"{alpha:>6.1f} {filt:>14} {med:>10.2f}  {limit:>8.2f}"
                  f" {med - limit:>+7.2f}")
