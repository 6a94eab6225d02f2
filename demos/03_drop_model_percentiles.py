"""Cell-edge behaviour under a realistic drop model.

Users are placed uniformly in a ring of seven hexagonal cells with urban
path loss; gains are received-SNR units. The script reports the residual
averaged-interference constants (how much interference the MMSE receivers
cannot suppress), the five-percentile SINR versus loading from a 50-antenna
simulation, and the per-user achievable-rate table.
"""

import numpy as np

from ulmimo import asymptotic as la
from ulmimo.experiments import (RATE_DROPS, five_percentile, monte_carlo_sweep,
                                rate_table)
from ulmimo.fading import FadingDistribution
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario

SEED = 2024
scenario = parse_scenario("cost231-7cell")

rows = scenario.gain_matrix(RATE_DROPS, seed_substream(SEED, "drops")).T
dist = FadingDistribution(rows)

det = la.solve_det_eq(dist, 1.0, scenario.noise_var)
c_star = la.perfect_suppression(dist, 1.0, scenario.noise_var)
print("residual averaged interference at full loading (alpha = 1):")
print(f"  contaminated-estimate MMSE: {la.to_db(det.inter_mmse):.1f} dB "
      "over noise")
print(f"  perfect-estimate MMSE:      "
      f"{la.to_db(det.mean_total_gain - c_star):.1f} dB over noise")
print("  (near-equal: estimate contamination barely hurts suppression)")

print("\nfive-percentile SINR, 50 antennas, 1500 trials:")
samples = monte_carlo_sweep(scenario, 50, [0.2, 0.5, 1.0], 1500,
                            ("mmse", "mmse-perfect"), "noiseless", SEED)
print(f"{'alpha':>6} {'pilot MMSE':>11} {'perfect MMSE':>13} {'gap':>6}")
for alpha in (0.2, 0.5, 1.0):
    p = la.to_db(five_percentile(samples[(alpha, "mmse")]))
    q = la.to_db(five_percentile(samples[(alpha, "mmse-perfect")]))
    print(f"{alpha:>6.1f} {p:>10.1f}  {q:>12.1f}  {q - p:>5.1f}")

print("\nper-user achievable rate (bits/symbol), limit values:")
table = rate_table(scenario, M=None, alpha_grid=[0.1, 0.3, 0.5, 0.7, 1.0],
                   trials=None, estimate_mode=None, master_seed=SEED)
print(f"{'alpha':>6} {'pilot':>7} {'perfect':>8}")
for alpha, pilot, perfect in table.rows:
    print(f"{alpha:>6.1f} {pilot:>7.2f} {perfect:>8.2f}")
