"""How many users should a base station serve at once?

With a fixed antenna count, loading more users onto the same resources
lowers every user's SINR but multiplies the number of streams. The cell
sum rate alpha * M * log2(1 + SINR) therefore peaks at an interior
loading. The second sweep shows the per-user rate lost to estimate
contamination: largest at light loading (where the contaminated estimate
is the only impairment), shrinking as interference averaging starts to
dominate both receivers equally.
"""

import numpy as np

from ulmimo import asymptotic as la
from ulmimo.experiments import rate_gap_sweep, sum_rate
from ulmimo.geometry import idealized_gains
from ulmimo.scenario import parse_scenario

M = 50
scenario = parse_scenario("idealized-01")

print(f"cell sum rate with {M} antennas (contaminated-estimate MMSE):")
print(f"{'alpha':>6} {'sum rate':>9}")
best = (0.0, 0.0)
dist = idealized_gains(7, 0.01)
for alpha in np.arange(0.1, 1.21, 0.1):
    _, pilot, _ = la.det_eq_sinr_rows(dist, float(alpha), scenario.noise_var)
    rate = sum_rate(float(alpha), M, pilot[0])
    best = max(best, (rate, float(alpha)))
    print(f"{alpha:>6.1f} {rate:>9.1f}")
print(f"peak: {best[0]:.1f} bits/symbol at alpha = {best[1]:.1f}")

print("\nper-user rate lost to estimate contamination (bits/symbol):")
betas = [0.001, 0.01, 0.05, 0.1]
res = rate_gap_sweep(scenario, [0.2, 0.5, 1.0], betas)
gaps = {(row[0], row[1]): row[2] for row in res.rows}
print(f"{'alpha':>6} " + " ".join(f"b={b:<6}" for b in betas))
for alpha in (0.2, 0.5, 1.0):
    print(f"{alpha:>6.1f} " + " ".join(f"{gaps[(alpha, b)]:<8.2f}" for b in betas))
