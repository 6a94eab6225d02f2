"""Large-system SINR limits versus cell loading.

Solves the fixed-point constants for three idealized 7-cell networks
(other-cell power 30, 20, 10 dB below the in-cell users) and tabulates the
limiting SINR of the three receivers as the users-per-antenna ratio grows.
The interesting regime is the middle one: with other-cell users 20 dB
down, the MMSE receiver built on a contaminated estimate buys roughly 7 dB
over the matched filter at half loading, while giving up only ~2-3 dB to
the perfect-estimate benchmark.
"""

import numpy as np

from ulmimo import asymptotic as la
from ulmimo.geometry import idealized_gains

NOISE_VAR = 0.01  # 20 dB receive SNR

for beta_other in (0.001, 0.01, 0.1):
    dist = idealized_gains(7, beta_other)
    print(f"\nother-cell gain {beta_other} "
          f"({10 * np.log10(beta_other):.0f} dB below in-cell)")
    print(f"{'alpha':>6} {'MF':>8} {'MMSE':>8} {'perfect':>8}   (dB)")
    for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
        mf, pilot, perfect = (la.to_db(x[0]) for x in
                              la.det_eq_sinr_rows(dist, alpha, NOISE_VAR))
        print(f"{alpha:>6.2f} {mf:>8.2f} {pilot:>8.2f} {perfect:>8.2f}")

# the ingredients behind the middle table row at alpha = 0.5
dist = idealized_gains(7, 0.01)
det = la.solve_det_eq(dist, 0.5, NOISE_VAR)
print(f"\nconstants at beta_other=0.01, alpha=0.5:")
print(f"  eta1 = {det.eta1:.4f}  (limiting trace of the inverse filter matrix)")
print(f"  eta2 = {det.eta2:.4f}")
print(f"  suppression C = {det.suppression:.4f} of E[B] = {det.mean_total_gain}")
print(f"  -> the MMSE receiver averages interference E[B] - C = "
      f"{det.inter_mmse:.4f}; the matched filter faces the full E[B]")
