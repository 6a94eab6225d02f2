"""Programmatic invariant self-check behind the ``validate`` command.

A small, fast subset of the test suite's property checks, runnable from a
deployed install without pytest.
"""

from __future__ import annotations

import numpy as np

from . import asymptotic as la
from . import montecarlo as mc
from .experiments import ALL_FILTERS, monte_carlo_sweep
from .geometry import idealized_gains
from .rng import seed_substream
from .scenario import parse_scenario


def _check_fixed_points(emit) -> bool:
    ok = True
    for beta in (0.001, 0.01, 0.1):
        dist = idealized_gains(7, beta)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            det = la.solve_det_eq(dist, alpha, 0.01)
            resid = abs(la.eta1_map(dist, alpha, 0.01, det.eta1)
                        - det.eta1) / det.eta1
            ok &= resid <= 1e-10
            ok &= det.eta2 >= det.eta1 * det.eta1
            ok &= 0.0 <= det.suppression <= det.mean_total_gain
    emit(f"fixed-point residuals, eta ordering, suppression bounds: "
         f"{'PASS' if ok else 'FAIL'}")
    return ok


def _check_collapse(emit) -> bool:
    mf, mmse, _ = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.0, 0.01)
    ok = mmse[0] == mf[0]
    emit(f"alpha=0 collapse (MMSE == MF): {'PASS' if ok else 'FAIL'}")
    return ok


def _check_single_cell(emit) -> bool:
    dist = idealized_gains(1, 0.5)  # beta_other unused at B=1
    _, pilot, perfect = la.det_eq_sinr_rows(dist, 0.5, 0.01)
    ok = abs(pilot[0] - perfect[0]) <= 1e-9 * perfect[0]
    emit(f"single-cell pilot == perfect: {'PASS' if ok else 'FAIL'}")
    return ok


def _check_closed_form(emit) -> bool:
    # on a point mass eta1 is the positive root of
    # c p x^2 + (c + alpha p - p) x - 1 = 0, with c = noise + alpha (B - p)
    dist, alpha, noise_var = idealized_gains(7, 0.01), 0.5, 0.01
    p, total = dist.est_gain[0], dist.total[0]
    c = noise_var + alpha * (total - p)
    b = c + alpha * p - p
    root = 2.0 / (b + np.sqrt(b * b + 4.0 * c * p))
    eta1 = la.solve_det_eq(dist, alpha, noise_var).eta1
    ok = abs(eta1 - root) <= 1e-8 * root
    emit(f"eta1 matches the closed-form point-mass root: "
         f"{'PASS' if ok else 'FAIL'}")
    return ok


def _check_solver_paths(emit) -> bool:
    # one cell, noiseless pilots: exact estimates and theta2 = 0, so the pilot
    # (low-rank path) and perfect (dense path) filters differ only in scale
    rng = seed_substream(0, "validate.solver")
    real = mc.ChannelRealization(
        small_scale=mc.draw_channel_matrix(1, 2, 3, rng),
        gains=np.array([[1.0, 0.7]]), noise_var=0.01)
    low = mc.empirical_sinr(
        mc.mmse_filter_pilot(mc.pilot_estimate_noiseless(real), real), real).sinr
    dense = mc.empirical_sinr(mc.mmse_filter_perfect(real), real).sinr
    ok = abs(low - dense) <= 1e-12 * dense
    emit(f"structured vs dense filter solve at M=3: {'PASS' if ok else 'FAIL'}")
    return ok


def _check_determinism(emit) -> bool:
    sc = parse_scenario("idealized-01")
    a = monte_carlo_sweep(sc, 8, [0.5], 3, ALL_FILTERS, "noiseless", 42)
    b = monte_carlo_sweep(sc, 8, [0.5], 3, ALL_FILTERS, "noiseless", 42)
    ok = all(np.array_equal(a[k], b[k]) for k in a)
    emit(f"seeded rerun determinism: {'PASS' if ok else 'FAIL'}")
    return ok


def run_all(emit=print) -> bool:
    checks = [_check_fixed_points, _check_collapse, _check_single_cell,
              _check_closed_form, _check_solver_paths, _check_determinism]
    ok = True
    for check in checks:
        ok &= bool(check(emit))
    emit(f"validate: {'all checks passed' if ok else 'FAILURES detected'}")
    return ok
