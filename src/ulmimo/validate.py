"""Programmatic invariant self-check behind the ``validate`` command.

A small, fast subset of the test suite's property checks, runnable from a
deployed install without pytest. No check repeats what the solve it calls
enforces: ``solve_det_eq`` refuses an eta1 whose map residual exceeds
``FIXED_POINT_TOL`` and holds eta2 >= eta1^2 by construction, so the
fixed-point check solves and bounds the suppression.
"""

from __future__ import annotations

import numpy as np

from . import asymptotic as la
from . import montecarlo as mc
from .errors import NumericalError
from .experiments import ALL_FILTERS, monte_carlo_sweep
from .geometry import idealized_gains
from .rng import seed_substream
from .scenario import parse_scenario


def _check_fixed_points() -> bool:
    ok = True
    for beta in (0.001, 0.01, 0.1):
        dist = idealized_gains(7, beta)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            det = la.solve_det_eq(dist, alpha, 0.01)
            ok &= 0.0 <= det.suppression <= det.mean_total_gain
    return ok


def _check_collapse() -> bool:
    mf, mmse, _ = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.0, 0.01)
    return mmse[0] == mf[0]


def _check_single_cell() -> bool:
    dist = idealized_gains(1, 0.5)  # beta_other unused at B=1
    _, pilot, perfect = la.det_eq_sinr_rows(dist, 0.5, 0.01)
    return abs(pilot[0] - perfect[0]) <= 1e-9 * perfect[0]


def _check_noise_derivative() -> bool:
    # d eta1 / d noise_var = -eta2, by central difference: a route to eta2
    # that does not pass through the eta1 equation's slope
    dist, alpha, noise_var = idealized_gains(7, 0.01), 0.5, 0.1
    h = 1e-5 * noise_var
    slope = (la.solve_det_eq(dist, alpha, noise_var + h).eta1
             - la.solve_det_eq(dist, alpha, noise_var - h).eta1) / (2.0 * h)
    eta2 = la.solve_det_eq(dist, alpha, noise_var).eta2
    return abs(eta2 + slope) <= 1e-6 * eta2


def _check_solver_paths() -> bool:
    # one cell, noiseless pilots: exact estimates and theta2 = 0, so the pilot
    # (low-rank path) and perfect (dense path) filters differ only in scale
    rng = seed_substream(0, "validate.solver")
    real = mc.ChannelRealization(
        small_scale=mc.draw_channel_matrix(1, 2, 3, rng),
        gains=np.array([[1.0, 0.7]]), noise_var=0.01)
    low = mc.empirical_sinr(
        mc.mmse_filter_pilot(mc.pilot_estimate_noiseless(real), real), real).sinr
    dense = mc.empirical_sinr(mc.mmse_filter_perfect(real), real).sinr
    return abs(low - dense) <= 1e-12 * dense


def _check_determinism() -> bool:
    sc = parse_scenario("idealized-01")
    a = monte_carlo_sweep(sc, 8, [0.5], 3, ALL_FILTERS, "noiseless", 42)
    b = monte_carlo_sweep(sc, 8, [0.5], 3, ALL_FILTERS, "noiseless", 42)
    return all(np.array_equal(a[k], b[k]) for k in a)


_CHECKS = (
    ("fixed-point residuals, eta ordering, suppression bounds",
     _check_fixed_points),
    ("alpha=0 collapse (MMSE == MF)", _check_collapse),
    ("single-cell pilot == perfect", _check_single_cell),
    ("eta2 matches -d eta1 / d noise_var", _check_noise_derivative),
    ("structured vs dense filter solve at M=3", _check_solver_paths),
    ("seeded rerun determinism", _check_determinism),
)


def run_all(emit=print) -> bool:
    """Run every check, emit one PASS or FAIL line each, and say whether
    all passed; a check whose solve raises a NumericalError fails."""
    ok = True
    for label, check in _CHECKS:
        try:
            verdict = "PASS" if check() else "FAIL"
        except NumericalError as exc:
            verdict = f"FAIL ({exc})"
        emit(f"{label}: {verdict}")
        ok &= verdict == "PASS"
    emit(f"validate: {'all checks passed' if ok else 'FAILURES detected'}")
    return ok
