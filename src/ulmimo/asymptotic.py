"""Large-system (deterministic-equivalent) SINR for uplink linear receivers.

As antennas M and users per cell K grow with fixed loading ``alpha = K/M``,
the output SINR of the matched filter and of the MMSE receivers converges
to closed forms driven by two trace limits of the receive filter matrix S:

    eta1 = lim (1/M) trace{S^-1},   eta2 = lim (1/M) trace{S^-2}.

Both are fixed points of a scalar Stieltjes-transform equation over the
large-scale fading law. The MMSE receiver's advantage over the matched
filter is a single constant, the interference suppression ``C``, entering
the generalized form

    SINR(c) = S / (noise_var + P + alpha * I(c))

where, per sample of the law, S = beta_1^2 / B is the signal power
through a contaminated estimate and P = sum_{j>=2} beta_j^2 / B the power
of its contaminators (``est_gain`` and ``cross_est_gain`` of the
:class:`FadingDistribution`), and ``I`` is E[B] for the matched filter
and E[B] - C for the MMSE receiver with a contaminated estimate. The
MMSE receiver with an error-free estimate reaches beta_1 * eta1*, with
eta1* the trace limit of its own filter matrix. :func:`det_eq_sinr_rows`
is the one place these three limits are evaluated, for every sample of
any law: a point mass (the idealized cells) or a set of drops.

Both fixed points (eta1 and eta1*) are solved by one kernel, damped
Picard iteration started from the matched-filter-style lower bound
1/(noise_var + alpha E[B]); the maps are monotone and bounded on
(0, 1/noise_var], and the damping guards pathological sample sets.
Damping, relative step tolerance and iteration cap are the module
constants below, read at every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, NumericalError
from .fading import FadingDistribution, expect_total_gain

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 10_000
FIXED_POINT_DAMPING = 0.5


def to_db(x) -> float:
    """Linear power ratio to dB."""
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class DetEqSolution:
    """Solved large-system constants for one (distribution, alpha, noise) triple."""

    eta1: float
    eta2: float
    suppression: float
    mean_total_gain: float

    @property
    def inter_mmse(self) -> float:
        return self.mean_total_gain - self.suppression


def _solve(fmap, dist: FadingDistribution, alpha: float, noise_var: float,
           what: str) -> float:
    """Fixed point of ``fmap(dist, alpha, noise_var, x)`` by damped Picard."""
    if alpha < 0.0 or not np.isfinite(alpha):
        raise InvalidInputError("alpha must be a finite nonnegative real")
    if noise_var <= 0.0 or not np.isfinite(noise_var):
        raise InvalidInputError("noise_var must be a finite positive real")
    e_total, _ = expect_total_gain(dist)
    x = 1.0 / (noise_var + alpha * e_total)
    residual = np.inf
    for _ in range(FIXED_POINT_MAX_ITER):
        try:
            fx = fmap(dist, alpha, noise_var, x)
        except ZeroDivisionError:  # the map's denominator rounded to zero
            raise ConvergenceError(
                f"{what} fixed-point step divides by zero (last relative "
                f"residual {residual:.3e})") from None
        residual = abs(fx - x) / abs(x)
        if residual <= FIXED_POINT_TOL:
            return x
        x = (1.0 - FIXED_POINT_DAMPING) * x + FIXED_POINT_DAMPING * fx
    raise ConvergenceError(f"{what} fixed point did not converge (last "
                           f"relative residual {residual:.3e})")


def eta1_map(dist: FadingDistribution, alpha: float, noise_var: float, x: float) -> float:
    """One application of the eta1 fixed-point map at x."""
    # p p x / (1 + p x), in the law's scratch and in that order
    num, den = dist._scratch
    np.multiply(dist.est_gain_sq, x, out=num)
    np.multiply(dist.est_gain, x, out=den)
    den += 1.0
    num /= den
    shrink = dist.expect(num)
    return 1.0 / (noise_var + alpha * dist.mean_total - alpha * shrink)


def _eta2(dist: FadingDistribution, alpha: float, eta1: float) -> float:
    """Limiting (1/M) tr S^-2, from the derivative of the eta1 equation."""
    p = dist.est_gain
    subtrahend = alpha * dist.expect((p / (1.0 + p * eta1)) ** 2)
    if subtrahend == 0.0:
        return eta1 * eta1
    denom = eta1**-2 - subtrahend
    if denom <= 0.0:
        raise NumericalError(
            "second trace moment has non-positive denominator; the "
            "large-system limit does not exist for this distribution")
    # eta2 >= eta1^2 (Cauchy-Schwarz); a subtrahend below the rounding of
    # eta1**-2 can leave 1/denom an ulp short of it
    return max(1.0 / denom, eta1 * eta1)


def solve_det_eq(dist: FadingDistribution, alpha: float,
                 noise_var: float) -> DetEqSolution:
    """Solve eta1, eta2 and the suppression constant C in one call.

    C, the interference power the MMSE receiver removes relative to the
    MF, sums three expectation terms in a single pass over the samples so
    every term sees the identical weighting.
    """
    eta1 = _solve(eta1_map, dist, alpha, noise_var, "eta1")
    eta2 = _eta2(dist, alpha, eta1)
    p = dist.est_gain
    q = dist.cross_est_gain
    ratio = eta2 / eta1
    supp = dist.expect(
        dist.est_gain_sq * eta1 / (1.0 + p * eta1)
        + ratio * p * q / (1.0 + p * eta1)
        + ratio * p * q / (1.0 + p * eta1) ** 2)
    e_total, _ = expect_total_gain(dist)
    return DetEqSolution(eta1=eta1, eta2=eta2, suppression=supp,
                         mean_total_gain=e_total)


def eta1_perfect_map(dist: FadingDistribution, alpha: float, noise_var: float,
                     x: float) -> float:
    """One application of the perfect-estimate trace map at x."""
    # own / (1 + own x), in the law's scratch
    own = dist.own
    term = dist._scratch[0]
    np.multiply(own, x, out=term)
    term += 1.0
    np.divide(own, term, out=term)
    return 1.0 / (noise_var + alpha * dist.mean_other
                  + alpha * dist.expect(term))


def solve_eta1_perfect(dist: FadingDistribution, alpha: float,
                       noise_var: float) -> float:
    """Trace limit of the inverse perfect-estimate filter matrix."""
    return _solve(eta1_perfect_map, dist, alpha, noise_var,
                  "perfect-estimate eta1")


def perfect_suppression(dist: FadingDistribution, alpha: float,
                        noise_var: float) -> float:
    """Suppression achieved with an error-free estimate.

    E[B] minus this constant is the residual averaged interference of the
    perfect-estimate MMSE receiver, the benchmark the contaminated-estimate
    suppression is compared against.
    """
    eta1_perfect = solve_eta1_perfect(dist, alpha, noise_var)
    own = dist.own
    return dist.expect(own * own * eta1_perfect / (1.0 + own * eta1_perfect))


def det_eq_sinr_rows(dist: FadingDistribution, alpha: float, noise_var: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Limiting MF, pilot-MMSE and perfect-MMSE SINR for every sample of the law.

    The three arrays are aligned with ``dist.gains``; a point-mass law
    gives arrays of length one.
    """
    det = solve_det_eq(dist, alpha, noise_var)
    eta1_star = solve_eta1_perfect(dist, alpha, noise_var)
    if det.inter_mmse < 0.0:
        raise InvalidInputError(
            "power terms must be nonnegative: suppression exceeds E[B]")
    mf, mmse_pilot = (
        dist.est_gain / (noise_var + dist.cross_est_gain + alpha * inter)
        for inter in (det.mean_total_gain, det.inter_mmse))
    return mf, mmse_pilot, dist.own * eta1_star

