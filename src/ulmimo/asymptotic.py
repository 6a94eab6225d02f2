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

eta1 and eta1* are fixed points of one trace map, 1 / (noise_var + alpha
offset + alpha E[p / (1 + p x)]), whose denominator takes no difference:
eta1 has p = ``est_gain`` and offset E[B - p] (:func:`eta1_map`), eta1*
p = beta_1 and offset sum_{j>=2} E[beta_j] (:func:`eta1_perfect_map`).
eta1 is the map's fixed point multiplied out, the root x > 0 of

    g(x) = c x - (1 - alpha) - alpha E[r],   r = 1 / (1 + p x),

with c = noise_var + alpha offset. g is increasing and concave, so
Newton's method started left of the root climbs to it; it starts at the
root of Jensen's bound E[r] >= 1 / (1 + E[p] x), which is the root itself
on a point mass. The root is accepted where the map's relative residual
at it is within ``FIXED_POINT_TOL``, and eta2 = eta1 / g'(eta1) takes no
difference. eta1* is solved by damped Picard iteration of its map, started
from the lower bound 1/(noise_var + alpha E[B]); the map is monotone and
bounded on (0, 1/noise_var], and the damping guards pathological sample
sets. Relative tolerance, step cap and damping are the module constants
below, read at every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, check_real
from .fading import FadingDistribution, expect_total_gain

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 10_000
FIXED_POINT_DAMPING = 0.5


def to_db(x) -> float:
    """Linear power ratio to dB."""
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class DetEqSolution:
    """Solved large-system constants for one (distribution, alpha, noise)
    triple; ``inter_mmse`` is E[B] - C, summed without that difference."""

    eta1: float
    eta2: float
    suppression: float
    inter_mmse: float
    mean_total_gain: float


def _check_args(dist: FadingDistribution, alpha: float,
                noise_var: float) -> float:
    """E[B] of the law, once alpha and noise_var are known to be valid."""
    check_real("alpha", alpha)
    check_real("noise_var", noise_var)
    if alpha < 0.0 or not np.isfinite(alpha):
        raise InvalidInputError("alpha must be a finite nonnegative real")
    if noise_var <= 0.0 or not np.isfinite(noise_var):
        raise InvalidInputError("noise_var must be a finite positive real")
    return expect_total_gain(dist)[0]


def _trace_map(dist: FadingDistribution, alpha: float, noise_var: float,
               p: np.ndarray, offset: float, x: float) -> float:
    """One application of the trace map in (p, offset) at x."""
    # p / (1 + p x), in the law's scratch
    term = dist._scratch[0]
    np.multiply(p, x, out=term)
    term += 1.0
    np.divide(p, term, out=term)
    return 1.0 / (noise_var + alpha * offset + alpha * dist.expect(term))


def eta1_map(dist: FadingDistribution, alpha: float, noise_var: float, x: float) -> float:
    """One application of the eta1 fixed-point map at x."""
    return _trace_map(dist, alpha, noise_var, dist.est_gain,
                      dist.mean_off_estimate, x)


def _g(dist: FadingDistribution, alpha: float, c: float,
       x: float) -> tuple[float, float]:
    """g(x) and g'(x) = c + alpha E[p r^2] of the eta1 equation."""
    r, pr2 = dist._scratch
    np.multiply(dist.est_gain, x, out=r)
    r += 1.0
    np.reciprocal(r, out=r)
    np.multiply(dist.est_gain, r, out=pr2)
    pr2 *= r
    return (c * x - (1.0 - alpha) - alpha * dist.expect(r),
            c + alpha * dist.expect(pr2))


def _eta1_newton(dist: FadingDistribution, alpha: float,
                 noise_var: float) -> tuple[float, float]:
    """eta1 and g'(eta1), by Newton from the Jensen root."""
    c = noise_var + alpha * dist.mean_off_estimate
    mean_p = dist.mean_est_gain
    # c E[p] x^2 + b x - 1 = 0, each root form free of cancellation
    b = c - (1.0 - alpha) * mean_p
    disc = math.hypot(b, 2.0 * math.sqrt(c) * math.sqrt(mean_p))
    x = 2.0 / (b + disc) if b >= 0.0 else (disc - b) / (2.0 * c * mean_p)
    step = math.inf
    for _ in range(FIXED_POINT_MAX_ITER):
        value, slope = _g(dist, alpha, c, x)
        # convergence is quadratic: once a step is this small, x is the
        # root to rounding and slope is g' there
        if abs(step) <= FIXED_POINT_TOL * x:
            break
        step = value / slope
        x -= step
    residual = abs(x / eta1_map(dist, alpha, noise_var, x) - 1.0)
    if not residual <= FIXED_POINT_TOL:
        raise ConvergenceError(
            f"eta1 Newton root fails its fixed-point map (relative "
            f"residual {residual:.3e})")
    return x, slope


def solve_det_eq(dist: FadingDistribution, alpha: float,
                 noise_var: float) -> DetEqSolution:
    """Solve eta1, eta2, the suppression constant C and E[B] - C in one call.

    With r = 1/(1 + p eta1), C = E[p (1 - r)] + (eta2/eta1) E[p q r (1 + r)]
    and E[B] - C = E[B - p] + E[p r] - (eta2/eta1) E[p q r (1 + r)], each
    summed in one pass over the samples so every term sees the identical
    weighting, and neither taken as a difference of the other from E[B].
    """
    e_total = _check_args(dist, alpha, noise_var)
    eta1, slope = _eta1_newton(dist, alpha, noise_var)
    # eta2 >= eta1^2 (Cauchy-Schwarz), with equality at alpha = 0; eta1 /
    # slope can fall an ulp short of it when alpha E[p^2 r^2] is below the
    # rounding of slope
    eta2 = eta1 * eta1 if alpha == 0.0 else max(eta1 / slope, eta1 * eta1)
    p = dist.est_gain
    r = 1.0 / (1.0 + p * eta1)
    pr = p * r
    # (eta2/eta1) p q r (1 + r), with eta2/eta1 = 1/slope: finite where
    # eta2 overflows, and 0 where q is
    contaminated = dist.cross_est_gain * pr * (1.0 + r) / slope
    return DetEqSolution(
        eta1=eta1, eta2=eta2,
        suppression=dist.expect(pr * p * eta1 + contaminated),
        inter_mmse=dist.mean_off_estimate + dist.expect(pr - contaminated),
        mean_total_gain=e_total)


def eta1_perfect_map(dist: FadingDistribution, alpha: float, noise_var: float,
                     x: float) -> float:
    """One application of the perfect-estimate trace map at x."""
    return _trace_map(dist, alpha, noise_var, dist.own, dist.mean_other, x)


def solve_eta1_perfect(dist: FadingDistribution, alpha: float,
                       noise_var: float) -> float:
    """Trace limit of the inverse perfect-estimate filter matrix."""
    x = 1.0 / (noise_var + alpha * _check_args(dist, alpha, noise_var))
    residual = np.inf
    for _ in range(FIXED_POINT_MAX_ITER):
        fx = eta1_perfect_map(dist, alpha, noise_var, x)
        residual = abs(fx - x) / abs(x)
        if residual <= FIXED_POINT_TOL:
            return x
        x = (1.0 - FIXED_POINT_DAMPING) * x + FIXED_POINT_DAMPING * fx
    raise ConvergenceError(f"perfect-estimate eta1 fixed point did not "
                           f"converge (last relative residual {residual:.3e})")


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

