"""Large-system (deterministic-equivalent) SINR for uplink linear receivers.

As antennas M and users per cell K grow with fixed loading ``alpha = K/M``,
the output SINR of the matched filter and of the MMSE receivers converges
to closed forms driven by two trace limits of the receive filter matrix S:

    eta1 = lim (1/M) trace{S^-1},   eta2 = lim (1/M) trace{S^-2}.

Both are fixed points of a scalar Stieltjes-transform equation over the
large-scale fading law. The MMSE receiver's advantage over the matched
filter is a single constant, the interference suppression ``C``, entering
the generalized form

    SINR(c) = signal_bar / (noise_var + pilot_bar + alpha * inter_bar(c))

with ``inter_bar`` equal to E[B] for the matched filter and E[B] - C for
the MMSE receiver with a contaminated estimate.

All fixed points are solved by damped Picard iteration (damping 0.5,
relative tolerance 1e-12, at most 10_000 iterations) started from the
matched-filter-style lower bound 1/(noise_var + alpha E[B]); the maps are
monotone and bounded on (0, 1/noise_var], and the damping guards
pathological sample sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateRegimeError, InvalidInputError
from .fading import FadingDistribution, UserGainProfile, expect_total_gain

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_DAMPING = 0.5


def to_db(x) -> float:
    """Linear power ratio to dB."""
    return 10.0 * np.log10(x)


def from_db(x) -> float:
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)


@dataclass(frozen=True)
class DetEqSolution:
    """Solved large-system constants for one (distribution, alpha, noise) triple."""

    eta1: float
    eta2: float
    suppression: float
    theta1_bar: float
    theta2_bar: float
    mean_total_gain: float
    alpha: float
    noise_var: float

    @property
    def inter_mmse(self) -> float:
        return self.mean_total_gain - self.suppression

    @property
    def inter_mf(self) -> float:
        return self.mean_total_gain


@dataclass(frozen=True)
class AsymptoticSinrReport:
    """All three limiting SINRs for one user profile, plus their ingredients."""

    mf_pilot: float
    mmse_pilot: float
    mmse_perfect: float
    signal_bar: float
    pilot_bar: float
    inter_mf: float
    inter_mmse: float
    inter_perfect: float

    @property
    def mf_pilot_db(self) -> float:
        return to_db(self.mf_pilot)

    @property
    def mmse_pilot_db(self) -> float:
        return to_db(self.mmse_pilot)

    @property
    def mmse_perfect_db(self) -> float:
        return to_db(self.mmse_perfect)


def _check_alpha_noise(alpha: float, noise_var: float) -> None:
    if alpha < 0.0 or not np.isfinite(alpha):
        raise InvalidInputError("alpha must be a finite nonnegative real")
    if noise_var <= 0.0 or not np.isfinite(noise_var):
        raise InvalidInputError("noise_var must be a finite positive real")


def _damped_fixed_point(fmap, x0: float, tol: float, max_iter: int,
                        damping: float, what: str) -> float:
    x = x0
    residual = np.inf
    for _ in range(max_iter):
        fx = fmap(x)
        residual = abs(fx - x) / abs(x)
        if residual <= tol:
            return x
        x = (1.0 - damping) * x + damping * fx
    raise ConvergenceError(f"{what} fixed point did not converge", residual)


def eta1_map(dist: FadingDistribution, alpha: float, noise_var: float, x: float) -> float:
    """One application of the eta1 fixed-point map at x."""
    e_total, _ = expect_total_gain(dist)
    p = dist.est_gain
    shrink = dist.expect(p * p * x / (1.0 + p * x))
    return 1.0 / (noise_var + alpha * e_total - alpha * shrink)


def solve_eta1(dist: FadingDistribution, alpha: float, noise_var: float,
               tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
               damping: float = DEFAULT_DAMPING) -> float:
    """Limiting normalized trace of the inverse filter matrix, (1/M) tr S^-1."""
    _check_alpha_noise(alpha, noise_var)
    e_total, _ = expect_total_gain(dist)
    x0 = 1.0 / (noise_var + alpha * e_total)
    return _damped_fixed_point(
        lambda x: eta1_map(dist, alpha, noise_var, x), x0, tol, max_iter,
        damping, "eta1")


def solve_eta2(dist: FadingDistribution, alpha: float, eta1: float) -> float:
    """Limiting (1/M) tr S^-2, from the derivative of the eta1 equation."""
    if alpha < 0.0 or not np.isfinite(alpha):
        raise InvalidInputError("alpha must be a finite nonnegative real")
    if eta1 <= 0.0:
        raise InvalidInputError("eta1 must be positive")
    p = dist.est_gain
    subtrahend = alpha * dist.expect((p / (1.0 + p * eta1)) ** 2)
    if subtrahend == 0.0:
        return eta1 * eta1
    denom = eta1**-2 - subtrahend
    if denom <= 0.0:
        raise DegenerateRegimeError(
            "second trace moment has non-positive denominator; the "
            "large-system limit does not exist for this distribution")
    return 1.0 / denom


def interference_suppression(dist: FadingDistribution, alpha: float,
                             eta1: float, eta2: float) -> float:
    """Interference power removed by the MMSE receiver relative to the MF.

    Three expectation terms evaluated in a single pass over the samples so
    every term sees the identical weighting.
    """
    if eta1 <= 0.0 or eta2 <= 0.0:
        raise InvalidInputError("trace limits must be positive")
    p = dist.est_gain
    q = dist.cross_est_gain
    ratio = eta2 / eta1
    per_sample = (
        p * p * eta1 / (1.0 + p * eta1)
        + ratio * p * q / (1.0 + p * eta1)
        + ratio * p * q / (1.0 + p * eta1) ** 2
    )
    return dist.expect(per_sample)


def solve_det_eq(dist: FadingDistribution, alpha: float, noise_var: float,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 damping: float = DEFAULT_DAMPING) -> DetEqSolution:
    """Solve eta1, eta2 and the suppression constant in one call."""
    eta1 = solve_eta1(dist, alpha, noise_var, tol, max_iter, damping)
    eta2 = solve_eta2(dist, alpha, eta1)
    supp = interference_suppression(dist, alpha, eta1, eta2)
    e_total, e_comp = expect_total_gain(dist)
    other = dist.gains[:, 1:]
    theta1_bar = alpha * float(e_comp[1:].sum())
    theta2_bar = alpha * dist.expect(
        (other * (dist.own / dist.total)[:, None]).sum(axis=1))
    return DetEqSolution(eta1=eta1, eta2=eta2, suppression=supp,
                         theta1_bar=theta1_bar, theta2_bar=theta2_bar,
                         mean_total_gain=e_total, alpha=alpha,
                         noise_var=noise_var)


def eta1_perfect_map(dist: FadingDistribution, alpha: float, noise_var: float,
                     x: float) -> float:
    """One application of the perfect-estimate trace map at x."""
    _, e_comp = expect_total_gain(dist)
    own = dist.own
    return 1.0 / (noise_var + alpha * float(e_comp[1:].sum())
                  + alpha * dist.expect(own / (1.0 + own * x)))


def solve_eta1_perfect(dist: FadingDistribution, alpha: float, noise_var: float,
                       tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                       damping: float = DEFAULT_DAMPING) -> float:
    """Trace limit of the inverse perfect-estimate filter matrix."""
    _check_alpha_noise(alpha, noise_var)
    e_total, _ = expect_total_gain(dist)
    x0 = 1.0 / (noise_var + alpha * e_total)
    return _damped_fixed_point(
        lambda x: eta1_perfect_map(dist, alpha, noise_var, x), x0, tol,
        max_iter, damping, "perfect-estimate eta1")


def perfect_suppression(dist: FadingDistribution, alpha: float, noise_var: float,
                        eta1_perfect: float | None = None) -> float:
    """Suppression achieved with an error-free estimate.

    E[B] minus this constant is the residual averaged interference of the
    perfect-estimate MMSE receiver, the benchmark the contaminated-estimate
    suppression is compared against.
    """
    if eta1_perfect is None:
        eta1_perfect = solve_eta1_perfect(dist, alpha, noise_var)
    own = dist.own
    return dist.expect(own * own * eta1_perfect / (1.0 + own * eta1_perfect))


def generalized_sinr(signal_bar: float, pilot_bar: float, inter_bar: float,
                     alpha: float, noise_var: float) -> float:
    """SINR(c) = signal_bar / (noise_var + pilot_bar + alpha * inter_bar)."""
    if signal_bar <= 0.0:
        raise InvalidInputError("signal_bar must be positive")
    if pilot_bar < 0.0 or inter_bar < 0.0:
        raise InvalidInputError("power terms must be nonnegative")
    _check_alpha_noise(alpha, noise_var)
    return signal_bar / (noise_var + pilot_bar + alpha * inter_bar)


def sinr_mmse_pilot(profile: UserGainProfile, det: DetEqSolution) -> float:
    """Limiting SINR of the MMSE receiver built on a contaminated estimate."""
    return generalized_sinr(profile.signal_bar, profile.pilot_bar,
                            det.inter_mmse, det.alpha, det.noise_var)


def sinr_mf_pilot(profile: UserGainProfile, dist: FadingDistribution,
                  alpha: float, noise_var: float) -> float:
    """Limiting SINR of the matched filter built on a contaminated estimate."""
    e_total, _ = expect_total_gain(dist)
    return generalized_sinr(profile.signal_bar, profile.pilot_bar, e_total,
                            alpha, noise_var)


def sinr_mmse_perfect(profile: UserGainProfile, dist: FadingDistribution,
                      alpha: float, noise_var: float,
                      eta1_perfect: float | None = None) -> float:
    """Limiting SINR of the MMSE receiver with an error-free estimate."""
    if eta1_perfect is None:
        eta1_perfect = solve_eta1_perfect(dist, alpha, noise_var)
    return profile.own_gain * eta1_perfect


def asymptotic_report(profile: UserGainProfile, dist: FadingDistribution,
                      alpha: float, noise_var: float) -> AsymptoticSinrReport:
    """Evaluate all three limiting SINRs and their power decomposition."""
    det = solve_det_eq(dist, alpha, noise_var)
    eta1_star = solve_eta1_perfect(dist, alpha, noise_var)
    inter_perfect = det.mean_total_gain - perfect_suppression(
        dist, alpha, noise_var, eta1_star)
    return AsymptoticSinrReport(
        mf_pilot=sinr_mf_pilot(profile, dist, alpha, noise_var),
        mmse_pilot=sinr_mmse_pilot(profile, det),
        mmse_perfect=sinr_mmse_perfect(profile, dist, alpha, noise_var,
                                       eta1_star),
        signal_bar=profile.signal_bar,
        pilot_bar=profile.pilot_bar,
        inter_mf=det.inter_mf,
        inter_mmse=det.inter_mmse,
        inter_perfect=inter_perfect,
    )


def stieltjes_map(z: float, dist: FadingDistribution, alpha: float,
                  m: float) -> float:
    """One application of the Stieltjes fixed-point map at m."""
    p = dist.est_gain
    return 1.0 / (-z + alpha * dist.expect(p / (1.0 + p * m)))


def stieltjes_m(z: float, dist: FadingDistribution, alpha: float,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                damping: float = DEFAULT_DAMPING) -> float:
    """Stieltjes transform of the limiting estimate-Gram spectrum, z < 0.

    Evaluated on the negative real axis, where the filter-matrix trace
    limits live: eta1 equals m(z) at -z = theta1_bar + theta2_bar +
    noise_var.
    """
    if not np.isfinite(z) or z >= 0.0:
        raise InvalidInputError("z must be a negative real")
    if alpha < 0.0:
        raise InvalidInputError("alpha must be nonnegative")
    return _damped_fixed_point(
        lambda m: stieltjes_map(z, dist, alpha, m), -1.0 / z, tol, max_iter,
        damping, "stieltjes transform")


def stieltjes_m_derivative(z: float, dist: FadingDistribution, alpha: float,
                           m: float | None = None) -> float:
    """d m / d z on the negative real axis, via implicit differentiation.

    The derivative of the Stieltjes equation is the eta2 expression at
    eta1 = m, so at -z = theta1_bar + theta2_bar + noise_var this is the
    second trace limit eta2.
    """
    if m is None:
        m = stieltjes_m(z, dist, alpha)
    return solve_eta2(dist, alpha, m)
