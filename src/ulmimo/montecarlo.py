"""Finite-dimension Monte Carlo of the multi-cell uplink.

One realization holds the small-scale channel vectors of all B*K users to
the receiving base station (cell 1 by convention), entrywise i.i.d.
circularly symmetric complex Gaussian with variance 1/M, together with
their large-scale gains. From a realization we form channel estimates
(repeated pilots, noiseless or noisy, or per-cell training sequences),
each with the error variances that set the MMSE regularizer, build the
matched and MMSE receive filters, and measure the empirical SINR as a
conditional power decomposition: no data symbols are ever drawn, the four
powers are quadratic forms in the filter.

A trial frees and reallocates the same arrays every time; the CLI sets the
C heap's thresholds so that they stay in the heap between trials.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalError
from .rng import complex_gaussian

LINEAR_SOLVE_TOL = 1e-10
TRAINING_COND_LIMIT = 1e12


@dataclass
class ChannelRealization:
    """One finite-M draw of the whole system, seen from base station 1."""

    small_scale: np.ndarray  # (B, K, M) complex, i.i.d. CN(0, 1/M) entries
    gains: np.ndarray        # (B, K) linear large-scale gains to BS 1
    noise_var: float
    B: int = field(init=False)  # B, K and M are read from small_scale.shape
    K: int = field(init=False)
    M: int = field(init=False)

    def __post_init__(self):
        if (self.small_scale.ndim != 3
                or self.gains.shape != self.small_scale.shape[:2]):
            raise InvalidInputError(
                "small_scale must be (B, K, M) and gains (B, K)")
        self.B, self.K, self.M = self.small_scale.shape
        if not np.all(self.gains > 0.0):
            raise InvalidInputError("large-scale gains must be positive")
        if self.noise_var <= 0.0:
            raise InvalidInputError("noise_var must be positive")

    def total_gain_per_user(self) -> np.ndarray:
        """beta^(k) = sum_j beta_jk, length K."""
        return self.gains.sum(axis=0)


@dataclass
class EstimateSet:
    """Channel estimates of the K in-cell users and their error variances.

    ``error_cov_scalars[k]`` is the scalar s such that the estimation
    error of user k has covariance (s/M) I.
    """

    estimates: np.ndarray          # (K, M) complex
    error_cov_scalars: np.ndarray  # (K,)


@dataclass
class SinrBreakdown:
    """Empirical conditional powers at the filter output, and their SINR."""

    p_signal: float
    p_noise: float
    p_contam: float
    p_inter: float

    @property
    def sinr(self) -> float:
        return self.p_signal / (self.p_noise + self.p_contam + self.p_inter)


def users_per_cell(alpha: float, M: int) -> int:
    """K = round(alpha * M); the limit treats alpha as exact, finite M rounds."""
    if M < 1:
        raise InvalidInputError(
            f"the antenna count must be at least 1, got {reprlib.repr(M)}")
    try:
        K = int(round(alpha * M))
    except OverflowError:  # M past the float range, or alpha * M infinite
        raise InvalidInputError(
            f"alpha={alpha} times M={reprlib.repr(M)} overflows") from None
    if K < 1:
        raise InvalidInputError(
            f"alpha={alpha} with M={reprlib.repr(M)} rounds to zero users per cell")
    return K


def draw_channel_matrix(B: int, K: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """(B, K, M) i.i.d. CN(0, 1/M) small-scale vectors."""
    return complex_gaussian(rng, (B, K, M), 1.0 / M)


def draw_channels(scenario, K: int, M: int,
                  rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization of K users per cell: gains first, then channels.

    Both consume the same stream in a fixed order, so two estimate modes
    run from identical substreams see identical channels (paired
    comparisons); pilot-noise draws live on a separate stream.
    """
    gains = scenario.gain_matrix(K, rng)
    h = draw_channel_matrix(scenario.cells, K, M, rng)
    return ChannelRealization(small_scale=h, gains=gains,
                              noise_var=scenario.noise_var)


# ---------------------------------------------------------------------------
# channel estimation
# ---------------------------------------------------------------------------

def _error_variances(real: ChannelRealization, inv_rho: float) -> np.ndarray:
    """s_k = (sum_{j>=2} beta_jk + 1/rho) / (beta^(k) + 1/rho), 1/rho = 0 noiseless."""
    return ((real.gains[1:].sum(axis=0) + inv_rho)
            / (real.total_gain_per_user() + inv_rho))


def pilot_estimate_noiseless(real: ChannelRealization) -> EstimateSet:
    """Exact pilot-contaminated estimate (infinite pilot power limit).

    hhat_1k = sqrt(beta_1k)/beta^(k) * sum_j sqrt(beta_jk) h_jk.
    """
    return pilot_estimate_noisy(real, np.inf, None)


def pilot_estimate_noisy(real: ChannelRealization, rho_p: float,
                         rng: np.random.Generator | None) -> EstimateSet:
    """Pilot-contaminated estimate at pilot SNR rho_p; rho_p = inf draws no noise.

    The pilot noise is drawn as an (M, K) CN(0, I/M) matrix, as in the
    training estimator, so identical substreams give comparable results.
    """
    if not rho_p > 0.0:
        raise InvalidInputError("rho_p must be positive")
    inv_rho = 1.0 / rho_p
    combo = (np.sqrt(real.gains)[:, :, None] * real.small_scale).sum(axis=0)
    if rho_p < np.inf:
        noise = complex_gaussian(rng, (real.M, real.K), 1.0 / real.M)
        combo = combo + noise.T / np.sqrt(rho_p)
    gain = np.sqrt(real.gains[0]) / (real.total_gain_per_user() + inv_rho)
    return EstimateSet(estimates=gain[:, None] * combo,
                       error_cov_scalars=_error_variances(real, inv_rho))


def generate_pilot_sequences(K: int, B: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Independent per-cell training: a Haar-random unitary basis per cell.

    Returns the (B, K, K) sequences: row k of cell j is the length-K
    training sequence of user k in cell j, and within a cell the K
    sequences are orthonormal.
    """
    if K < 1 or B < 1:
        raise InvalidInputError("K and B must be at least 1")
    z = np.stack([complex_gaussian(rng, (K, K), 1.0) for _ in range(B)])
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the law is exactly Haar
    diag = np.diagonal(r, axis1=1, axis2=2)
    phases = diag / np.abs(diag)
    return np.ascontiguousarray(np.swapaxes(q * phases[:, None, :], 1, 2))


def training_based_estimate(real: ChannelRealization, sequences: np.ndarray,
                            pilot_snr: float,
                            rng: np.random.Generator) -> EstimateSet:
    """Full linear MMSE estimate from the K-symbol training observation.

    ``sequences`` are the (B, K, K) per-cell sequences of
    :func:`generate_pilot_sequences` and ``pilot_snr`` the linear pilot
    SNR. Forms the (M, K) pilot observation with fresh noise, then applies the
    regularized K x K inverse. Error variances are reported with the
    repeated-pilot formula, which the filter uses as its regularizer; the
    exact covariance under non-orthogonal cross-cell sequences depends on
    the realized sequence crosstalk and is not worth tracking for that
    purpose.
    """
    if sequences.shape != (real.B, real.K, real.K):
        raise InvalidInputError("sequence shape does not match realization")
    if not pilot_snr > 0.0:
        raise InvalidInputError("pilot_snr must be positive")

    noise = complex_gaussian(rng, (real.M, real.K), 1.0 / real.M)
    Y = noise / np.sqrt(pilot_snr)
    A = np.eye(real.K, dtype=complex) / pilot_snr
    for j, seq in enumerate(sequences):
        weighted = real.small_scale[j].T * np.sqrt(real.gains[j])  # (M, K)
        Y = Y + weighted @ seq.conj()
        A = A + seq.T @ (real.gains[j][:, None] * seq.conj())

    # A is Hermitian: cond is the eigenvalue ratio, infinite unless A > 0
    lam = np.linalg.eigvalsh(A)
    cond = lam[-1] / lam[0] if lam[0] > 0.0 else np.inf
    if cond > TRAINING_COND_LIMIT:
        raise NumericalError(
            f"training matrix condition number {cond:.3e} exceeds "
            f"{TRAINING_COND_LIMIT:.0e}")
    X = np.linalg.solve(A, sequences[0].T)  # columns A^-1 Psi_1k
    est = (Y @ X).T * np.sqrt(real.gains[0])[:, None]
    return EstimateSet(estimates=est,
                       error_cov_scalars=_error_variances(real, 1.0 / pilot_snr))


# ---------------------------------------------------------------------------
# effective noise constants and receive filters
# ---------------------------------------------------------------------------

def _theta1(real: ChannelRealization) -> float:
    """theta1 = sum_{j>=2,k} beta_jk / M, the unestimated other-cell load."""
    return float(real.gains[1:].sum() / real.M)


def theta_effective(real: ChannelRealization,
                    est: EstimateSet) -> tuple[float, float]:
    """Effective-noise constants (theta1, theta2) of the pilot MMSE filter:
    theta1 of :func:`_theta1`, and theta2 = sum_k beta_1k s_k / M the in-cell
    estimation error, s_k the estimate's error variance scalars."""
    theta2 = (real.gains[0] * est.error_cov_scalars).sum() / real.M
    return _theta1(real), float(theta2)


def _solve_regularized_gram(V: np.ndarray, d: np.ndarray, reg: float,
                            b: np.ndarray) -> np.ndarray:
    """Solve A c = b, A = V diag(d) V^H + reg I, for tall V.

    The column count n picks the path: the rank-n subspace solve when n
    stays below M/2, the dense LU solve otherwise. The solution, refined
    once (factoring again) if need be, must have a normwise backward error
    ||b - A c|| / (||A|| ||c|| + ||b||) of at most LINEAR_SOLVE_TOL, with
    ||A|| bounded by reg + max(d) ||V||_F^2. A NaN in V or b breaks that
    contract like a large error.
    """
    M, n = V.shape
    Vh = V.conj().T

    def matvec(x):
        return reg * x + V @ (d * (Vh @ x))

    if n < M / 2:
        inner = Vh @ V
        inner[np.diag_indices(n)] += reg / d

        def solve(rhs):
            return (rhs - V @ np.linalg.solve(inner, Vh @ rhs)) / reg
    else:
        S = (V * d) @ Vh
        S[np.diag_indices(M)] += reg

        def solve(rhs):
            return np.linalg.solve(S, rhs)

    a_norm = reg + d.max(initial=0.0) * np.vdot(Vh, Vh).real
    b_norm = np.linalg.norm(b)
    c = solve(b)
    for refined in (False, True):
        r = b - matvec(c)
        # b = 0 is solved exactly by c = 0
        error = np.linalg.norm(r) / ((a_norm * np.linalg.norm(c) + b_norm) or 1.0)
        if error <= LINEAR_SOLVE_TOL:
            return c
        if not refined:
            c = c + solve(r)
    raise NumericalError(f"filter solve residual {error:.3e} above "
                         f"{LINEAR_SOLVE_TOL} (normwise backward error)")


def mmse_filter_pilot(est: EstimateSet, real: ChannelRealization) -> np.ndarray:
    """MMSE receiver (M,) for user 1 built from contaminated estimates.

    Solves (sum_{k>=2} beta_1k hhat_1k hhat_1k^H + (theta1+theta2+s2) I) c
    = sqrt(beta_11) hhat_11, with the thetas of :func:`theta_effective`.
    User 1's own estimate is excluded from the interference sum.
    """
    theta1, theta2 = theta_effective(real, est)
    reg = theta1 + theta2 + real.noise_var
    V = est.estimates[1:].T
    b = np.sqrt(real.gains[0, 0]) * est.estimates[0]
    return _solve_regularized_gram(V, real.gains[0, 1:], reg, b)


def mmse_filter_perfect(real: ChannelRealization) -> np.ndarray:
    """MMSE receiver (M,) with error-free in-cell channel knowledge.

    The interference sum runs over all K in-cell users and the regularizer
    theta1 + s2 drops the estimation-error term.
    """
    reg = _theta1(real) + real.noise_var
    V = real.small_scale[0].T
    b = np.sqrt(real.gains[0, 0]) * real.small_scale[0, 0]
    return _solve_regularized_gram(V, real.gains[0], reg, b)


def matched_filter(est: EstimateSet) -> np.ndarray:
    """Coherent projection (M,) onto user 1's (possibly contaminated) estimate."""
    return est.estimates[0].copy()


def empirical_sinr(c: np.ndarray, real: ChannelRealization) -> SinrBreakdown:
    """Conditional power decomposition of the output of filter weights c.

    Signal is user (1,1); contamination is the same-resource users of the
    other cells; interference is everyone else; noise is the filter energy
    times the noise variance.
    """
    if c.shape != (real.M,):
        raise InvalidInputError("filter length does not match antennas")
    proj = real.small_scale @ c.conj()          # (B, K) of c^H h_jk
    powers = real.gains * np.abs(proj) ** 2
    return SinrBreakdown(
        p_signal=float(powers[0, 0]),
        p_noise=float(real.noise_var * np.vdot(c, c).real),
        p_contam=float(powers[1:, 0].sum()),
        p_inter=float(powers[:, 1:].sum()),
    )
