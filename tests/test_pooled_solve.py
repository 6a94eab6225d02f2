"""One pooled solve gives every in-cell user's MMSE filter, up to scale.

Let A = sum_k beta_1k v_k v_k^H + reg I over all K in-cell users, with v_k
user k's estimate (pilot MMSE) or true channel (perfect MMSE) and reg
shared by the cell. By Sherman-Morrison, user k's pilot-MMSE matrix
A - beta_1k v_k v_k^H gives (A - beta_1k v_k v_k^H)^-1 v_k proportional to
A^-1 v_k; the perfect filter's matrix is A itself. SINR does not depend on
a filter's scale, so one solve with K right-hand sides serves the cell. By
push-through, A^-1 V = V (D V^H V + reg I)^-1 = V G^-1 D^-1 for
G = V^H V + reg D^-1, so the solve is K x K and Hermitian.

The pooled SINRs are checked against today's per-user pipeline: the
user-1 filters directly, and user k's with users 1 and k swapped in every
cell and the estimate rerun. Pooling every user makes the large samples
of the convergence-slope oracle cheap.
"""

import numpy as np
import pytest

from ulmimo import asymptotic as la
from ulmimo import montecarlo as mc
from ulmimo.fading import FadingDistribution
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario

REL = 1e-9


def pooled_sinrs(V: np.ndarray, d: np.ndarray, reg: float,
                 real: mc.ChannelRealization) -> np.ndarray:
    """Empirical SINR of each in-cell user's MMSE filter, length K.

    ``V`` is (M, K), column k user k's filter direction, ``d`` the gains
    beta_1k and ``reg`` the cell's regularizer. Powers split as in
    ``mc.empirical_sinr``: signal from user k of cell 1, contamination from
    user k of the other cells, interference from every other user.
    """
    G = V.conj().T @ V
    G[np.diag_indices_from(G)] += reg / d
    C = V @ np.linalg.inv(G)  # column k proportional to A^-1 v_k
    proj = real.small_scale @ C.conj()  # (B, K, K): c_k^H h_ji at [j, i, k]
    powers = real.gains[:, :, None] * np.abs(proj) ** 2
    own = np.eye(real.K, dtype=bool)
    same = powers[:, own]  # (B, K): each filter's own pilot group
    inter = np.where(own, 0.0, powers).sum(axis=(0, 1))
    noise = real.noise_var * (np.abs(C) ** 2).sum(axis=0)
    return same[0] / (noise + same[1:].sum(axis=0) + inter)


def estimate(real, mode, seed, sequences=None):
    if mode == "noiseless":
        return mc.pilot_estimate_noiseless(real)
    # a fresh generator each call, so a rerun sees the same pilot noise
    return mc.training_based_estimate(real, sequences, 10.0 ** 2.8,
                                      seed_substream(seed, "pilot"))


def trial(scenario, M, K, mode, seed=0):
    real = mc.draw_channels(parse_scenario(scenario), K, M,
                            seed_substream(seed, "channel"))
    sequences = mc.generate_pilot_sequences(K, real.B,
                                            seed_substream(seed, "sequences"))
    return real, sequences, estimate(real, mode, seed, sequences)


def both_pooled(real, est):
    theta1, theta2 = mc.theta_effective(real, est)
    pilot = pooled_sinrs(est.estimates.T, real.gains[0],
                         theta1 + theta2 + real.noise_var, real)
    perfect = pooled_sinrs(real.small_scale[0].T, real.gains[0],
                           theta1 + real.noise_var, real)
    return pilot, perfect


def per_user(real, est):
    """User 1's pilot-MMSE and perfect-MMSE SINR from today's filters."""
    return (mc.empirical_sinr(mc.mmse_filter_pilot(est, real), real).sinr,
            mc.empirical_sinr(mc.mmse_filter_perfect(real), real).sinr)


# today's filters solve with n = K - 1 (pilot) or K (perfect) interferers:
# low-rank when n < M/2, dense LU when n >= M/2
SIZES = {"lowrank": (40, 8), "dense": (12, 10)}
CASES = pytest.mark.parametrize(
    "scenario, mode, path",
    [(s, m, p) for s in ("idealized-01", "cost231-7cell")
     for m in ("noiseless", "training") for p in SIZES])


def test_sizes_reach_both_solve_paths():
    (M, K), (M_d, K_d) = SIZES["lowrank"], SIZES["dense"]
    assert K < M / 2 and K_d - 1 >= M_d / 2


@CASES
def test_user_one_column_matches_todays_filters(scenario, mode, path):
    real, _, est = trial(scenario, *SIZES[path], mode)
    pilot, perfect = both_pooled(real, est)
    np.testing.assert_allclose([pilot[0], perfect[0]], per_user(real, est),
                               rtol=REL, atol=0.0)


@CASES
def test_every_column_matches_todays_filters_with_users_swapped(
        scenario, mode, path):
    real, sequences, est = trial(scenario, *SIZES[path], mode)
    pilot, perfect = both_pooled(real, est)
    for k in range(1, real.K):
        order = np.arange(real.K)
        order[[0, k]] = k, 0
        swapped = mc.ChannelRealization(
            small_scale=real.small_scale[:, order], gains=real.gains[:, order],
            noise_var=real.noise_var)
        est_k = estimate(swapped, mode, 0, sequences[:, order])
        np.testing.assert_allclose([pilot[k], perfect[k]],
                                   per_user(swapped, est_k),
                                   rtol=REL, atol=0.0, err_msg=f"user {k}")


def rate_gap_slopes(scenario, law, label):
    """Fitted slopes of log |mean rate - limit rate| against log M for the
    pilot- and perfect-MMSE receivers, at alpha = 0.5 with noiseless pilots
    and about 20,000 pooled users per M. The limit rate averages the rows
    of the gain law equally, as the scenario hands them out."""
    alpha, Ms = 0.5, (16, 32, 64, 128)
    _, *limits = la.det_eq_sinr_rows(law, alpha, scenario.noise_var)
    gaps = []
    for M in Ms:
        K = mc.users_per_cell(alpha, M)
        rates = ([], [])
        for t in range(20_000 // K):
            real = mc.draw_channels(scenario, K, M,
                                    seed_substream(0, f"{label}-{M}", t))
            pooled = both_pooled(real, mc.pilot_estimate_noiseless(real))
            for rate, sinr in zip(rates, pooled):
                rate.append(np.log2(1.0 + sinr))
        gaps.append([np.concatenate(rate).mean() - np.log2(1.0 + limit).mean()
                     for rate, limit in zip(rates, limits)])
    return np.polyfit(np.log(Ms), np.log(np.abs(gaps)), 1)[0]


# Deterministic-equivalent theory puts an O(1/M) bias on the mean of
# log2(1 + SINR), so log |mean rate - limit rate| falls with slope -1 in
# log M. idealized-01 at alpha = 0.5, noiseless pilots, about 20,000 pooled
# users per M: over seeds 0-13 the fitted slopes spanned -0.92 to -1.06
# (pilot MMSE) and -0.86 to -1.11 (perfect MMSE)
def test_rate_gap_to_the_limit_falls_as_one_over_m(seven_cell_001):
    slopes = rate_gap_slopes(parse_scenario("idealized-01"), seven_cell_001,
                             "slope")
    assert np.all(np.abs(slopes + 1.0) <= 0.25), slopes


class DrawnLaw:
    """Scenario stub that hands user k of every trial row k mod n of a fixed
    gain law; K is a multiple of n, so every row appears equally often."""

    def __init__(self, rows: np.ndarray, noise_var: float):
        self.rows, self.cells, self.noise_var = rows, rows.shape[1], noise_var

    def gain_matrix(self, K, rng):
        return self.rows[np.arange(K) % len(self.rows)].T.copy()


def log_normal_law(B: int) -> np.ndarray:
    """Eight rows of B log-normal gains with 6 dB spread: the own cell's
    centred at 0 dB, the other cells' at -10 dB."""
    mean_db = np.r_[0.0, np.full(B - 1, -10.0)]
    rng = np.random.default_rng(B)
    return 10.0 ** ((mean_db + 6.0 * rng.standard_normal((8, B))) / 10.0)


# The same O(1/M) bias on a spread-out law, the case the drop-model results
# rest on: each user's limit is its own row's. At alpha = 0.5 and
# noise_var = 0.1, over 36 other streams per law the fitted slopes of both
# receivers spanned -0.92 to -1.13 (B = 2), -0.92 to -1.23 (B = 3) and -0.80
# to -1.23 (B = 7); the perfect-MMSE slope is the noisier, its M = 128 gap
# about 0.006 bits against a standard error of 0.001. The streams below read
# -0.97 and -0.98, -0.87 and -0.77, and -1.08 and -1.07 (pilot, perfect).
# Each law takes 1.6 to 3.5 s.
@pytest.mark.parametrize("B", [2, 3, 7])
def test_rate_gap_on_a_drawn_law_falls_as_one_over_m(B):
    rows = log_normal_law(B)
    slopes = rate_gap_slopes(DrawnLaw(rows, 0.1), FadingDistribution(rows),
                             f"law-{B}")
    assert np.all(np.abs(slopes + 1.0) <= 0.25), slopes
