import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ulmimo import asymptotic as la
from ulmimo import montecarlo as mc
from ulmimo.errors import InvalidInputError, NumericalError
from ulmimo.geometry import idealized_gains
from ulmimo.rng import complex_gaussian, seed_substream
from ulmimo.scenario import parse_scenario, scenario_from_dict, scenario_to_dict


def idealized_realization(M, K, B=7, beta=0.01, noise_var=0.01, seed=0,
                          tag="real"):
    rng = seed_substream(seed, tag)
    gains = np.full((B, K), beta)
    gains[0] = 1.0
    return mc.ChannelRealization(
        small_scale=mc.draw_channel_matrix(B, K, M, rng), gains=gains,
        noise_var=noise_var)


def pilot_filter_reference(real, est):
    """The noiseless-pilot MMSE filter solved densely from its definition."""
    other = real.gains[1:].sum(axis=0)
    theta1 = other.sum() / real.M
    theta2 = (real.gains[0] * other / real.gains.sum(axis=0)).sum() / real.M
    S = (theta1 + theta2 + real.noise_var) * np.eye(real.M, dtype=complex)
    for k in range(1, real.K):
        S += real.gains[0, k] * np.outer(est.estimates[k],
                                         est.estimates[k].conj())
    return np.linalg.solve(S, np.sqrt(real.gains[0, 0]) * est.estimates[0])


class TestDrawChannels:
    def test_deterministic_given_seed(self):
        sc = parse_scenario("idealized-01")
        a = mc.draw_channels(sc, 4, 8, seed_substream(1, "ch"))
        b = mc.draw_channels(sc, 4, 8, seed_substream(1, "ch"))
        assert np.array_equal(a.small_scale, b.small_scale)
        assert np.array_equal(a.gains, b.gains)

    def test_zero_users_rejected(self):
        from ulmimo.experiments import ALL_FILTERS, monte_carlo_sweep
        with pytest.raises(InvalidInputError, match="zero users"):
            mc.users_per_cell(0.01, 10)
        with pytest.raises(InvalidInputError, match="zero users"):
            monte_carlo_sweep(parse_scenario("idealized-01"), 10, [0.01], 1,
                              ALL_FILTERS, "noiseless", 0)
        with pytest.raises(InvalidInputError, match="alpha=nan"):
            mc.users_per_cell(float("nan"), 50)
        # a bool alpha gave M users per cell
        for alpha in (True, "0.5"):
            with pytest.raises(InvalidInputError, match="^alpha must be a real"):
                mc.users_per_cell(alpha, 50)

    @pytest.mark.parametrize("M", [0, -5])
    def test_antenna_count_below_one_rejected(self, M):
        with pytest.raises(InvalidInputError,
                           match="antenna count must be at least 1"):
            mc.users_per_cell(0.5, M)

    def test_unit_mean_norm(self):
        real = idealized_realization(1000, 40, seed=2)
        norms = np.linalg.norm(real.small_scale, axis=2) ** 2
        assert abs(norms.mean() - 1.0) < 0.1

    def test_entry_variance(self):
        real = idealized_realization(400, 50, seed=3)
        per_user_var = np.mean(np.abs(real.small_scale) ** 2, axis=2)  # ~1/M
        assert abs(per_user_var.mean() * real.M - 1.0) < 5.0 / np.sqrt(real.M)

    def test_cross_user_inner_products_shrink(self):
        real = idealized_realization(1000, 30, B=2, seed=4)
        h = real.small_scale.reshape(-1, real.M)
        inners = np.abs(h[1:] @ h[0].conj())
        assert np.quantile(inners, 0.95) < 0.07


class TestChannelRealization:
    def test_sizes_read_from_channels(self):
        real = idealized_realization(8, 3, B=2, seed=39)
        assert (real.B, real.K, real.M) == (2, 3, 8)

    def test_two_dimensional_channels_rejected(self):
        h = mc.draw_channel_matrix(1, 2, 4, seed_substream(39, "shape"))
        with pytest.raises(InvalidInputError, match="small_scale must be"):
            mc.ChannelRealization(small_scale=h[0], gains=np.ones((1, 2)),
                                  noise_var=0.01)

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (2, 3, 1), (1, 3)])
    def test_gains_not_leading_channel_shape_rejected(self, shape):
        h = mc.draw_channel_matrix(2, 3, 4, seed_substream(39, "shape"))
        with pytest.raises(InvalidInputError, match="gains"):
            mc.ChannelRealization(small_scale=h, gains=np.ones(shape),
                                  noise_var=0.01)


class TestArgumentChecks:
    """Refusals no runner trips, each with its message."""

    @pytest.mark.parametrize("call, message", [
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=0.0 * real.gains,
            noise_var=0.01), "large-scale gains must be positive"),
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=real.gains, noise_var=0.0),
         "noise_var must be positive"),
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=real.gains,
            noise_var=float("nan")), "noise_var must be positive"),
        # inf and True were accepted, and "1" raised TypeError
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=real.gains,
            noise_var=float("inf")), "noise_var must be positive and finite"),
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=real.gains, noise_var=True),
         "noise_var must be a real number"),
        (lambda real: mc.ChannelRealization(
            small_scale=real.small_scale, gains=real.gains, noise_var="1"),
         "noise_var must be a real number"),
        # each True was taken as 1
        (lambda real: mc.pilot_estimate_noisy(real, True, seed_substream(0, "p")),
         "rho_p must be a real number"),
        (lambda real: mc.training_based_estimate(
            real, mc.generate_pilot_sequences(2, 7, seed_substream(0, "q")),
            True, seed_substream(0, "t")),
         "pilot_snr must be a real number"),
        (lambda real: mc.pilot_estimate_noisy(real, 10.0, None),
         "a finite rho_p needs a generator"),
        (lambda real: mc.generate_pilot_sequences(0, 7, seed_substream(0, "q")),
         "K must be at least 1"),
        (lambda real: mc.generate_pilot_sequences(2, 0, seed_substream(0, "q")),
         "B must be at least 1"),
        (lambda real: mc.generate_pilot_sequences(2.0, 7,
                                                  seed_substream(0, "q")),
         "K must be an integer, got 2.0"),
        (lambda real: mc.generate_pilot_sequences(2, True,
                                                  seed_substream(0, "q")),
         "B must be an integer, got True"),
        (lambda real: mc.draw_channel_matrix(True, 2, 8, seed_substream(0, "h")),
         "B must be an integer, got True"),
        (lambda real: mc.draw_channel_matrix(7, 2.0, 8, seed_substream(0, "h")),
         "K must be an integer, got 2.0"),
        (lambda real: mc.draw_channel_matrix(7, 2, 8.0, seed_substream(0, "h")),
         "M must be an integer, got 8.0"),
        (lambda real: mc.training_based_estimate(
            real, mc.generate_pilot_sequences(3, 7, seed_substream(0, "q")),
            10.0, seed_substream(0, "t")),
         "sequence shape does not match realization"),
        (lambda real: mc.empirical_sinr(np.ones(real.M + 1, dtype=complex),
                                        real),
         "filter length does not match antennas"),
    ], ids=["gains", "noise-var", "noise-var-nan", "noise-var-inf",
            "noise-var-bool", "noise-var-str", "rho-p-bool", "pilot-snr-bool",
            "pilot-noise-generator",
            "sequence-users", "sequence-cells", "sequence-users-float",
            "sequence-cells-bool", "channel-cells-bool", "channel-users-float",
            "channel-antennas-float", "sequence-shape", "filter-length"])
    def test_argument_refused(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call(idealized_realization(8, 2, seed=40))


class TestNoiselessEstimate:
    def test_single_cell_exact(self):
        real = idealized_realization(16, 3, B=1, seed=5)
        est = mc.pilot_estimate_noiseless(real)
        assert np.allclose(est.estimates, real.small_scale[0], atol=1e-15)
        assert np.all(est.error_cov_scalars == 0.0)

    def test_two_cell_symmetric_average(self):
        rng = seed_substream(6, "sym")
        h = mc.draw_channel_matrix(2, 2, 8, rng)
        real = mc.ChannelRealization(small_scale=h, gains=np.ones((2, 2)),
                                     noise_var=0.01)
        est = mc.pilot_estimate_noiseless(real)
        assert np.allclose(est.estimates, (h[0] + h[1]) / 2.0, atol=1e-15)

    def test_combination_matches_einsum_reference(self):
        rng = seed_substream(7, "combo")
        h = mc.draw_channel_matrix(7, 5, 12, rng)
        gains = np.exp(rng.uniform(-10.0, 10.0, (7, 5)))
        real = mc.ChannelRealization(small_scale=h, gains=gains,
                                     noise_var=0.01)
        est = mc.pilot_estimate_noiseless(real)
        combo = np.einsum("jk,jkm->km", np.sqrt(gains), h)
        ref = (np.sqrt(gains[0]) / gains.sum(axis=0))[:, None] * combo
        assert np.array_equal(est.estimates, ref)

    def test_estimate_norm_scaling(self):
        # E||hhat||^2 = beta_1k / beta^(k); at M=500 the user average is tight
        real = idealized_realization(500, 64, seed=7)
        est = mc.pilot_estimate_noiseless(real)
        total = real.gains.sum(axis=0)
        stat = np.mean(np.linalg.norm(est.estimates, axis=1) ** 2
                       * total / real.gains[0])
        assert abs(stat - 1.0) < 0.03

    def test_error_covariance_trace(self):
        real = idealized_realization(500, 32, seed=8)
        est = mc.pilot_estimate_noiseless(real)
        err = real.small_scale[0] - est.estimates
        stat = np.mean(np.linalg.norm(err, axis=1) ** 2
                       / est.error_cov_scalars)
        assert abs(stat - 1.0) < 0.05


class TestNoisyEstimate:
    def test_converges_to_noiseless_at_high_pilot_power(self):
        real = idealized_realization(32, 4, seed=9)
        clean = mc.pilot_estimate_noiseless(real)
        noisy = mc.pilot_estimate_noisy(real, 1e12, seed_substream(9, "pn"))
        assert np.linalg.norm(noisy.estimates - clean.estimates) < 1e-4

    def test_single_cell_prefactor(self):
        # B=1, beta=1: hhat = (h + n/sqrt(rho))/(1 + 1/rho), reconstructed
        # from the same noise stream
        real = idealized_realization(16, 3, B=1, seed=10)
        rho = 10.0
        est = mc.pilot_estimate_noisy(real, rho, seed_substream(10, "pn"))
        noise = complex_gaussian(seed_substream(10, "pn"), (16, 3), 1.0 / 16)
        expected = (real.small_scale[0] + noise.T / np.sqrt(rho)) / (1 + 1 / rho)
        assert np.allclose(est.estimates, expected, atol=1e-15)
        assert np.allclose(est.error_cov_scalars, (1 / rho) / (1 + 1 / rho))

    def test_error_covariance_trace(self):
        # sample mean of ||err||^2 over 100 trials vs the stated scalar
        vals = []
        for t in range(100):
            real = idealized_realization(500, 8, seed=11, tag=f"ecov{t}")
            rho = 10 ** 2.8
            est = mc.pilot_estimate_noisy(real, rho, seed_substream(11, f"pn{t}"))
            err = real.small_scale[0] - est.estimates
            vals.append(np.mean(np.linalg.norm(err, axis=1) ** 2))
        total = 1.06
        expected = (0.06 + 1 / rho) / (total + 1 / rho)
        assert abs(np.mean(vals) / expected - 1.0) < 0.05

    def test_rejects_nonpositive_power(self):
        real = idealized_realization(8, 2, seed=12)
        with pytest.raises(InvalidInputError):
            mc.pilot_estimate_noisy(real, 0.0, seed_substream(12, "pn"))
        seqs = mc.generate_pilot_sequences(2, 7, seed_substream(12, "seq"))
        with pytest.raises(InvalidInputError, match="pilot_snr"):
            mc.training_based_estimate(real, seqs, 0.0, seed_substream(12, "pn"))


class TestPilotSequences:
    def test_orthonormal_within_cells(self):
        seqs = mc.generate_pilot_sequences(16, 3, seed_substream(13, "seq"))
        for j in range(3):
            gram = seqs[j] @ seqs[j].conj().T
            assert np.max(np.abs(gram - np.eye(16))) < 1e-12

    # the training runs use the sequences unchecked: every cell's Gram
    # matrix must be the identity to 1e-12 at every size they draw
    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("K", [1, 2, 10, 25, 50])
    def test_orthonormal_at_every_run_size(self, K, B):
        for seed in range(20):
            seqs = mc.generate_pilot_sequences(K, B, seed_substream(seed, "seq"))
            assert seqs.shape == (B, K, K)
            gram = seqs @ np.swapaxes(seqs.conj(), 1, 2)
            assert np.abs(gram - np.eye(K)).max() <= 1e-12, seed

    def test_matches_per_cell_reference(self):
        seqs = mc.generate_pilot_sequences(5, 3, seed_substream(17, "seq"))
        rng = seed_substream(17, "seq")
        for j in range(3):
            q, r = np.linalg.qr(complex_gaussian(rng, (5, 5), 1.0))
            ref = (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T
            assert np.array_equal(seqs[j], ref)

    def test_cross_cell_coherence_media(self):
        seqs = mc.generate_pilot_sequences(64, 2, seed_substream(14, "seq"))
        cross = np.abs(seqs[0] @ seqs[1].conj().T)
        med = np.median(cross)
        assert 0.06 <= med <= 0.20  # concentrates near 1/sqrt(K) = 0.125


class TestTrainingEstimate:
    def test_single_cell_scalar_shrinkage(self):
        # orthonormal pilots diagonalize the K x K system: per user,
        # hhat = beta/(beta + 1/rho) (h + noise-projection/sqrt(rho))/beta ...
        # verified against the direct formula built from the same noise
        M, K, rho = 16, 4, 25.0
        real = idealized_realization(M, K, B=1, seed=15)
        seqs = np.broadcast_to(np.eye(K, dtype=complex), (1, K, K)).copy()
        est = mc.training_based_estimate(real, seqs, rho, seed_substream(15, "tn"))
        noise = complex_gaussian(seed_substream(15, "tn"), (M, K), 1.0 / M)
        beta = real.gains[0]
        expected = ((real.small_scale[0] + noise.T / np.sqrt(rho))
                    * (beta / (beta + 1.0 / rho))[:, None])
        assert np.allclose(est.estimates, expected, atol=1e-12)

    def test_repeated_identity_basis_matches_noisy_estimate(self):
        # same sequences in every cell reduce the training estimator to the
        # contaminated-estimate formula, with identical noise draws
        M, K, B, rho = 24, 5, 7, 10 ** 2.8
        real = idealized_realization(M, K, B=B, seed=16)
        seqs = np.broadcast_to(np.eye(K, dtype=complex), (B, K, K)).copy()
        trained = mc.training_based_estimate(real, seqs, rho,
                                             seed_substream(16, "tn"))
        noisy = mc.pilot_estimate_noisy(real, rho, seed_substream(16, "tn"))
        rel = (np.linalg.norm(trained.estimates - noisy.estimates)
               / np.linalg.norm(noisy.estimates))
        assert rel < 1e-10

    def test_repeated_unitary_basis_matches_direct_formula(self):
        M, K, B, rho = 12, 4, 3, 50.0
        real = idealized_realization(M, K, B=B, seed=17)
        one_cell = mc.generate_pilot_sequences(K, 1, seed_substream(17, "u"))
        seqs = np.broadcast_to(one_cell[0], (B, K, K)).copy()
        est = mc.training_based_estimate(real, seqs, rho, seed_substream(17, "tn"))
        noise = complex_gaussian(seed_substream(17, "tn"), (M, K), 1.0 / M)
        combo = np.einsum("jk,jkm->km", np.sqrt(real.gains), real.small_scale)
        proj = (noise @ seqs[0].T).T   # row k: the noise seen through user k's sequence
        total = real.gains.sum(axis=0)
        expected = (np.sqrt(real.gains[0]) / (total + 1 / rho))[:, None] * (
            combo + proj / np.sqrt(rho))
        assert np.allclose(est.estimates, expected, atol=1e-12)

    def test_complex64_sequences_computed_in_complex128(self):
        real = idealized_realization(20, 10, seed=21)
        seqs = mc.generate_pilot_sequences(10, 7, seed_substream(21, "u"))
        narrow = seqs.astype(np.complex64)
        est = mc.training_based_estimate(real, narrow, 10 ** 2.8,
                                         seed_substream(21, "tn"))
        wide = mc.training_based_estimate(real, narrow.astype(complex),
                                          10 ** 2.8, seed_substream(21, "tn"))
        assert est.estimates.dtype == complex
        assert np.array_equal(est.estimates, wide.estimates)

    def test_condition_guard(self):
        M, K = 8, 3
        rng = seed_substream(18, "cond")
        gains = np.array([[1e9, 1e-6, 1e-6]])
        real = mc.ChannelRealization(
            small_scale=mc.draw_channel_matrix(1, K, M, rng), gains=gains,
            noise_var=0.01)
        seqs = np.broadcast_to(np.eye(K, dtype=complex), (1, K, K)).copy()
        with pytest.raises(NumericalError, match="training matrix condition"):
            mc.training_based_estimate(real, seqs, 1e6, seed_substream(18, "tn"))

    # one cell with identity sequences gives A = diag(1/rho + beta_k), so at
    # rho = 1e12 and beta = (beta_1, 1e-30, 1e-30) its condition number is
    # about 1 + 1e12 beta_1
    @staticmethod
    def near_limit(beta_1):
        K, M = 3, 4
        real = mc.ChannelRealization(
            small_scale=mc.draw_channel_matrix(1, K, M,
                                               seed_substream(19, "cond")),
            gains=np.array([[beta_1, 1e-30, 1e-30]]), noise_var=0.01)
        return real, np.eye(K, dtype=complex)[None]

    def test_condition_just_past_the_limit_refused(self):
        real, seqs = self.near_limit(1.0)
        with pytest.raises(NumericalError) as info:
            mc.training_based_estimate(real, seqs, 1e12,
                                       seed_substream(19, "tn"))
        assert str(info.value) == ("training matrix condition number "
                                   "1.000e+12 exceeds 1e+12")

    def test_condition_just_below_the_limit_asks_the_eigenvalues(
            self, monkeypatch):
        calls = []
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(a):
            calls.append(a.shape)
            return real_eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        real, seqs = self.near_limit(0.999999)
        mc.training_based_estimate(real, seqs, 1e12, seed_substream(19, "tn"))
        assert calls == [(3, 3)]

    def test_condition_far_below_the_limit_skips_the_eigenvalues(
            self, monkeypatch):
        def eigvalsh(a):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        real = idealized_realization(50, 50, seed=20)
        seqs = mc.generate_pilot_sequences(50, 7, seed_substream(20, "u"))
        mc.training_based_estimate(real, seqs, 10 ** 2.8,
                                   seed_substream(20, "tn"))


def per_cell_pilot_sequences(K, B, rng):
    """generate_pilot_sequences with one Gaussian draw per cell."""
    z = np.stack([complex_gaussian(rng, (K, K), 1.0) for _ in range(B)])
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    phases = diag / np.abs(diag)
    return np.ascontiguousarray(np.swapaxes(q * phases[:, None, :], 1, 2))


def per_cell_training_estimate(real, sequences, pilot_snr, rng):
    """training_based_estimate summing one cell's products at a time."""
    noise = complex_gaussian(rng, (real.M, real.K), 1.0 / real.M)
    Y = noise / np.sqrt(pilot_snr)
    A = np.eye(real.K, dtype=complex) / pilot_snr
    for j, seq in enumerate(sequences):
        weighted = real.small_scale[j].T * np.sqrt(real.gains[j])
        Y = Y + weighted @ seq.conj()
        A = A + seq.T @ (real.gains[j][:, None] * seq.conj())
    X = np.linalg.solve(A, sequences[0].T)
    inv_rho = 1.0 / pilot_snr
    error = ((real.gains[1:].sum(axis=0) + inv_rho)
             / (real.gains.sum(axis=0) + inv_rho))
    return (Y @ X).T * np.sqrt(real.gains[0])[:, None], error


def shadowed_cost231():
    data = scenario_to_dict(parse_scenario("cost231-7cell"))
    data["gain_model"]["shadowing_sigma_db"] = 8.0
    return scenario_from_dict(data)


class TestTrainingPathReference:
    """The training path gives the bits, and leaves the stream state, of
    the per-cell loops it replaced."""

    SCENARIOS = [
        pytest.param(lambda: parse_scenario("idealized-01"), id="idealized"),
        pytest.param(shadowed_cost231, id="shadowed-cost231")]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("K", [1, 3, 10, 25, 50])
    def test_bit_identical_to_per_cell_loops(self, K, B, scenario):
        self.check(scenario(), B, K, 50)

    # with K != M the (B, M, K) observation products and the (B, K, K) Gram
    # products differ in shape, so a weighting of the wrong stack shows
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("B", [1, 7])
    @pytest.mark.parametrize("K", [10, 25])
    @pytest.mark.parametrize("M", [20, 80])
    def test_bit_identical_with_antennas_unequal_to_users(self, M, K, B,
                                                          scenario):
        self.check(scenario(), B, K, M)

    @staticmethod
    def check(sc, B, K, M):
        for seed in range(3):
            rng = seed_substream(seed, "channel")
            gains = sc.gain_matrix(K, rng)[:B]
            real = mc.ChannelRealization(
                small_scale=mc.draw_channel_matrix(B, K, M, rng), gains=gains,
                noise_var=sc.noise_var)
            fast_rng = seed_substream(seed, "pilot")
            ref_rng = seed_substream(seed, "pilot")

            seqs = mc.generate_pilot_sequences(K, B, fast_rng)
            ref_seqs = per_cell_pilot_sequences(K, B, ref_rng)
            assert np.array_equal(seqs, ref_seqs)
            assert seqs.flags.c_contiguous
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

            snr = sc.pilot.pilot_snr
            inputs = (seqs, real.small_scale, real.gains)
            before = [a.copy() for a in inputs]
            est = mc.training_based_estimate(real, seqs, snr, fast_rng)
            for a, copy in zip(inputs, before):  # nothing is weighted in place
                assert np.array_equal(a, copy)
            ref_est, ref_error = per_cell_training_estimate(real, ref_seqs, snr,
                                                            ref_rng)
            assert np.array_equal(est.estimates, ref_est)
            assert np.array_equal(est.error_cov_scalars, ref_error)
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrainingTrialMemory:
    """A warm training trial at K = M = 50 in 7 cells traces about 1.38 MiB,
    about five (7, 50, 50) complex arrays of 273 KiB: the channels and, in
    pilot generation, the Gaussian seeds, QR's copy of them, Q and R, or,
    in the estimator, the sequences, their conjugate, the weighted channels
    and their products with it. Either stage as it was before, the normals
    alive through QR (1.63 MiB) or the observation products alive beside a
    weighted copy of the conjugate and the Gram products (1.65 MiB), fails
    the bound; the trial with both read 1.84 MiB."""

    @pytest.mark.parametrize("seed", [0, 4099])
    def test_traced_peak(self, seed, traced_peak):
        from ulmimo.experiments import ALL_FILTERS, run_trial
        scenario = parse_scenario("idealized-01")

        def trial():
            return run_trial(scenario, 50, 50, "training", ALL_FILTERS,
                             seed_substream(seed, "mc.channel.a2", 0),
                             seed_substream(seed, "mc.pilot.a2", 0))
        # a first call also traces numpy's and LAPACK's one-time set-up
        trial()
        sinrs, peak = traced_peak(trial)
        assert len(sinrs) == len(ALL_FILTERS)
        assert peak <= 1.6 * 2**20


class TestThetaEffective:
    def test_single_cell_zero(self):
        real = idealized_realization(8, 4, B=1, seed=19)
        assert mc.theta_effective(real, mc.pilot_estimate_noiseless(real)) == (0.0, 0.0)

    def test_two_cell_unit_gains(self):
        rng = seed_substream(20, "theta")
        M = 16
        real = mc.ChannelRealization(
            small_scale=mc.draw_channel_matrix(2, M, M, rng),
            gains=np.ones((2, M)), noise_var=0.01)
        t1, t2 = mc.theta_effective(real, mc.pilot_estimate_noiseless(real))
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(0.5)

    def test_seven_cell_idealized(self):
        M = 32
        real = idealized_realization(M, M, seed=21)
        t1, t2 = mc.theta_effective(real, mc.pilot_estimate_noiseless(real))
        assert t1 == pytest.approx(0.06)
        assert t2 == pytest.approx(0.06 / 1.06)


class TestFilters:
    def test_single_user_mmse_degenerates_to_matched(self):
        real = idealized_realization(16, 1, seed=22)
        est = mc.pilot_estimate_noiseless(real)
        filt = mc.mmse_filter_pilot(est, real)
        cosine = np.abs(np.vdot(filt, est.estimates[0])) / (
            np.linalg.norm(filt) * np.linalg.norm(est.estimates[0]))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_small_instance_dense_inverse_oracle(self):
        real = idealized_realization(3, 2, seed=23)
        est = mc.pilot_estimate_noiseless(real)
        filt = mc.mmse_filter_pilot(est, real)
        # theta1 = 6 cells x 2 users x 0.01 / M, theta2 = 2 x (0.06/1.06) / M
        reg = 0.12 / 3 + 2 * (0.06 / 1.06) / 3 + 0.01
        S = (real.gains[0, 1] * np.outer(est.estimates[1],
                                         est.estimates[1].conj())
             + reg * np.eye(3))
        oracle = np.linalg.inv(S) @ (np.sqrt(real.gains[0, 0]) * est.estimates[0])
        assert np.linalg.norm(filt - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_lowrank_and_dense_paths_agree(self):
        # K - 1 interferers: (3, 2) and (40, 9) take the low-rank path,
        # (64, 33) the dense one
        for M, K in ((3, 2), (40, 9), (64, 33)):
            real = idealized_realization(M, K, seed=24)
            est = mc.pilot_estimate_noiseless(real)
            filt = mc.mmse_filter_pilot(est, real)
            ref = pilot_filter_reference(real, est)
            rel = np.linalg.norm(filt - ref) / np.linalg.norm(ref)
            assert rel <= 1e-10

    def test_dense_path_matches_scipy_cholesky_reference(self):
        real = idealized_realization(12, 8, seed=32)
        est = mc.pilot_estimate_noiseless(real)
        filt = mc.mmse_filter_pilot(est, real)  # 7 interferers: dense path
        t1, t2 = mc.theta_effective(real, est)
        V = est.estimates[1:].T
        S = (V * real.gains[0, 1:]) @ V.conj().T
        S[np.diag_indices(12)] += t1 + t2 + 0.01
        b = np.sqrt(real.gains[0, 0]) * est.estimates[0]
        ref = sla.cho_solve(sla.cho_factor(S, lower=True), b)
        assert np.linalg.norm(filt - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_filter_residual_contract(self):
        real = idealized_realization(50, 25, seed=25)
        est = mc.pilot_estimate_noiseless(real)
        filt = mc.mmse_filter_pilot(est, real)
        t1, t2 = mc.theta_effective(real, est)
        V = est.estimates[1:].T
        S = (V * real.gains[0, 1:]) @ V.conj().T + (t1 + t2 + 0.01) * np.eye(50)
        b = np.sqrt(real.gains[0, 0]) * est.estimates[0]
        resid = np.linalg.norm(S @ filt - b) / np.linalg.norm(b)
        assert resid <= 1e-10

    # One cell at noise_var 1e-10: user 1's estimate lies outside the
    # interferers' span, so the filter is about b / 1e-10 and the residual
    # relative to ||b|| reads about 1e-6 however accurate the solve. K = 3
    # leaves 2 interferers at M = 8 (low-rank path), K = 6 leaves 5 (dense).
    @pytest.mark.parametrize("K", [3, 6], ids=["lowrank", "dense"])
    def test_high_snr_solve_against_40_digit_solve(self, K):
        def mp_vector(x):
            return mpmath.matrix([mpmath.mpc(complex(v)) for v in x])

        for seed in range(5):
            real = idealized_realization(8, K, B=1, noise_var=1e-10, seed=seed)
            est = mc.pilot_estimate_noiseless(real)
            filt = mc.mmse_filter_pilot(est, real)
            t1, t2 = mc.theta_effective(real, est)
            with mpmath.workdps(40):
                S = mpmath.mpf(t1 + t2 + real.noise_var) * mpmath.eye(8)
                for k in range(1, K):
                    v = mp_vector(est.estimates[k])
                    S += mpmath.mpf(real.gains[0, k]) * (v * v.H)
                b = mp_vector(np.sqrt(real.gains[0, 0]) * est.estimates[0])
                c = mp_vector(filt)
                exact = mpmath.lu_solve(S, b)
                residual = mpmath.norm(S * c - b)
                backward = residual / (mpmath.mnorm(S, "f") * mpmath.norm(c)
                                       + mpmath.norm(b))
            assert residual / mpmath.norm(b) > mc.LINEAR_SOLVE_TOL
            assert backward <= 1e-15
            # the SINR is stationary at the exact filter
            exact_sinr = mc.empirical_sinr(
                np.array([complex(v) for v in exact]), real).sinr
            assert mc.empirical_sinr(filt, real).sinr == pytest.approx(
                exact_sinr, rel=1e-11)

    # at M = 16, K = 4 leaves 3 interferers (low-rank path), K = 12 leaves 11
    @pytest.mark.parametrize("K", [4, 12], ids=["lowrank", "dense"])
    def test_nan_right_hand_side_raises(self, K):
        # user 1's estimate is b; an interferer's enters V and the matrix
        for user in (0, 2):
            real = idealized_realization(16, K, seed=30)
            est = mc.pilot_estimate_noiseless(real)
            est.estimates[user, 3] = np.nan
            with pytest.raises(NumericalError, match="residual"):
                mc.mmse_filter_pilot(est, real)

    def test_zero_right_hand_side_gives_zero_filter(self):
        for K in (4, 12):
            real = idealized_realization(16, K, seed=31)
            est = mc.pilot_estimate_noiseless(real)
            est.estimates[0] = 0.0
            assert not mc.mmse_filter_pilot(est, real).any()

    def test_perfect_filter_single_user(self):
        real = idealized_realization(8, 1, B=1, seed=27)
        filt = mc.mmse_filter_perfect(real)
        h = real.small_scale[0, 0]
        cosine = np.abs(np.vdot(filt, h)) / (
            np.linalg.norm(filt) * np.linalg.norm(h))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_perfect_filter_dense_oracle(self):
        real = idealized_realization(3, 2, seed=28)
        filt = mc.mmse_filter_perfect(real)
        H = real.small_scale[0]
        S = sum(real.gains[0, k] * np.outer(H[k], H[k].conj()) for k in range(2))
        S += (0.12 / 3 + 0.01) * np.eye(3)  # theta1 + noise variance
        oracle = np.linalg.inv(S) @ (np.sqrt(real.gains[0, 0]) * H[0])
        assert np.linalg.norm(filt - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_matched_filter_passthrough(self):
        real = idealized_realization(16, 4, seed=29)
        rng = seed_substream(29, "pn")
        for est in (mc.pilot_estimate_noiseless(real),
                    mc.pilot_estimate_noisy(real, 100.0, rng),
                    mc.training_based_estimate(
                        real, mc.generate_pilot_sequences(4, 7, rng), 100.0,
                        rng)):
            filt = mc.matched_filter(est)
            assert np.array_equal(filt, est.estimates[0])

    def test_mmse_dominates_matched_on_average(self):
        sinr_mmse, sinr_mf = [], []
        for t in range(200):
            real = idealized_realization(50, 25, seed=30, tag=f"dom{t}")
            est = mc.pilot_estimate_noiseless(real)
            filt = mc.mmse_filter_pilot(est, real)
            sinr_mmse.append(mc.empirical_sinr(filt, real).sinr)
            sinr_mf.append(mc.empirical_sinr(mc.matched_filter(est), real).sinr)
        assert np.mean(sinr_mmse) > np.mean(sinr_mf)

    def test_perfect_filter_tracks_limit(self, seven_cell_001):
        limit = la.to_db(la.det_eq_sinr_rows(seven_cell_001, 0.5, 0.01)[2][0])
        vals = []
        for t in range(300):
            real = idealized_realization(50, 25, seed=31, tag=f"per{t}")
            filt = mc.mmse_filter_perfect(real)
            vals.append(mc.empirical_sinr(filt, real).sinr)
        assert abs(la.to_db(np.median(vals)) - limit) < 1.0


class TestEmpiricalSinr:
    def test_single_user_matched_reduction(self):
        real = idealized_realization(16, 1, B=1, noise_var=0.05, seed=32)
        h = real.small_scale[0, 0]
        out = mc.empirical_sinr(h.copy(), real)
        expected = np.linalg.norm(h) ** 2 / 0.05
        assert out.sinr == pytest.approx(expected, rel=1e-12)
        assert out.p_contam == 0.0
        assert out.p_inter == 0.0

    def test_orthogonal_filter_zero_signal(self):
        real = idealized_realization(8, 2, seed=33)
        h = real.small_scale[0, 0]
        v = np.zeros(8, dtype=complex)
        v[0], v[1] = -np.conj(h[1]), np.conj(h[0])  # orthogonal to h by design
        out = mc.empirical_sinr(v, real)
        assert out.p_signal == pytest.approx(0.0, abs=1e-25)
        assert out.sinr == pytest.approx(0.0, abs=1e-20)

    def test_median_tracks_matched_filter_limit(self, seven_cell_001):
        limit = la.to_db(la.det_eq_sinr_rows(seven_cell_001, 0.5, 0.01)[0][0])
        vals = []
        for t in range(200):
            real = idealized_realization(200, 100, seed=35, tag=f"mf{t}")
            est = mc.pilot_estimate_noiseless(real)
            vals.append(mc.empirical_sinr(mc.matched_filter(est), real).sinr)
        assert abs(la.to_db(np.median(vals)) - limit) < 0.5


class TestConvergenceToTheory:
    """Median empirical SINR at M=50 vs the limit, idealized scenarios."""

    # other-cell gain 0.01 at these loadings is criterion 5's
    @pytest.mark.parametrize("beta", [0.001, 0.1])
    def test_all_filters_within_half_db(self, beta):
        from ulmimo.experiments import monte_carlo_sweep
        sc = parse_scenario({0.001: "idealized-001", 0.1: "idealized-1"}[beta])
        dist = idealized_gains(7, beta)
        samples = monte_carlo_sweep(sc, 50, [0.5, 1.0], 400,
                                    ("mf", "mmse", "mmse-perfect"),
                                    "noiseless", 1)
        for a in (0.5, 1.0):
            theory = {f: la.to_db(x[0]) for f, x in zip(
                ("mf", "mmse", "mmse-perfect"),
                la.det_eq_sinr_rows(dist, a, 0.01))}
            for f, th in theory.items():
                med = la.to_db(np.median(samples[(a, f)]))
                assert abs(med - th) <= 0.5, (beta, a, f, med, th)

    def test_contamination_to_signal_power_tends_to_its_limit(self):
        # pooled p_contam / p_signal tends to sum_{j>=2} beta_j^2 / beta_1^2
        # = 6 x 0.1^2 = 0.06 for MF and pilot MMSE, and to 0 as 1/M for
        # perfect MMSE; over seeds 0-29 at M=200 the first two spanned
        # 0.061-0.069 and M x the third 0.69-0.88
        sc = parse_scenario("idealized-1")

        def pooled_ratio(M, trials):
            K = mc.users_per_cell(0.5, M)
            contam, signal = np.zeros(3), np.zeros(3)
            for t in range(trials):
                real = mc.draw_channels(sc, K, M, seed_substream(1, "terms", t))
                est = mc.pilot_estimate_noiseless(real)
                for i, filt in enumerate((mc.matched_filter(est),
                                          mc.mmse_filter_pilot(est, real),
                                          mc.mmse_filter_perfect(real))):
                    out = mc.empirical_sinr(filt, real)
                    contam[i] += out.p_contam
                    signal[i] += out.p_signal
            return contam / signal

        small, large = pooled_ratio(50, 200), pooled_ratio(200, 40)
        for i in (0, 1):  # MF, pilot MMSE
            assert abs(large[i] - 0.06) <= 0.015
            assert abs(large[i] - 0.06) < abs(small[i] - 0.06)
        assert 0.5 <= 200 * large[2] <= 1.2


class TestConcentration:
    def test_trace_lemma_concentration_scale(self, trace_lemma_draws):
        # the deviation itself shrinks at the 1/sqrt(M) scale: a 3-sigma
        # band (~0.10 at M = 1024) holds in at least 95% of criterion 9f's
        # draws, where its 5% band does not
        hits = sum(abs(quad - mean) < 0.10 * mean
                   for quad, mean in trace_lemma_draws)
        trials = len(trace_lemma_draws)
        assert hits >= 0.95 * trials, f"{hits}/{trials}"

    def test_estimate_error_uncorrelated_with_estimate(self):
        real = idealized_realization(500, 64, seed=36)
        est = mc.pilot_estimate_noiseless(real)
        err = real.small_scale[0] - est.estimates
        corr = np.mean(np.abs(np.sum(est.estimates.conj() * err, axis=1)))
        assert corr < 3.0 / np.sqrt(real.M)


class TestDeterminism:
    def test_complex_gaussian_draws_real_then_imaginary_block(self):
        z = complex_gaussian(seed_substream(38, "cg"), (3, 4), 2.0)
        rng = seed_substream(38, "cg")
        re, im = rng.standard_normal(12), rng.standard_normal(12)
        assert np.array_equal(z.real, re.reshape(3, 4))
        assert np.array_equal(z.imag, im.reshape(3, 4))

    def test_full_pipeline_bit_identical(self):
        def run():
            real = idealized_realization(32, 16, seed=37)
            est = mc.pilot_estimate_noisy(real, 100.0, seed_substream(37, "pn"))
            filt = mc.mmse_filter_pilot(est, real)
            out = mc.empirical_sinr(filt, real)
            return (out.p_signal, out.p_noise, out.p_contam, out.p_inter)
        assert run() == run()
