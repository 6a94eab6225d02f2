import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ulmimo import asymptotic as la
from ulmimo import montecarlo as mc
from ulmimo.errors import ConvergenceError, InvalidInputError
from ulmimo.fading import FadingDistribution
from ulmimo.geometry import idealized_gains
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario


def bisect_fixed_point(fmap, lo, hi, iters=200):
    """Independent scalar oracle: bisection on g(x) = x - fmap(x)."""
    glo = lo - fmap(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gmid = mid - fmap(mid)
        if (gmid > 0) == (glo > 0):
            lo, glo = mid, gmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEta1:
    def test_alpha_zero_is_inverse_noise(self, seven_cell_001):
        dist = seven_cell_001
        assert la.solve_det_eq(dist, 0.0, 0.01).eta1 == pytest.approx(
            100.0, rel=1e-12)

    def test_single_cell_bisection_oracle(self, single_cell):
        # scalar equation: x = 1/(0.01 + 0.5 - 0.5*x/(1+x))
        dist = single_cell
        oracle = bisect_fixed_point(
            lambda x: 1.0 / (0.01 + 0.5 - 0.5 * x / (1.0 + x)), 1e-9, 100.0)
        got = la.solve_det_eq(dist, 0.5, 0.01).eta1
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_seven_cell_bisection_oracle(self, seven_cell_001):
        dist = seven_cell_001
        p = 1.0 / 1.06  # estimate-direction gain of the point mass
        oracle = bisect_fixed_point(
            lambda x: 1.0 / (0.01 + 0.5 * 1.06 - 0.5 * p * p * x / (1.0 + p * x)),
            1e-9, 100.0)
        assert la.solve_det_eq(dist, 0.5, 0.01).eta1 == pytest.approx(
            oracle, rel=1e-9)

    def test_residual_contract(self, seven_cell_001):
        dist = seven_cell_001
        for alpha in (0.0, 0.25, 0.5, 1.0):
            eta1 = la.solve_det_eq(dist, alpha, 0.01).eta1
            resid = abs(la.eta1_map(dist, alpha, 0.01, eta1) - eta1) / eta1
            assert resid <= 1e-10
            assert 0.0 < eta1 <= 1.0 / 0.01 + 1e-9

    def test_convergence_error_carries_residual(self, seven_cell_001,
                                                monkeypatch):
        # eta1: a Newton root that its fixed-point map does not return is
        # refused with the map's residual; eta1*: Picard runs out of steps
        dist = seven_cell_001
        eta1_map = la.eta1_map
        with monkeypatch.context() as patch:
            patch.setattr(la, "eta1_map",
                          lambda *args: eta1_map(*args) * (1.0 + 1e-6))
            with pytest.raises(ConvergenceError) as err:
                la.solve_det_eq(dist, 0.5, 0.01)
        reported = re.search(r"relative residual (\S+)\)$", str(err.value))
        assert float(reported.group(1)) == pytest.approx(1e-6, rel=1e-3)
        monkeypatch.setattr(la, "FIXED_POINT_MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            la.solve_eta1_perfect(dist, 0.5, 0.01)
        reported = re.search(r"relative residual (\S+)\)$", str(err.value))
        assert float(reported.group(1)) > 0.0

    def test_newton_cut_short_is_refused(self, monkeypatch):
        # on a drop law the Jensen start is left of the root, and one
        # Newton step from it does not reach the map's tolerance
        drops = parse_scenario("cost231-7cell").gain_matrix(
            200, seed_substream(0, "drop-law"))
        dist = FadingDistribution(drops.T)
        monkeypatch.setattr(la, "FIXED_POINT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="Newton root"):
            la.solve_det_eq(dist, 1.0, 1.0)

    def test_invalid_inputs(self, seven_cell_001):
        dist = seven_cell_001
        for solve in (la.solve_det_eq, la.solve_eta1_perfect):
            with pytest.raises(InvalidInputError):
                solve(dist, -0.1, 0.01)
            with pytest.raises(InvalidInputError):
                solve(dist, 0.5, 0.0)
            # a bool solved alpha = 1 or noise_var = 1
            with pytest.raises(InvalidInputError, match="^alpha must be a real"):
                solve(dist, True, 0.1)
            with pytest.raises(InvalidInputError,
                               match="^noise_var must be a real"):
                solve(dist, 0.5, True)


class TestEta2:
    def test_alpha_zero_square(self, seven_cell_001):
        dist = seven_cell_001
        det = la.solve_det_eq(dist, 0.0, 0.01)
        assert det.eta2 == det.eta1 * det.eta1

    def test_always_at_least_square(self, seven_cell_001, seven_cell_01):
        for dist in (seven_cell_001, seven_cell_01):
            for alpha in (0.1, 0.5, 1.0, 1.4):
                det = la.solve_det_eq(dist, alpha, 0.01)
                assert det.eta2 >= det.eta1**2


class TestTraceOracles:
    """Finite-M Monte Carlo traces of the actual filter matrices."""

    def _realization(self, M, alpha, seed=11):
        rng = seed_substream(seed, "trace-oracle")
        K = int(round(alpha * M))
        gains = np.full((7, K), 0.01)
        gains[0] = 1.0
        h = mc.draw_channel_matrix(7, K, M, rng)
        return mc.ChannelRealization(small_scale=h, gains=gains, noise_var=0.01)

    def test_eta1_eta2_vs_filter_matrix_traces(self, seven_cell_001):
        dist = seven_cell_001
        real = self._realization(400, 0.5)
        est = mc.pilot_estimate_noiseless(real)
        t1, t2 = mc.theta_effective(real, est)
        V = est.estimates[1:].T
        S = (V * real.gains[0, 1:]) @ V.conj().T
        S[np.diag_indices(400)] += t1 + t2 + 0.01
        lam = np.linalg.eigvalsh(S)
        det = la.solve_det_eq(dist, real.K / real.M, 0.01)
        assert np.mean(1.0 / lam) == pytest.approx(det.eta1, rel=0.01)
        assert np.mean(1.0 / lam**2) == pytest.approx(det.eta2, rel=0.02)

    def test_eta1_perfect_vs_trace(self, seven_cell_001):
        dist = seven_cell_001
        real = self._realization(400, 0.5, seed=12)
        t1, _ = mc.theta_effective(real, mc.pilot_estimate_noiseless(real))
        V = real.small_scale[0].T
        S = (V * real.gains[0]) @ V.conj().T
        S[np.diag_indices(400)] += t1 + 0.01
        lam = np.linalg.eigvalsh(S)
        eta1s = la.solve_eta1_perfect(dist, real.K / real.M, 0.01)
        assert np.mean(1.0 / lam) == pytest.approx(eta1s, rel=0.01)

    @pytest.mark.parametrize("M,alpha", [(100, 0.25), (100, 0.5), (100, 1.0),
                                         (400, 0.25), (400, 0.5), (400, 1.0)])
    def test_oracle_equivalence_grid(self, seven_cell_001, M, alpha):
        dist = seven_cell_001
        real = self._realization(M, alpha, seed=13)
        est = mc.pilot_estimate_noiseless(real)
        t1, t2 = mc.theta_effective(real, est)
        V = est.estimates[1:].T
        S = (V * real.gains[0, 1:]) @ V.conj().T
        S[np.diag_indices(M)] += t1 + t2 + 0.01
        lam = np.linalg.eigvalsh(S)
        if M >= 400:
            # at this scale the K-1 structural offset is negligible and the
            # plain limit constants land inside the band
            det = la.solve_det_eq(dist, real.K / real.M, 0.01)
        else:
            # at M=100 compare against the structure-consistent prediction:
            # realized regularizer t1 + t2 + 0.01 on the diagonal, K-1
            # interferer directions. The eta1 map's diagonal is its noise
            # plus alpha (E[B] - E[p]), so the noise argument is the rest.
            a = (real.K - 1) / real.M
            diag = a * (dist.expect(dist.total) - dist.expect(dist.est_gain))
            det = la.solve_det_eq(dist, a, t1 + t2 + 0.01 - diag)
        assert np.mean(1.0 / lam) == pytest.approx(det.eta1, rel=0.02)
        assert np.mean(1.0 / lam**2) == pytest.approx(det.eta2, rel=0.02)


class TestSuppression:
    def test_single_cell_reduces_to_first_term(self, single_cell):
        dist = single_cell
        det = la.solve_det_eq(dist, 0.5, 0.01)
        # B=1: cross terms vanish, C = E[B1^2 eta1/(1 + B1 eta1)]
        assert det.suppression == pytest.approx(det.eta1 / (1.0 + det.eta1),
                                                rel=1e-12)

    def test_bounds(self, seven_cell_001, seven_cell_01):
        for dist in (seven_cell_001, seven_cell_01):
            e_total = dist.expect(dist.total)
            for alpha in (0.0, 0.3, 0.7, 1.0):
                det = la.solve_det_eq(dist, alpha, 0.01)
                assert 0.0 <= det.suppression <= e_total

    def test_empirical_distribution_matches_weighted_sum(self):
        rng = np.random.default_rng(5)
        gains = rng.uniform(0.001, 1.0, size=(64, 7))
        dist = FadingDistribution(gains)
        det = la.solve_det_eq(dist, 0.5, 0.01)
        p = dist.est_gain
        q = dist.cross_est_gain
        expected = np.mean(p * p * det.eta1 / (1 + p * det.eta1)
                           + (det.eta2 / det.eta1) * p * q / (1 + p * det.eta1)
                           + (det.eta2 / det.eta1) * p * q / (1 + p * det.eta1) ** 2)
        assert det.suppression == pytest.approx(expected, rel=1e-12)


class TestSinrFormulas:
    def test_mmse_pilot_no_interference(self):
        dist = idealized_gains(1, 0.5)
        _, pilot, _ = la.det_eq_sinr_rows(dist, 0.0, 0.01)
        assert pilot[0] == pytest.approx(100.0, rel=1e-12)

    def test_mmse_pilot_alpha_zero_direct_substitution(self, seven_cell_001):
        dist = seven_cell_001
        _, pilot, _ = la.det_eq_sinr_rows(dist, 0.0, 0.01)
        expected = dist.est_gain[0] / (0.01 + dist.cross_est_gain[0])
        assert pilot[0] == pytest.approx(expected, rel=1e-14)
        # and in closed form: (1/1.06) / (0.0112/1.06) = 1/0.0112
        assert pilot[0] == pytest.approx(1.0 / 0.0112, rel=1e-12)

    def test_mf_single_cell_direct(self):
        dist = idealized_gains(1, 0.5)
        got = la.det_eq_sinr_rows(dist, 0.5, 0.01)[0][0]
        assert got == pytest.approx(1.0 / 0.51, rel=1e-12)
        assert la.to_db(got) == pytest.approx(2.92, abs=0.01)

    def test_mf_seven_cell_direct_substitution(self, seven_cell_001):
        got = la.det_eq_sinr_rows(seven_cell_001, 0.5, 0.01)[0][0]
        expected = (1.0 / 1.06) / (0.01 + 0.0006 / 1.06 + 0.5 * 1.06)
        assert got == pytest.approx(expected, rel=1e-12)
        assert la.to_db(got) == pytest.approx(2.42, abs=0.01)

    def test_alpha_zero_collapse_bitwise(self, seven_cell_001, seven_cell_01):
        for dist in (seven_cell_001, seven_cell_01):
            mf, pilot, _ = la.det_eq_sinr_rows(dist, 0.0, 0.01)
            assert pilot[0] == mf[0]

    def test_perfect_no_interference(self):
        dist = idealized_gains(1, 0.5)
        assert la.det_eq_sinr_rows(dist, 0.0, 0.01)[2][0] == pytest.approx(
            100.0, rel=1e-12)

    def test_curves_meet_at_light_loading_and_weak_contamination(self):
        dist = idealized_gains(7, 0.001)
        _, pilot, perfect = la.det_eq_sinr_rows(dist, 0.01, 0.01)
        gap = la.to_db(perfect[0]) - la.to_db(pilot[0])
        assert 0.0 <= gap <= 2.0

    def test_perfect_bisection_oracle(self, single_cell):
        dist = single_cell
        oracle = bisect_fixed_point(
            lambda x: 1.0 / (0.01 + 0.5 / (1.0 + x)), 1e-9, 100.0)
        assert la.solve_eta1_perfect(dist, 0.5, 0.01) == pytest.approx(
            oracle, rel=1e-9)

    def test_single_cell_pilot_equals_perfect(self, single_cell):
        # one cell: the contaminated estimate is exact, both receivers agree
        dist = single_cell
        for alpha in (0.25, 0.5, 1.0):
            _, pilot, perfect = la.det_eq_sinr_rows(dist, alpha, 0.01)
            assert pilot[0] == pytest.approx(perfect[0], rel=1e-10)
            assert dist.cross_est_gain[0] == 0.0


class TestGeneralizedSinr:
    """SINR(c) = S / (noise_var + P + alpha * I(c)), per sample of the law."""

    def test_trivial_values(self):
        # alpha = 0: S / (noise_var + P), with S = 1 and P = 0 or 0.5
        single = FadingDistribution([1.0])
        assert la.det_eq_sinr_rows(single, 0.0, 0.01)[0][0] == pytest.approx(100.0)
        b = (np.sqrt(2.0) + 1.0) / 2.0  # gains (sqrt(2) b, b): S = 1, P = 0.5
        pair = FadingDistribution([np.sqrt(2.0) * b, b])
        assert la.det_eq_sinr_rows(pair, 0.0, 0.5)[0][0] == pytest.approx(1.0)

    def test_definitional_identity_bitwise(self, seven_cell_001):
        dist = seven_cell_001
        det = la.solve_det_eq(dist, 0.5, 0.01)
        direct = dist.est_gain[0] / (0.01 + dist.cross_est_gain[0]
                                     + 0.5 * det.inter_mmse)
        assert direct == la.det_eq_sinr_rows(dist, 0.5, 0.01)[1][0]

    def test_report_self_consistency(self, seven_cell_001):
        dist = seven_cell_001
        mf, pilot, perfect = la.det_eq_sinr_rows(dist, 0.5, 0.01)
        det = la.solve_det_eq(dist, 0.5, 0.01)
        signal, pilot_bar = dist.est_gain[0], dist.cross_est_gain[0]
        assert mf[0] == signal / (0.01 + pilot_bar + 0.5 * det.mean_total_gain)
        assert pilot[0] == signal / (0.01 + pilot_bar + 0.5 * det.inter_mmse)
        inter_perfect = det.mean_total_gain - la.perfect_suppression(
            dist, 0.5, 0.01)
        assert perfect[0] == pytest.approx(
            dist.own[0] / (0.01 + 0.5 * inter_perfect), rel=1e-12)
        assert pilot[0] >= mf[0]

    def test_rejects_bad_inputs(self, seven_cell_001, monkeypatch):
        with pytest.raises(InvalidInputError):
            la.det_eq_sinr_rows(seven_cell_001, -0.1, 0.01)
        with pytest.raises(InvalidInputError):
            la.det_eq_sinr_rows(seven_cell_001, 0.5, 0.0)
        for alpha, noise_var in ((True, 0.1), (0.5, True), ("0.5", 0.1),
                                 (0.5, 10**400)):
            with pytest.raises(InvalidInputError, match="must be a real"):
                la.det_eq_sinr_rows(seven_cell_001, alpha, noise_var)
        # a suppression above E[B] would make the MMSE interference negative
        det = la.solve_det_eq(seven_cell_001, 0.5, 0.01)
        monkeypatch.setattr(la, "solve_det_eq", lambda *args: replace(
            det, inter_mmse=-0.5 * det.mean_total_gain))
        with pytest.raises(InvalidInputError):
            la.det_eq_sinr_rows(seven_cell_001, 0.5, 0.01)


class TestOrderingAndMonotonicity:
    def test_ordering_grid(self):
        for beta in (0.001, 0.01, 0.1):
            dist = idealized_gains(7, beta)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                for s2 in (0.01, 0.1):
                    det = la.solve_det_eq(dist, alpha, s2)
                    mf, pilot, perfect = (
                        x[0] for x in la.det_eq_sinr_rows(dist, alpha, s2))
                    assert mf <= pilot <= perfect * (1 + 1e-12)
                    assert det.suppression >= 0.0

    def test_all_sinrs_nonincreasing_in_alpha(self, seven_cell_001):
        dist = seven_cell_001
        alphas = np.arange(0.0, 1.01, 0.1)
        prev = (np.inf, np.inf, np.inf)
        for a in alphas:
            cur = tuple(x[0] for x in la.det_eq_sinr_rows(dist, float(a), 0.01))
            assert all(c <= p * (1 + 1e-12) for c, p in zip(cur, prev))
            prev = cur


class TestStieltjes:
    """eta1 is the Stieltjes transform m(z) of the limiting estimate-Gram
    spectrum at -z = noise_var + alpha (E[B] - E[p]), p = ``est_gain``."""

    def test_eigen_brute_force_oracle(self, seven_cell_001):
        # build the block-structured random Gram whose limiting spectrum the
        # transform describes, at M=256, and compare the empirical resolvent
        dist = seven_cell_001
        M, n_users = 256, 128
        rng = seed_substream(21, "stieltjes-oracle")
        gains = np.concatenate([[1.0], np.full(6, 0.01)])
        h = mc.draw_channel_matrix(7, n_users, M, rng)  # (7, n, M)
        # each user contributes a rank-one direction with gain beta1^2/B
        scale = 1.0 / gains.sum()  # beta1/B with beta1 = 1
        y = np.sqrt(scale) * np.einsum("j,jkm->km", np.sqrt(gains), h)  # (n, M)
        G = y.T @ y.conj()
        lam = np.linalg.eigvalsh(G)
        z, alpha = -0.5, n_users / M
        empirical = float(np.mean(1.0 / (lam - z)))
        noise_var = -z - alpha * (dist.expect(dist.total)
                                  - dist.expect(dist.est_gain))
        assert la.solve_det_eq(dist, alpha, noise_var).eta1 == pytest.approx(
            empirical, rel=0.02)

    def test_derivative_matches_central_difference(self, seven_cell_001):
        # d eta1 / d noise_var = -(1/M) d tr S^-1 / dz = -eta2
        dist = seven_cell_001
        noise_var = 0.1
        h = 1e-5 * noise_var
        fd = (la.solve_det_eq(dist, 0.5, noise_var + h).eta1
              - la.solve_det_eq(dist, 0.5, noise_var - h).eta1) / (2 * h)
        assert la.solve_det_eq(dist, 0.5, noise_var).eta2 == pytest.approx(
            -fd, rel=1e-5)

    def test_route_agreement_with_eta1(self, seven_cell_001, seven_cell_01,
                                       point_mass_root):
        for dist in (seven_cell_001, seven_cell_01):
            for alpha in (0.25, 0.5, 1.0):
                det = la.solve_det_eq(dist, alpha, 0.01)
                eta1, eta2 = point_mass_root(dist, alpha, 0.01)
                assert abs(eta1 - det.eta1) <= 1e-8 * det.eta1
                assert det.eta2 == pytest.approx(eta2, rel=1e-8)


def _written_out_eta1_map(dist, alpha, noise_var, x):
    # 1 / (noise_var + alpha E[B] - alpha E[p^2 x / (1 + p x)]), with
    # E[B] - E[p^2 x / (1 + p x)] summed as E[B - p] + E[p / (1 + p x)]
    p, gains, total = dist.est_gain, dist.gains, dist.total
    off_estimate = float(dist.weights @ (
        gains[:, 1:].sum(axis=1) * (total + dist.own) / total))
    return 1.0 / (noise_var + alpha * off_estimate
                  + alpha * float(dist.weights @ (p / (1.0 + p * x))))


def _written_out_eta1_perfect_map(dist, alpha, noise_var, x):
    own = dist.own
    return 1.0 / (noise_var + alpha * float(dist.mean_gains[1:].sum())
                  + alpha * float(dist.weights @ (own / (1.0 + own * x))))


class TestMapsInScratch:
    """The maps fill the law's scratch rows in place of temporaries, and
    return exactly the floats of their written-out formulas."""

    MAPS = [(la.eta1_map, _written_out_eta1_map),
            (la.eta1_perfect_map, _written_out_eta1_perfect_map)]
    POINTS = [(0.2, 0.01, 3.7), (1.0, 1.0, 0.05), (0.5, 0.01, 100.0)]

    @staticmethod
    def laws():
        drops = [parse_scenario("cost231-7cell").gain_matrix(
            200, seed_substream(seed, "drop-law")) for seed in (0, 1)]
        return [idealized_gains(7, 0.01),
                FadingDistribution([[1.0, 0.5], [0.5, 0.25]]),
                *(FadingDistribution(g.T) for g in drops)]

    @pytest.mark.parametrize("fmap, formula", MAPS)
    def test_map_equals_written_out_formula(self, fmap, formula):
        for dist in self.laws():
            for point in self.POINTS:
                assert fmap(dist, *point) == formula(dist, *point)

    @pytest.mark.parametrize("fmap", [fmap for fmap, _ in MAPS])
    def test_alternating_laws_match_each_law_alone(self, fmap):
        a, b = self.laws()[2:]
        alone = [[fmap(d, *point) for point in self.POINTS] for d in (a, b)]
        alternating = [[], []]
        for point in self.POINTS:
            for i, d in enumerate((a, b)):
                alternating[i].append(fmap(d, *point))
        assert alternating == alone


def _oracle_laws():
    """(id, law, noise_var): the bundled idealized laws and 200 cost231 drops."""
    laws = []
    for name in ("idealized-001", "idealized-01", "idealized-1"):
        sc = parse_scenario(name)
        laws.append((name, idealized_gains(sc.cells, sc.gain_model.beta_other),
                     sc.noise_var))
    sc = parse_scenario("cost231-7cell")
    drops = sc.gain_matrix(200, seed_substream(0, "drop-law"))
    laws.append(("cost231-200", FadingDistribution(drops.T), sc.noise_var))
    return laws


def _rel(value, exact):
    return float(abs(mpmath.mpf(float(value)) - exact) / exact)


class TestMpmathOracle:
    """eta1, eta2, C and the pilot-MMSE SINR within 1e-14 relative of
    their values in 50 or more digits (the ``det_eq_oracle`` fixture)."""

    LAWS = _oracle_laws()

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dist, noise_var", [law[1:] for law in LAWS],
                             ids=[law[0] for law in LAWS])
    def test_limits_on_bundled_and_drop_laws(self, det_eq_oracle, dist,
                                             noise_var, alpha):
        eta1, eta2, supp, pilot = det_eq_oracle(dist, alpha, noise_var)
        det = la.solve_det_eq(dist, alpha, noise_var)
        got = la.det_eq_sinr_rows(dist, alpha, noise_var)[1]
        assert _rel(det.eta1, eta1) <= 1e-14
        assert _rel(det.eta2, eta2) <= 1e-14
        assert _rel(det.suppression, supp) <= 1e-14
        assert max(_rel(v, w) for v, w in zip(got, pilot)) <= 1e-14

    # one cell at full load: eta1 is about noise_var^-1/2 and eta2 about
    # noise_var^-3/2 / 2, past the float range at 1e-300, whose nearest
    # float is then inf; the eta1 map's residual at the root is within the
    # solver's tolerance, which no allowance for rounding widens
    @pytest.mark.parametrize("noise_var", [1e-6, 1e-20, 1e-300])
    def test_one_cell_at_any_snr(self, det_eq_oracle, noise_var):
        dist = idealized_gains(1, 0.01)
        eta1, eta2, _, pilot = det_eq_oracle(dist, 1.0, noise_var, dps=400)
        det = la.solve_det_eq(dist, 1.0, noise_var)
        assert _rel(det.eta1, eta1) <= 1e-14
        x = det.eta1
        assert abs(x / la.eta1_map(dist, 1.0, noise_var, x) - 1) <= (
            la.FIXED_POINT_TOL)
        if eta2 > np.finfo(float).max:
            assert det.eta2 == np.inf
        else:
            assert _rel(det.eta2, eta2) <= 1e-14
        got = dist.est_gain[0] / (noise_var + dist.cross_est_gain[0]
                                  + det.inter_mmse)
        assert _rel(got, pilot[0]) <= 1e-14
