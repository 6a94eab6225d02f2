import numpy as np
import pytest

from ulmimo import asymptotic as la
from ulmimo import experiments as ex
from ulmimo.errors import InvalidInputError
from ulmimo.fading import FadingDistribution
from ulmimo.geometry import idealized_gains
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario


@pytest.fixture(scope="module")
def idealized_01():
    return parse_scenario("idealized-01")


class TestScalarReductions:
    def test_five_percentile_constant(self):
        assert ex.five_percentile(np.full(50, 3.7)) == 3.7

    def test_five_percentile_order_statistics(self):
        # linear interpolation between order statistics on 1..100
        assert ex.five_percentile(np.arange(1.0, 101.0)) == pytest.approx(5.95)

    def test_five_percentile_needs_samples(self):
        with pytest.raises(InvalidInputError):
            ex.five_percentile(np.ones(19))

    def test_rate_constant_unit_sinr(self):
        assert ex.achievable_rate(np.ones(10)) == pytest.approx(1.0)

    def test_rate_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ex.achievable_rate([])

    def test_sum_rate_trivial(self):
        assert ex.sum_rate(1.0, 1, 1.0) == pytest.approx(1.0)

    def test_sum_rate_validation(self):
        with pytest.raises(InvalidInputError):
            ex.sum_rate(0.0, 10, 1.0)
        with pytest.raises(InvalidInputError):
            ex.sum_rate(0.5, 0, 1.0)


class TestAsymptoticSweep:
    def test_mmse_between_mf_and_perfect(self, idealized_01):
        res = ex.asymptotic_sweep(idealized_01, [0.1, 0.3, 0.5, 0.8, 1.0, 1.3])
        _, mf, mmse, per = np.array(res.rows).T
        assert (mf <= mmse + 1e-9).all()
        assert (mmse <= per + 1e-9).all()

    def test_grid_validation(self, idealized_01):
        with pytest.raises(InvalidInputError):
            ex.asymptotic_sweep(idealized_01, [0.0, 0.5])
        with pytest.raises(InvalidInputError):
            ex.asymptotic_sweep(idealized_01, [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            ex.asymptotic_sweep(idealized_01, [0.5, 1.6])
        with pytest.raises(InvalidInputError, match="must be non-empty"):
            ex.asymptotic_sweep(idealized_01, [])

    def test_drop_scenario_rejected(self):
        sc = parse_scenario("cost231-7cell")
        with pytest.raises(InvalidInputError):
            ex.asymptotic_sweep(sc, [0.5])

    def test_rows_match_direct_evaluation(self, idealized_01):
        res = ex.asymptotic_sweep(idealized_01, [0.5])
        sinrs = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.5, 0.01)
        assert res.rows[0][1:] == tuple(la.to_db(x[0]) for x in sinrs)


class TestSumRateCurve:
    def test_interior_maximum(self, idealized_01):
        grid = [round(0.05 * i, 2) for i in range(1, 25)]  # (0, 1.2]
        res = ex.asymptotic_sweep(idealized_01, grid)
        rates = [ex.sum_rate(a, 50, 10.0 ** (db / 10.0))
                 for a, _, db, _ in res.rows]
        peak = int(np.argmax(rates))
        assert 0 < peak < len(rates) - 1


class TestRateGap:
    def test_strong_interference_small_gap(self, idealized_01):
        res = ex.rate_gap_sweep(idealized_01, [1.0], [0.1])
        gap = res.rows[0][2]
        assert gap == pytest.approx(0.4, abs=0.1)

    def test_gap_decreases_with_alpha(self, idealized_01):
        res = ex.rate_gap_sweep(idealized_01, [0.2, 1.0], [0.05])
        gaps = {row[0]: row[2] for row in res.rows}
        assert gaps[0.2] > gaps[1.0]

    def test_gap_vanishes_with_contamination(self, idealized_01):
        # exact estimates in the limit of no other-cell power; the gap is
        # not monotone across the whole range (it peaks mid-band)
        res = ex.rate_gap_sweep(idealized_01, [0.5], [0.0001, 0.001, 0.01])
        gaps = [row[2] for row in res.rows]
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[0] < 0.05

    def test_drop_scenario_rejected(self):
        sc = parse_scenario("cost231-7cell")
        with pytest.raises(InvalidInputError, match="idealized scenario"):
            ex.rate_gap_sweep(sc, [0.5], [0.01])

    def test_beta_grid_validated(self, idealized_01):
        with pytest.raises(InvalidInputError):
            ex.rate_gap_sweep(idealized_01, [0.5], [0.2])


ALL = ex.ALL_FILTERS


class TestMonteCarloSweep:
    def test_exact_rerun_determinism(self, idealized_01):
        a = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 5, ALL, "noiseless", 9)
        b = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 5, ALL, "noiseless", 9)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_single_trial_reproducible(self, idealized_01):
        a = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 1, ALL, "noiseless", 3)
        b = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 1, ALL, "noiseless", 3)
        assert a[(0.5, "mf")][0] == b[(0.5, "mf")][0]

    def test_channels_paired_across_estimate_modes(self, idealized_01):
        # perfect-CSI filter ignores the estimate, so identical channel
        # substreams must give identical samples in every mode
        kwargs = dict(filters=("mmse-perfect",), master_seed=4)
        a = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 4,
                                 estimate_mode="noiseless", **kwargs)
        b = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 4,
                                 estimate_mode="noisy", **kwargs)
        c = ex.monte_carlo_sweep(idealized_01, 16, [0.5], 4,
                                 estimate_mode="training", **kwargs)
        assert np.array_equal(a[(0.5, "mmse-perfect")], b[(0.5, "mmse-perfect")])
        assert np.array_equal(a[(0.5, "mmse-perfect")], c[(0.5, "mmse-perfect")])

    @pytest.mark.parametrize("mode,pilot_streams", [
        ("noiseless", 0), ("noisy", 3), ("training", 3)])
    def test_pilot_substream_only_when_consumed(self, idealized_01,
                                                monkeypatch, mode,
                                                pilot_streams):
        tags = []
        real_seed_substream = ex.seed_substream

        def recording(seed, tag, index=0):
            tags.append(tag)
            return real_seed_substream(seed, tag, index)
        monkeypatch.setattr(ex, "seed_substream", recording)
        ex.monte_carlo_sweep(idealized_01, 8, [0.5], 3, ALL, mode, 0)
        assert tags.count("mc.channel.a0") == 3
        assert tags.count("mc.pilot.a0") == pilot_streams

    def test_empty_filter_tuple_rejected(self, idealized_01):
        with pytest.raises(InvalidInputError, match="filter"):
            ex.monte_carlo_sweep(idealized_01, 16, [0.5], 2, (), "noiseless", 0)

    def test_unknown_filter_rejected_before_any_trial(self, idealized_01,
                                                      monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("run_trial called")
        monkeypatch.setattr(ex, "run_trial", no_trials)
        with pytest.raises(InvalidInputError, match="unknown filter 'zf'"):
            ex.monte_carlo_sweep(idealized_01, 16, [0.5], 2, ("zf",),
                                 "noiseless", 0)

    def test_unknown_mode_rejected(self, idealized_01):
        with pytest.raises(InvalidInputError):
            ex.monte_carlo_sweep(idealized_01, 16, [0.5], 2, ALL, "psychic", 0)

    def test_trial_entry_cap_checked_before_any_draw(self, idealized_01,
                                                     monkeypatch):
        # the largest loading sets the trial: 7 cells x K = 4 x M = 8
        monkeypatch.setattr(ex, "MAX_TRIAL_ENTRIES", 7 * 4 * 8)
        samples = ex.monte_carlo_sweep(idealized_01, 8, [0.25, 0.5], 2, ALL,
                                       "noiseless", 0)
        assert samples[(0.5, "mf")].shape == (2,)

        def no_trials(*args, **kwargs):
            raise AssertionError("run_trial called")
        monkeypatch.setattr(ex, "run_trial", no_trials)
        monkeypatch.setattr(ex, "MAX_TRIAL_ENTRIES", 7 * 4 * 8 - 1)
        with pytest.raises(InvalidInputError, match="224 channel entries"):
            ex.monte_carlo_sweep(idealized_01, 8, [0.25, 0.5], 2, ALL,
                                 "noiseless", 0)

    def test_sweep_sample_cap_checked_before_any_draw(self, idealized_01,
                                                      monkeypatch):
        # 2 loadings x 3 filters x 2 trials = 12 SINR samples
        monkeypatch.setattr(ex, "MAX_SWEEP_SAMPLES", 12)
        samples = ex.monte_carlo_sweep(idealized_01, 8, [0.25, 0.5], 2, ALL,
                                       "noiseless", 0)
        assert len(samples) * samples[(0.5, "mf")].size == 12

        def no_trials(*args, **kwargs):
            raise AssertionError("run_trial called")
        monkeypatch.setattr(ex, "run_trial", no_trials)
        monkeypatch.setattr(ex, "MAX_SWEEP_SAMPLES", 11)
        with pytest.raises(InvalidInputError,
                           match="2 loadings x 3 filters x 2 trials"):
            ex.monte_carlo_sweep(idealized_01, 8, [0.25, 0.5], 2, ALL,
                                 "noiseless", 0)

    def test_gap_to_limit_shrinks_with_antennas(self, idealized_01):
        dist = idealized_gains(7, 0.01)
        gaps = {}
        for M in (20, 200):
            samples = ex.monte_carlo_sweep(idealized_01, M, [0.5], 200, ALL,
                                           "noiseless", 11)
            theory = {f: la.to_db(x[0]) for f, x in zip(
                ("mf", "mmse", "mmse-perfect"),
                la.det_eq_sinr_rows(dist, 0.5, 0.01))}
            gaps[M] = {f: abs(la.to_db(np.median(samples[(0.5, f)])) - theory[f])
                       for f in theory}
        for f in gaps[20]:
            assert gaps[200][f] <= gaps[20][f]


class TestDropRunners:
    def test_percentile_sweep_structure(self):
        sc = parse_scenario("cost231-7cell")
        res = ex.percentile_sweep(sc, 20, [0.5], 60, "noiseless", 5)
        assert res.columns[0] == "alpha"
        row = res.rows[0]
        # Monte Carlo and limit five-percentiles in the same ballpark
        assert abs(row[1] - row[3]) < 3.0
        assert abs(row[2] - row[4]) < 3.0

    def test_rate_table_theory_columns(self):
        sc = parse_scenario("cost231-7cell")
        res = ex.rate_table(sc, None, [0.5, 1.0], None, None, 6)
        _, pilot, perfect = np.array(res.rows).T
        assert (perfect > pilot).all()
        assert (np.diff(pilot) < 0).all()  # more load, less rate per user

    def test_rate_table_idealized_is_deterministic_rate(self, idealized_01):
        res = ex.rate_table(idealized_01, None, [0.5], None, None, 0)
        _, pilot, _ = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.5, 0.01)
        expected = np.log2(1.0 + pilot[0])
        assert res.rows[0][1] == pytest.approx(expected, rel=1e-12)

    def test_rate_table_refuses_tiny_cells(self):
        sc = parse_scenario("cost231-7cell")
        with pytest.raises(InvalidInputError, match="fewer than 3"):
            ex.rate_table(sc, 10, [0.1], 5, "noiseless", 0)

    def test_training_five_percentile_tracks_repeated_pilot_theory(self):
        # full per-cell training at M=50 stays within half a dB of the
        # repeated-pilot deterministic equivalent at the fifth percentile
        sc = parse_scenario("cost231-7cell")
        dist = FadingDistribution(
            sc.gain_matrix(8000, seed_substream(1, "drops")).T)
        _, pilot_det, _ = ex.det_eq_sinr_rows(dist, 0.5, sc.noise_var)
        theory = la.to_db(ex.five_percentile(pilot_det))
        samples = ex.monte_carlo_sweep(sc, 50, [0.5], 1200, ("mmse",),
                                       "training", 1)
        mc_val = la.to_db(ex.five_percentile(samples[(0.5, "mmse")]))
        assert abs(mc_val - theory) <= 0.5

    def test_ten_antenna_rates_match_reference_bands(self):
        # small-system simulation stays near the reference table at alpha=0.5:
        # per-user rates (pilot, perfect) close to (2.9, 3.6) within +-0.5
        sc = parse_scenario("cost231-7cell")
        res = ex.rate_table(sc, 10, [0.5], 800, "noiseless", 7)
        *_, pilot_mc, perfect_mc = res.rows[0]
        assert abs(pilot_mc - 2.9) <= 0.5
        assert abs(perfect_mc - 3.6) <= 0.5

    # the abstract's claim at its smallest load: 10 antennas, 3 users per
    # cell; over seeds 0-79 the pilot-MMSE gap above the limit spanned
    # 0.21-0.37 bits on idealized-01 and 0.09-0.78 bits on cost231-7cell
    @pytest.mark.parametrize("name, low, high", [
        ("idealized-01", 0.15, 0.45), ("cost231-7cell", 0.0, 0.85)],
        ids=["idealized-01", "cost231-7cell"])
    def test_ten_antennas_three_users_near_the_limit(self, name, low, high):
        res = ex.rate_table(parse_scenario(name), 10, [0.3], 400,
                            "noiseless", 0)
        _, limit, _, simulated, _ = res.rows[0]
        assert low <= simulated - limit <= high

    @pytest.mark.parametrize("mode", ["noiseless", "training"])
    def test_runners_reduce_one_simulation_and_limit(self, mode):
        # every cell of percentile.csv and rates.csv is a reduction of the
        # pilot- and perfect-MMSE samples of one monte_carlo_sweep and of
        # the det-eq SINRs over the seed's drop law, in the runner's order
        sc = parse_scenario("cost231-7cell")
        M, grid, trials, seed = 10, [0.3, 0.5], 30, 11
        pair = ("mmse", "mmse-perfect")
        sim = ex.monte_carlo_sweep(sc, M, grid, trials, pair, mode, seed)

        def cells(reduce, n_drops):
            dist = FadingDistribution(
                sc.gain_matrix(n_drops, seed_substream(seed, "drops")).T)
            return {a: ([reduce(sim[(a, f)]) for f in pair],
                        [reduce(x) for x in ex.det_eq_sinr_rows(
                            dist, a, sc.noise_var)[1:]]) for a in grid}

        pct = cells(lambda x: la.to_db(ex.five_percentile(x)),
                    ex.PERCENTILE_DROPS)
        res = ex.percentile_sweep(sc, M, grid, trials, mode, seed)
        assert res.columns[1:] == [
            "five_pct_mmse_mc_db", "five_pct_perfect_mc_db",
            "five_pct_mmse_det_db", "five_pct_perfect_det_db"]
        assert res.rows == [(a, *pct[a][0], *pct[a][1]) for a in grid]
        rate = cells(ex.achievable_rate, ex.RATE_DROPS)
        res = ex.rate_table(sc, M, grid, trials, mode, seed)
        assert res.columns[1:] == ["rate_pilot", "rate_perfect",
                                   "rate_pilot_mc", "rate_perfect_mc"]
        assert res.rows == [(a, *rate[a][1], *rate[a][0]) for a in grid]
        res = ex.rate_table(sc, None, grid, None, None, seed)
        assert res.rows == [(a, *rate[a][1]) for a in grid]


class TestCsv:
    def test_header_and_roundtrip(self, tmp_path, idealized_01):
        res = ex.asymptotic_sweep(idealized_01, [0.5, 1.0])
        path = tmp_path / "sweep.csv"
        ex.write_csv(res, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# ulmimo-csv schema=1")
        assert "scenario_sha=" in text[0] and "units=" in text[0]
        assert text[1].split(",")[0] == "alpha"
        # shortest-roundtrip floats: parsing a cell recovers the exact value
        value = float(text[2].split(",")[1])
        assert value == res.rows[0][1]

    def test_byte_identical_rewrites(self, tmp_path, idealized_01):
        res = ex.asymptotic_sweep(idealized_01, [0.25, 0.75])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ex.write_csv(res, p1)
        ex.write_csv(res, p2)
        assert p1.read_bytes() == p2.read_bytes()
