import numpy as np
import pytest

from ulmimo.errors import InvalidInputError
from ulmimo.fading import FadingDistribution, expect_total_gain
from ulmimo.rng import seed_substream
from ulmimo.scenario import parse_scenario


class TestFadingDistribution:
    def test_point_mass_expectation(self):
        dist = FadingDistribution([1.0] + [0.01] * 6)
        e_total, e_comp = expect_total_gain(dist)
        assert e_total == pytest.approx(1.06, abs=1e-15)
        assert e_comp[0] == 1.0

    def test_two_sample_mean(self):
        gains = np.array([[1.0, 0.5], [0.5, 0.25]])
        dist = FadingDistribution(gains)
        e_total, e_comp = expect_total_gain(dist)
        # equal weights: ((1.5) + (0.75))/2
        assert e_total == pytest.approx(1.125)
        assert np.allclose(e_comp, [0.75, 0.375])

    def test_equal_weight_own_gain_mean(self):
        # the spec's arithmetic-mean example, extended with a tiny other cell
        gains = np.array([[1.0, 1e-12], [0.5, 1e-12]])
        dist = FadingDistribution(gains)
        e_total, _ = expect_total_gain(dist)
        assert e_total == pytest.approx(0.75, abs=1e-9)

    def test_from_samples_matches_direct(self):
        # a list of per-sample gain rows builds the same law as the stacked array
        rows = [[1.0, 0.2], [0.5, 0.1]]
        dist = FadingDistribution(rows)
        direct = FadingDistribution(np.array(rows))
        assert np.array_equal(dist.weights, [0.5, 0.5])
        assert np.array_equal(dist.gains, direct.gains)
        assert np.array_equal(dist.weights, direct.weights)
        assert np.allclose(dist.mean_gains, [0.75, 0.15])

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(InvalidInputError):
            FadingDistribution(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("call, message", [
        (lambda dist: dist.expect(np.ones(3)),
         "per-sample values must match sample count"),
        (lambda dist: expect_total_gain(dist.gains),
         "expected a FadingDistribution")], ids=["expect", "total-gain"])
    def test_misuse_refused(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call(FadingDistribution([[1.0, 0.5], [0.5, 0.25]]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            FadingDistribution(np.empty((0, 3)))

    def test_three_dimensional_gains_rejected(self):
        # atleast_2d keeps a third axis, and row sums would then be 2-D
        with pytest.raises(InvalidInputError, match="2-D"):
            FadingDistribution(np.ones((2, 2, 2)))

    def test_derived_arrays(self):
        dist = FadingDistribution([1.0, 0.1, 0.1])
        assert dist.total[0] == pytest.approx(1.2)
        assert dist.est_gain[0] == pytest.approx(1.0 / 1.2)
        assert dist.cross_est_gain[0] == pytest.approx(0.02 / 1.2)

    def test_expectation_partition_invariance(self):
        # pairwise summation: splitting the sample set and recombining the
        # weighted pieces must agree to 1e-13 relative
        rng = np.random.default_rng(3)
        gains = rng.uniform(0.01, 1.0, size=(10_001, 7))
        dist = FadingDistribution(gains)
        whole = dist.expect(dist.est_gain)
        parts = sum(float(dist.weights[i:i + 997] @ dist.est_gain[i:i + 997])
                    for i in range(0, 10_001, 997))
        assert abs(whole - parts) <= 1e-13 * abs(whole)

    def test_effective_powers(self):
        dist = FadingDistribution([1.0] + [0.1] * 6)
        # own^2/total and sum(contam^2)/total with total = 1.6
        assert dist.total[0] == pytest.approx(1.6)
        assert dist.est_gain[0] == pytest.approx(1.0 / 1.6)
        assert dist.cross_est_gain[0] == pytest.approx(6 * 0.01 / 1.6)

    def test_single_cell_profile(self):
        dist = FadingDistribution([2.0])
        assert dist.cross_est_gain[0] == 0.0
        assert dist.est_gain[0] == pytest.approx(2.0)

    def test_rejects_bad_gains(self):
        with pytest.raises(InvalidInputError):
            FadingDistribution([0.0, 0.1])
        with pytest.raises(InvalidInputError):
            FadingDistribution([1.0, -0.1])


def _laws():
    """A point mass, a two-sample law and a 200-drop cost231 law."""
    drops = parse_scenario("cost231-7cell").gain_matrix(
        200, seed_substream(0, "drop-law"))
    return [FadingDistribution([1.0] + [0.01] * 6),
            FadingDistribution([[1.0, 0.5], [0.5, 0.25]]),
            FadingDistribution(drops.T)]


class TestPerLawConstants:
    """The constants the det-eq solves read equal the expressions they replace."""

    @pytest.mark.parametrize("dist", _laws(), ids=["point", "two", "cost231"])
    def test_constants_equal_their_expressions(self, dist):
        p = dist.est_gain
        assert dist.est_gain_sq.tobytes() == (p * p).tobytes()
        assert dist.mean_total == float(dist.mean_gains.sum())
        assert dist.mean_other == float(dist.mean_gains[1:].sum())
        assert expect_total_gain(dist)[0] == dist.mean_total
        assert dist.mean_est_gain == dist.expect(p)
        assert dist.mean_off_estimate == pytest.approx(
            dist.mean_total - dist.mean_est_gain, rel=1e-12)

    def test_one_cell_puts_all_gain_on_the_estimate(self):
        # E[B - est_gain] is summed without the difference, so it is 0 on
        # one cell even where beta^2 / beta rounds away from beta
        dist = FadingDistribution([[3.0], [0.1], [7e-7]])
        assert dist.mean_off_estimate == 0.0
