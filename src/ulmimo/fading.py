"""Large-scale fading laws.

All gains are linear power ratios, constant across a base station's
antennas. A fading sample is one joint draw ``(beta_1, ..., beta_B)`` of
the gains from a generic user in each of the B cells to the receiving
base station; a :class:`FadingDistribution` is an equally weighted
collection of such samples and is the sole expectation operator used by
the large-system solvers. Expectations are plain averages, so they are
deterministic given the sample order, and numpy's pairwise summation
keeps them independent of any partitioning to well below 1e-13 relative.
The det-eq solves read per-law constants computed once here (``mean_total``,
``mean_other``, ``mean_est_gain``, ``mean_off_estimate``) and fill the law's
scratch, not temporaries.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


class FadingDistribution:
    """Equally weighted empirical law of the per-cell gain vector.

    One row of ``gains`` per sample: a single row is the point mass of the
    idealized constant-gain cells, many rows a collection of drop samples.
    Every sample has weight 1/n.
    """

    def __init__(self, gains):
        gains = np.atleast_2d(np.asarray(gains, dtype=float))
        if gains.ndim > 2:
            raise InvalidInputError("gains must be one row or a 2-D array")
        if gains.size == 0:
            raise InvalidInputError("distribution needs at least one sample")
        if not np.all(np.isfinite(gains)) or not np.all(gains > 0.0):
            raise InvalidInputError("all gains must be finite and positive")
        self.gains = gains
        self.weights = np.full(gains.shape[0], 1.0 / gains.shape[0])
        # Per-sample derived quantities reused by every solver:
        #   total:    B        = sum_j beta_j
        #   own:      beta_1
        #   est_gain: beta_1^2 / B, the nonzero eigenvalue contributed by a
        #             contaminated-estimate direction, and the signal power
        #             S of the limit SINR
        #   cross_est_gain: sum_{j>=2} beta_j^2 / B, its other-cell
        #             coupling, and the contaminators' power P of that SINR
        # and the law's componentwise mean E[beta_j], length B.
        self.total = gains.sum(axis=1)
        self.own = gains[:, 0]
        self.est_gain = self.own**2 / self.total
        self.cross_est_gain = (gains[:, 1:] ** 2).sum(axis=1) / self.total
        self.mean_gains = self.weights @ gains
        # Constants the det-eq solves read at every step: E[B],
        # sum_{j>=2} E[beta_j], E[est_gain] and E[B - est_gain], the last
        # as (B - beta_1)(B + beta_1) / B so that one cell gives 0 exactly.
        # The solves never nest or run concurrently, so one (2, n) scratch
        # per law serves them all.
        self.mean_total = float(self.mean_gains.sum())
        self.mean_other = float(self.mean_gains[1:].sum())
        self.mean_est_gain = self.expect(self.est_gain)
        self.mean_off_estimate = self.expect(
            gains[:, 1:].sum(axis=1) * (self.total + self.own) / self.total)
        self._scratch = np.empty((2, gains.shape[0]))

    @property
    def num_samples(self) -> int:
        return self.gains.shape[0]

    def expect(self, values: np.ndarray) -> float:
        """Average of a per-sample array of shape (num_samples,)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_samples,):
            raise InvalidInputError("per-sample values must match sample count")
        return float(self.weights @ values)


def expect_total_gain(dist: FadingDistribution) -> tuple[float, np.ndarray]:
    """E[B] and the per-cell means E[beta_j] of a fading distribution."""
    if not isinstance(dist, FadingDistribution):
        raise InvalidInputError("expected a FadingDistribution")
    return dist.mean_total, dist.mean_gains
