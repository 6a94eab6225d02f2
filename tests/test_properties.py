"""Invariants of the large-system solvers that hold for any gain law.

Hypothesis draws point-mass and empirical laws (1-7 cells, gains spread
over six decades, optionally with repeated samples, the equally weighted
form of unequal integer weights), loadings in (0, 1.5] and
positive noise variances. Examples are derandomized, so every run checks
the same laws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ulmimo import asymptotic as la
from ulmimo.fading import FadingDistribution

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                             database=None)

log_gains = st.floats(min_value=-4.0, max_value=2.0)


@st.composite
def gain_laws(draw):
    cells = draw(st.integers(min_value=1, max_value=7))
    samples = draw(st.sampled_from([1, 2, 5, 40]))
    exponents = draw(st.lists(log_gains, min_size=cells * samples,
                              max_size=cells * samples))
    gains = 10.0 ** np.reshape(exponents, (samples, cells))
    if samples > 1 and draw(st.booleans()):
        repeats = draw(st.lists(st.integers(min_value=1, max_value=10),
                                min_size=samples, max_size=samples))
        gains = np.repeat(gains, repeats, axis=0)
    return FadingDistribution(gains)


alphas = st.floats(min_value=0.0, max_value=1.5, exclude_min=True)
noise_vars = st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e)


@PROPERTY_SETTINGS
@given(dist=gain_laws(), alpha=alphas, noise_var=noise_vars)
def test_eta1_fixed_point_residual(dist, alpha, noise_var):
    eta1 = la.solve_det_eq(dist, alpha, noise_var).eta1
    residual = abs(la.eta1_map(dist, alpha, noise_var, eta1) - eta1) / eta1
    assert residual <= 1e-10


@PROPERTY_SETTINGS
@given(dist=gain_laws(), alpha=alphas, noise_var=noise_vars)
def test_eta1_perfect_fixed_point_residual(dist, alpha, noise_var):
    eta1 = la.solve_eta1_perfect(dist, alpha, noise_var)
    residual = abs(la.eta1_perfect_map(dist, alpha, noise_var, eta1)
                   - eta1) / eta1
    assert residual <= 1e-10


@PROPERTY_SETTINGS
@given(dist=gain_laws(), alpha=alphas, noise_var=noise_vars)
def test_eta2_at_least_eta1_squared(dist, alpha, noise_var):
    det = la.solve_det_eq(dist, alpha, noise_var)
    assert det.eta2 >= det.eta1 ** 2


@PROPERTY_SETTINGS
@given(dist=gain_laws(), alpha=alphas, noise_var=noise_vars)
def test_suppression_between_zero_and_mean_total_gain(dist, alpha, noise_var):
    det = la.solve_det_eq(dist, alpha, noise_var)
    assert 0.0 <= det.suppression <= det.mean_total_gain


@PROPERTY_SETTINGS
@given(dist=gain_laws(), alpha=alphas, noise_var=noise_vars)
def test_limit_sinrs_finite_positive_and_mmse_beats_mf(dist, alpha, noise_var):
    mf, mmse_pilot, mmse_perfect = la.det_eq_sinr_rows(dist, alpha, noise_var)
    for sinr in (mf, mmse_pilot, mmse_perfect):
        assert sinr.shape == (dist.num_samples,)
        assert np.all(np.isfinite(sinr))
        assert np.all(sinr > 0.0)
    assert np.all(mf <= mmse_pilot)
