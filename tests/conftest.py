import os

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ulmimo.geometry import idealized_gains
from ulmimo.rng import complex_gaussian, seed_substream


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """Fail the run if a child of the test process is left unreaped at its
    end, as a leaked Monte Carlo worker would be."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    state = "still running" if pid == 0 else f"{pid} exited but unreaped"
    pytest.fail(f"the test run left a child process behind ({state})")


@pytest.fixture(scope="session")
def seven_cell_001():
    """Idealized 7-cell law with other-cell gain 0.01."""
    return idealized_gains(7, 0.01)


@pytest.fixture(scope="session")
def seven_cell_01():
    return idealized_gains(7, 0.1)


@pytest.fixture(scope="session")
def single_cell():
    return idealized_gains(1, 0.5)


@pytest.fixture(scope="session")
def point_mass_root():
    """eta1 and eta2 of a one-sample law in closed form.

    With p = beta_1^2/B and c = noise_var + alpha (B - p), eta1 is the
    positive root of c p x^2 + (c + alpha p - p) x - 1 = 0, and eta2 =
    -d eta1 / d noise_var follows by implicit differentiation.
    """
    def root(dist, alpha, noise_var):
        p, total = dist.est_gain[0], dist.total[0]
        c = noise_var + alpha * (total - p)
        b = c + alpha * p - p
        x = 2.0 / (b + (b * b + 4.0 * c * p) ** 0.5)
        return x, x * (1.0 + p * x) / (2.0 * c * p * x + b)
    return root


@pytest.fixture(scope="session")
def det_eq_oracle():
    """(dist, alpha, noise_var, dps=50) -> eta1, eta2, C and the per-sample
    pilot-MMSE SINR of a law, as mpmath numbers in ``dps``-digit arithmetic
    from the float gains.

    eta1 is the root of x (noise_var + alpha E[B] - alpha E[p^2 x/(1+px)])
    = 1, the fixed point of the eta1 map, which lies between the map's
    lower bound 1/(noise_var + alpha E[B]) and 1/noise_var; eta2 is
    1/(eta1^-2 - alpha E[(p/(1+p eta1))^2]), and C and the SINR
    S/(noise_var + P + alpha (E[B] - C)) take their defining sums. Each
    difference is exact to the working precision, so it must hold enough
    digits for the cancellation of its case.
    """
    return _det_eq_oracle


def _det_eq_oracle(dist, alpha, noise_var, dps=50):
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        rows = [[mpf(float(g)) for g in row] for row in dist.gains]
        n, a, s2 = len(rows), mpf(float(alpha)), mpf(float(noise_var))
        total = [sum(row) for row in rows]
        p = [row[0] ** 2 / b for row, b in zip(rows, total)]
        q = [sum(g * g for g in row[1:]) / b for row, b in zip(rows, total)]
        mean_total = sum(total) / n

        def residual(x):
            shrink = sum(pi * pi * x / (1 + pi * x) for pi in p) / n
            return x * (s2 + a * mean_total - a * shrink) - 1

        # bisect geometrically to 12 digits, then polish by the secant
        lo, hi = 1 / (s2 + a * mean_total), 1 / s2
        while hi > lo * (1 + mpf("1e-12")):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if residual(mid) < 0 else (lo, mid)
        eta1 = lo if lo == hi else mpmath.findroot(residual, (lo, hi))
        r = [1 / (1 + pi * eta1) for pi in p]
        eta2 = 1 / (eta1 ** -2 - a * sum((pi * ri) ** 2
                                         for pi, ri in zip(p, r)) / n)
        ratio = eta2 / eta1
        supp = sum(pi * pi * eta1 * ri + ratio * pi * qi * (ri + ri * ri)
                   for pi, qi, ri in zip(p, q, r)) / n
        pilot = [pi / (s2 + qi + a * (mean_total - supp))
                 for pi, qi in zip(p, q)]
        return eta1, eta2, supp, pilot


@pytest.fixture(scope="session")
def trace_lemma_draws():
    """Criterion 9f's forty trace-lemma draws at M = 1024, K = 513.

    Each is (h1^H G^-1 h1, tr(G^-1) / M) with G = H2 H2^H + I over the
    other K - 1 columns, drawn once for every band that reads them.
    """
    M, K, trials = 1024, 513, 40
    rng = seed_substream(1, "acc.trace")
    pairs = []
    for _ in range(trials):
        h = complex_gaussian(rng, (K, M), 1.0 / M)
        G = (h[1:].T @ h[1:].conj()) + np.eye(M)
        cf = sla.cho_factor(G, lower=True)
        inv_l = sla.solve_triangular(cf[0], np.eye(M), lower=True)
        tr = float(np.sum(np.abs(inv_l) ** 2))
        quad = float((h[0].conj() @ sla.cho_solve(cf, h[0])).real)
        pairs.append((quad, tr / M))
    return pairs
