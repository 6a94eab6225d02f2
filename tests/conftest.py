import os

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
