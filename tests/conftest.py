import pytest

from ulmimo.geometry import idealized_gains


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
