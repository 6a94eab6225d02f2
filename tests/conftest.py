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
