import pytest

from rmcodes import make_tower


@pytest.fixture(scope="session")
def f16():
    """F_16 = F_2[w]/(1 + t + t^4), the worked-example field."""
    return make_tower(2, 1, 4, [1, 1, 0, 0, 1])


@pytest.fixture(scope="session")
def f64():
    """F_64 = F_2[w]/(t^6 + t^4 + t^3 + t + 1)."""
    return make_tower(2, 1, 6, [1, 1, 0, 1, 1, 0, 1])


@pytest.fixture(scope="session")
def f81():
    return make_tower(3, 1, 4)


@pytest.fixture(scope="session")
def f4():
    return make_tower(2, 1, 2)


@pytest.fixture(scope="session")
def f8():
    return make_tower(2, 1, 3)


@pytest.fixture(scope="session")
def f16_q4():
    """F_16 as a degree-2 extension of F_4 (p=2, e=2, m=2)."""
    return make_tower(2, 2, 2)


@pytest.fixture(scope="session")
def f81_q9():
    """F_81 as a degree-2 extension of F_9 (p=3, e=2, m=2)."""
    return make_tower(3, 2, 2)
