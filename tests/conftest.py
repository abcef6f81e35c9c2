import pytest

from rcgdms import instances
from rcgdms.gdms import build_paper_example


@pytest.fixture(scope="session")
def cantor():
    return instances.cantor()


@pytest.fixture(scope="session")
def cantor_shrunk():
    return instances.cantor_shrunk()


@pytest.fixture(scope="session")
def twoscale():
    return instances.twoscale()


@pytest.fixture(scope="session")
def period2():
    return instances.period2()


@pytest.fixture(scope="session")
def golden():
    return instances.golden_mean()


@pytest.fixture(scope="session")
def paper():
    return build_paper_example()


@pytest.fixture(scope="session")
def pure_tail():
    return instances.pure_tail()
