import pytest

from freecone import Configuration
from freecone.catalog import example_pair, fixture_matroids, separating_pair


@pytest.fixture(scope="session")
def fixtures():
    return fixture_matroids()


@pytest.fixture(scope="session")
def m1():
    return example_pair()[0]


@pytest.fixture(scope="session")
def m2():
    return example_pair()[1]


@pytest.fixture(scope="session")
def n1():
    return separating_pair()[0]


@pytest.fixture(scope="session")
def n2():
    return separating_pair()[1]


@pytest.fixture
def searches(monkeypatch):
    """The node counts of the configurations whose canonical search runs
    while the test does, in call order."""
    calls = []
    search = Configuration._search

    def counted(cfg):
        calls.append(len(cfg))
        search(cfg)

    monkeypatch.setattr(Configuration, "_search", counted)
    return calls
