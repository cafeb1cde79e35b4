import pytest

from freecone import Configuration
from freecone.catalog import example_pair, fixture_matroids, separating_pair
from freecone.zlattice import _ANY_LEAF, _Poset


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


@pytest.fixture
def stopping_searches(monkeypatch):
    """The searches with a goal that run while the test does, in call
    order: "descent" for one that stops at its first leaf, "match" for one
    that looks for a given certificate."""
    calls = []
    canonical = _Poset._canonical

    def counted(poset, goal=None):
        if goal is not None:
            calls.append("descent" if goal is _ANY_LEAF else "match")
        return canonical(poset, goal)

    monkeypatch.setattr(_Poset, "_canonical", counted)
    return calls
