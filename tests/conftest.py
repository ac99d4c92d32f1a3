import random

import pytest

from gptsim.catalog import classical, polygon, qubit_suite, square_bit
from gptsim.spaces import dual_cone_rays


@pytest.fixture(autouse=True)
def empty_stores():
    """Each test starts from empty ray caches and answer stores (every
    `lp.Answers` in the registry `lp.answers`: the refinement bases, the
    simulation-set and the compatibility stores), so no test's outcome
    depends on the tests that ran before it."""
    dual_cone_rays.cache_clear()


@pytest.fixture(scope="session")
def sq():
    return square_bit()


@pytest.fixture(scope="session")
def trit():
    return classical(3)


@pytest.fixture(scope="session")
def pentagon():
    return polygon(5)


@pytest.fixture(scope="session")
def hexagon():
    return polygon(6)


@pytest.fixture(scope="session")
def suite():
    return qubit_suite()


@pytest.fixture()
def rng():
    return random.Random(1234)
