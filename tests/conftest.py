import pytest
from hypothesis import settings

from pgcones import field_new, geometry_new

# Same examples on every run, and no per-example time limit: the property
# tests check exact results, not speed.  max_examples keeps its default.
settings.register_profile("pgcones", derandomize=True, deadline=None)
settings.load_profile("pgcones")


@pytest.fixture(scope="session")
def gf4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def plane4(gf4):
    return geometry_new(gf4, 2)


@pytest.fixture(scope="session")
def pg34(gf4):
    return geometry_new(gf4, 3)


@pytest.fixture(scope="session")
def pg44(gf4):
    return geometry_new(gf4, 4)


@pytest.fixture(scope="session")
def pg54(gf4):
    return geometry_new(gf4, 5)


@pytest.fixture(scope="session")
def plane8():
    return geometry_new(field_new(2, 3), 2)
