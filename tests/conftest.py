import numpy as np
import pytest

from shallowshell import ForceDensity, Grid, Immersion, Material, make_assembly


@pytest.fixture
def grid9():
    return Grid(1.0, 1.0, 9, 9)


@pytest.fixture
def grid17():
    return Grid(1.0, 1.0, 17, 17)


@pytest.fixture
def material():
    return Material(lam=1.0, mu=1.0, eps=0.1)


@pytest.fixture
def plate():
    return Immersion("plate")


@pytest.fixture
def paraboloid():
    return Immersion("paraboloid", params={"t": 0.1})


@pytest.fixture
def general_force():
    def make(grid):
        return ForceDensity.constant(grid, 0.5, -0.3, 1.0)

    return make


@pytest.fixture
def plate_assembly(grid17, plate, material, general_force):
    return make_assembly(grid17, plate, material, general_force(grid17))


@pytest.fixture
def shell_assembly(grid17, paraboloid, material, general_force):
    return make_assembly(grid17, paraboloid, material, general_force(grid17))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def seeded_loads():
    """ROADMAP's 24 seeded polynomial loads, as the (p1, p2, p3) coefficient
    triples (c0, c_y1, c_y2) of ForceDensity.polynomial.  One
    np.random.default_rng(2026) draws load k = 0 .. 23 as a * three standard
    normals for p1, then p2, then p3: a = 8 for p1 and p2, and for p3 a = 0
    when k is even, 0.5 when k is odd.  All nine normals are drawn even when
    a = 0, so the even loads are purely tangential."""
    rng = np.random.default_rng(2026)
    loads = []
    for k in range(24):
        scales = (8.0, 8.0, 0.5 * (k % 2))
        loads.append(tuple(tuple((a * rng.standard_normal(3)).tolist()) for a in scales))
    return loads
