import numpy as np
import pytest

from wmgtomo.geometry import Geometry, build_projector
from wmgtomo.phantom import shepp_logan


@pytest.fixture(scope="session")
def w16():
    """Small full system: 16x16 image, 24 angles x 24 detectors."""
    g = Geometry(16, 24, 24)
    return g, build_projector(g)


@pytest.fixture(scope="session")
def w40():
    """The spectral-analysis instance: 40x40 image, 100 angles x 40 detectors."""
    g = Geometry(40, 40, 100)
    return g, build_projector(g)


@pytest.fixture(scope="session")
def spd8():
    """Random dense SPD 8x8 system with a known direct solution."""
    rng = np.random.default_rng(7)
    b = rng.standard_normal((8, 8))
    a = b.T @ b + np.eye(8)
    f = rng.standard_normal(8)
    return a, f, np.linalg.solve(a, f)


@pytest.fixture(scope="session")
def phantom16():
    return shepp_logan(16)
