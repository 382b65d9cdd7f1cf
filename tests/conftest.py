import os

import numpy as np
import pytest

import minenergy as me

# Subprocesses (``python -m minenergy``) import the package from this
# checkout too, as pytest's ``pythonpath`` setting has the tests do.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])

# The 1-d benchmark A = -1, B = 1 threads through most suites: every quantity
# has a closed form, so tolerances can be tight.
SCALAR_Q1 = (1.0 - np.exp(-2.0)) / 2.0          # Q_1 = (1 - e^{-2})/2
SCALAR_QINF = 0.5
SCALAR_V11 = 1.0 / (1.0 - np.exp(-2.0))          # V(1, 1)
SCALAR_U0 = 2.0 / (1.0 - np.exp(-2.0))           # optimal control at r = 0
SCALAR_UM1 = 2.0 * np.exp(-1.0) / (1.0 - np.exp(-2.0))   # at r = -1


def stiff_non_normal_system():
    """A = V diag(-geomspace(1, 3000, 8)) V^-1 with V = I + 0.5 N(0, 1)
    (cond(V) = 16) and B 8 x 3 Gaussian, both from seed 3: rates over three
    decades behind eigenvectors far from orthogonal."""
    rng = np.random.default_rng(3)
    V = np.eye(8) + 0.5 * rng.standard_normal((8, 8))
    A = V @ np.diag(-np.geomspace(1.0, 3000.0, 8)) @ np.linalg.inv(V)
    return me.LinearSystem(A, rng.standard_normal((8, 3)))


@pytest.fixture
def scalar_sys():
    return me.LinearSystem([[-1.0]], [[1.0]])


@pytest.fixture
def diag_sys():
    """Stable diagonal pair: everything is still closed-form per mode."""
    return me.LinearSystem(np.diag([-1.0, -2.0]), np.eye(2))


@pytest.fixture
def coupled_sys():
    """Rotation-coupled stable system; A does not commute with BB^T."""
    A = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    B = np.array([[1.0], [0.0]])
    return me.LinearSystem(A, B)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
