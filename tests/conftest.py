import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import vbda

# Property suites must stay quick enough to run as one batch; individual
# strategies are cheap, so a moderate example count is plenty.
settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_dataset(rng):
    """40x8 training set with three strong signals in columns 0..2."""
    X = rng.standard_normal((40, 8))
    y = np.array([0, 1] * 20)
    X[y == 1, :3] += 2.0
    return vbda.Dataset(X, y)


def make_balanced(n: int, p: int, seed: int, shift: float = 0.0, k: int = 0):
    """Balanced labels, optional mean shift on the first k columns."""
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1], n // 2)
    X = rng.standard_normal((y.size, p))
    if k:
        X[y == 1, :k] += shift
    return vbda.Dataset(X, y)


def log_gaussian_density(x, mu, var):
    """Element-wise log N(x; mu, var) = -(1/2) log(2 pi var) - (x-mu)^2/(2 var)."""
    x = np.asarray(x, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    return -0.5 * np.log(2.0 * math.pi * var) - (x - mu) ** 2 / (2.0 * var)
