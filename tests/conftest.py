import math
import tracemalloc

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
def einsum_shapes(monkeypatch):
    """The shape of the first operand of every ``np.einsum`` call made while
    the test runs: ``core._moments`` makes one call per tile it reads."""
    shapes = []
    einsum = np.einsum

    def counting_einsum(subscripts, tile, *rest, **kw):
        shapes.append(tile.shape)
        return einsum(subscripts, tile, *rest, **kw)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    return shapes


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


def numpy_stats(X, y, floor):
    """((n, n1, n0), floored, {field: value}): the seven statistics of
    ``VariableStats`` by plain numpy mean and var over each row set, floored
    and flagged as documented."""
    X1, X0 = X[y == 1], X[y == 0]
    n, n1, n0 = len(X), len(X1), len(X0)
    var1, var0 = X1.var(axis=0), X0.var(axis=0)
    raw = dict(mu_hat=X.mean(axis=0), mu1_hat=X1.mean(axis=0), mu0_hat=X0.mean(axis=0),
               var_total=X.var(axis=0), var_pooled=(n1 * var1 + n0 * var0) / n,
               var1=var1, var0=var0)
    variances = ("var_total", "var_pooled", "var1", "var0")
    floored = np.logical_or.reduce([raw[f] < floor for f in variances])
    for f in variances:
        raw[f] = np.maximum(raw[f], floor)
    return (n, n1, n0), floored, raw


def tiled_data(n: int, p: int, offset: float):
    """(X, y): n balanced rows of p columns at a common column offset, with
    a mean shift in the first 5 columns of group 1 and a variance change in
    the next 5, for checking tiled statistics against ``numpy_stats``."""
    rng = np.random.default_rng(7)
    y = np.repeat([0, 1], n // 2)
    X = offset + rng.standard_normal((y.size, p))
    X[y == 1, :5] += 1.5
    X[y == 1, 5:10] *= 2.0
    return X, y


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of a second ``call()``: the first one
    makes the allocations that only a first call makes."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
