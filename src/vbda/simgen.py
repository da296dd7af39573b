"""Synthetic two-group Gaussian data with controlled signal and correlation.

The study grid crosses four mean specifications with four correlation
structures (sixteen settings).  Group labels are balanced Bernoulli(0.5);
group-conditional draws share one covariance, built column-by-column so the
cost stays O(np) with no p-by-p factorization:

* AR(1) chains use the recursion z_j = rho z_{j-1} + sqrt(1-rho^2) e_j,
  optionally restarted on block boundaries;
* uniform correlation uses the one-factor form
  z_j = sqrt(rho) g + sqrt(1-rho) e_j.

A nonzero ``delta_sigma`` inflates the group-0 standard deviation on the
signal variables to 1 + delta_sigma, producing the heterogeneous-variance
regime where the quadratic model should win.

``generate`` wraps the private ``_draw``, which makes every random draw of a
replicate and returns the bare matrix and labels; ``generate`` splits them
into Datasets named v1..vp.  The consistency experiment draws no data: it
calls ``_draw_moments``, which draws the training split's group moments of
any setting from their exact laws in O(p), whatever n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataValidationError, Dataset, _column_names

__all__ = [
    "MEAN_SPECS",
    "COV_SPECS",
    "SimSetting",
    "SimReplicate",
    "setting_from_index",
    "generate",
    "ar1_sample",
    "uniform_corr_sample",
    "derive_seed",
]

# mean spec -> (signal count, fixed group-1 mean or None for random draws)
MEAN_SPECS = {
    "s1": (50, 0.7),
    "s2": (100, 0.3),
    "s3": (200, 0.7),
    "s4": (10, None),  # mu_j1 ~ N(0.5, 0.3^2), drawn once per replicate
}
_S4_MEAN, _S4_SD = 0.5, 0.3

COV_SPECS = ("independence", "block_ar1", "global_ar1", "uniform")
_RHO = {"independence": 0.0, "block_ar1": 0.6, "global_ar1": 0.9, "uniform": 0.8}
_BLOCK_SIZE = 100
_MAX_LABEL_REDRAWS = 100


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def derive_seed(base_seed: int, *indices: int) -> int:
    """A stable child seed for the work unit at ``indices`` under ``base_seed``.

    Indices are shifted by one inside the entropy list: SeedSequence ignores
    trailing zero entropy words, which would otherwise alias (i,) with (i, 0).
    """
    if int(base_seed) < 0:
        raise DataValidationError(f"seed must be nonnegative, got {base_seed}")
    for i in indices:
        if int(i) < 0:
            raise DataValidationError(f"seed indices must be nonnegative, got {i}")
    entropy = [int(base_seed), *(int(i) + 1 for i in indices)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class SimSetting:
    """One cell of the simulation grid.

    ``mean_spec`` is one of s1..s4 or "custom" (then ``signal_count`` and
    ``signal_mean`` are required).  The correlation of each structure is
    fixed (``_RHO``).  ``delta_sigma`` adds to the group-0 SD on signal
    variables only.
    """

    mean_spec: str = "s1"
    cov_spec: str = "independence"
    p: int = 500
    n_train: int = 100
    n_valid: int = 100
    n_test: int = 1000
    delta_sigma: float = 0.0
    seed: int = 0
    signal_count: int | None = None
    signal_mean: float | None = None

    def __post_init__(self):
        if self.mean_spec not in MEAN_SPECS and self.mean_spec != "custom":
            raise DataValidationError(f"unknown mean spec {self.mean_spec!r}")
        if self.cov_spec not in COV_SPECS:
            raise DataValidationError(f"unknown covariance spec {self.cov_spec!r}")
        if self.mean_spec == "custom":
            if self.signal_count is None or self.signal_mean is None:
                raise DataValidationError(
                    "custom mean spec requires signal_count and signal_mean"
                )
        if self.p < 1:
            raise DataValidationError("p must be >= 1")
        if self.n_train < 4:
            raise DataValidationError("n_train must be >= 4")
        if self.n_valid < 0 or self.n_test < 0:
            raise DataValidationError("split sizes must be nonnegative")
        for name in ("delta_sigma", "signal_mean"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DataValidationError(f"{name} must be finite, got {value}")
        if self.delta_sigma < 0:
            raise DataValidationError("delta_sigma must be nonnegative")
        if self.seed < 0:
            raise DataValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.signal_count is not None and not 0 <= self.signal_count <= self.p:
            raise DataValidationError("signal_count must lie in [0, p]")
        if self.p1 > self.p:
            raise DataValidationError(
                f"mean spec {self.mean_spec!r} needs p >= {self.p1}, got p={self.p}"
            )
        if self.cov_spec == "block_ar1" and self.p % _BLOCK_SIZE != 0:
            raise DataValidationError(
                f"block AR(1) needs p divisible by {_BLOCK_SIZE}, got p={self.p}"
            )

    @property
    def p1(self) -> int:
        if self.signal_count is not None:
            return self.signal_count
        return MEAN_SPECS[self.mean_spec][0]


def setting_from_index(index: int, **overrides) -> SimSetting:
    """Settings 1-16: {s, s+4, s+8, s+12} share mean spec s and sweep the
    covariance structures in the order independence, block AR(1), global
    AR(1), uniform."""
    if not 1 <= index <= 16:
        raise DataValidationError(f"setting index must be in 1..16, got {index}")
    mean = ("s1", "s2", "s3", "s4")[(index - 1) % 4]
    cov = COV_SPECS[(index - 1) // 4]
    return SimSetting(mean_spec=mean, cov_spec=cov, **overrides)


@dataclass(frozen=True)
class SimReplicate:
    """Train/valid/test datasets plus the generating truth."""

    train: Dataset
    valid: Dataset | None
    test: Dataset | None
    gamma_true: np.ndarray
    mu1: np.ndarray
    sigma0: np.ndarray
    setting: SimSetting


def ar1_sample(p: int, rho: float, n: int, seed, block_size: int | None = None):
    """n-by-p standard normals with AR(1) cross-column correlation.

    Generated by the stationary recursion, so every column is marginally
    N(0,1) and corr(z_j, z_k) = rho^|j-k| exactly (within a block when
    ``block_size`` is set; blocks are independent).
    """
    if not -1.0 < rho < 1.0:
        raise DataValidationError(f"AR(1) requires |rho| < 1, got {rho}")
    rng = _rng(seed)
    z = rng.standard_normal((n, p))
    if rho == 0.0:
        return z
    carry = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        if block_size is not None and j % block_size == 0:
            continue  # new independent chain
        z[:, j] = rho * z[:, j - 1] + carry * z[:, j]
    return z


def uniform_corr_sample(p: int, rho: float, n: int, seed):
    """n-by-p standard normals with constant pairwise correlation rho.

    One shared factor per row: z_j = sqrt(rho) g + sqrt(1-rho) e_j.
    """
    if not 0.0 <= rho < 1.0:
        raise DataValidationError(f"uniform correlation requires rho in [0, 1), got {rho}")
    rng = _rng(seed)
    g = rng.standard_normal((n, 1))
    e = rng.standard_normal((n, p))
    # Scaled and shifted in place: the same bits as sqrt(rho) g + sqrt(1-rho) e,
    # since IEEE addition commutes, with no n-by-p temporary.
    e *= np.sqrt(1.0 - rho)
    e += np.sqrt(rho) * g
    return e


def _correlated_normals(s: SimSetting, n: int, rng: np.random.Generator):
    rho = _RHO[s.cov_spec]
    if s.cov_spec == "independence":
        return rng.standard_normal((n, s.p))
    if s.cov_spec == "block_ar1":
        return ar1_sample(s.p, rho, n, rng, block_size=_BLOCK_SIZE)
    if s.cov_spec == "global_ar1":
        return ar1_sample(s.p, rho, n, rng)
    return uniform_corr_sample(s.p, rho, n, rng)


def _means_and_scales(s: SimSetting, rng: np.random.Generator):
    """``(mu1, sigma0)``: the group-1 means and the group-0 standard deviations
    of ``s``.  Under mean spec s4 the signal means are drawn from ``rng``."""
    signal = slice(0, s.p1)
    mu1 = np.zeros(s.p)
    if s.mean_spec == "custom":
        mu1[signal] = s.signal_mean
    elif s.mean_spec == "s4":
        mu1[signal] = rng.normal(_S4_MEAN, _S4_SD, size=s.p1)
    else:
        mu1[signal] = MEAN_SPECS[s.mean_spec][1]
    sigma0 = np.ones(s.p)
    sigma0[signal] += s.delta_sigma
    return mu1, sigma0


def _redraw_labels(draw, n1_of, n_train: int):
    """``draw()`` again until ``n1_of`` of its result puts at least two of the
    ``n_train`` training rows in each group; raises after
    ``_MAX_LABEL_REDRAWS`` attempts."""
    for _ in range(_MAX_LABEL_REDRAWS):
        labels = draw()
        if 2 <= n1_of(labels) <= n_train - 2:
            return labels
    raise DataValidationError(
        f"could not draw a training split with two observations per group "
        f"in {_MAX_LABEL_REDRAWS} attempts (n_train={n_train})"
    )


def _draw(s: SimSetting):
    """The random part of :func:`generate`: labels for all three splits (with
    redraws), then the correlated matrix with its mean and scale shifts.

    Returns ``(X, y, mu1, sigma0)``, unnamed and unsplit, from the same RNG
    calls in the same order as ``generate``, which wraps them.
    """
    rng = np.random.default_rng(s.seed)
    mu1, sigma0 = _means_and_scales(s, rng)
    total = s.n_train + s.n_valid + s.n_test
    y = _redraw_labels(lambda: rng.integers(0, 2, size=total),
                       lambda y: y[: s.n_train].sum(), s.n_train)

    X = _correlated_normals(s, total, rng)
    is0 = y == 0
    signal = np.arange(s.p1)
    if s.delta_sigma > 0:
        X[np.ix_(is0, signal)] *= sigma0[signal]
    X[np.ix_(~is0, signal)] += mu1[signal]
    return X, y, mu1, sigma0


def _draw_moments(s: SimSetting):
    """The training split's group moments, drawn from their exact laws with
    no data: ``(centers, m0, m1)`` for ``core._stats_from_moments``, in O(p)
    time and memory at any n.

    The group-1 count n1 is Binomial(n, 1/2), redrawn as ``_draw`` redraws
    its labels.  Given n1, group g's rows are mu_g + sigma_g z with z a row
    of the setting's correlated normals.  So its column means are
    mu_g + sigma_g a_g / sqrt(n_g), with a_g one such row, and by a Helmert
    rotation its sums of squares about them are Q_g = sigma_g^2 W_g,
    independent of the means, with W_g the diagonal of a Wishart matrix on
    m = n_g - 1 degrees of freedom (``_standard_moments``).  The sums about
    the centers are S_g = 0.  So the statistics have the law of
    ``compute_stats`` on a ``_draw`` of ``s``, though not its values.  The
    splits other than training are not drawn.
    """
    rng = np.random.default_rng(s.seed)
    mu1, sigma0 = _means_and_scales(s, rng)
    n = s.n_train
    n1 = _redraw_labels(lambda: int(rng.binomial(n, 0.5)), int, n)
    counts = np.array([[n - n1], [n1]])
    centers, Q = _standard_moments(s, counts - 1, rng)
    # Group 0 has mean 0 and group 1 unit scale, so each takes one update.
    centers[0] *= sigma0
    centers /= np.sqrt(counts)
    centers[1] += mu1
    Q[0] *= sigma0 * sigma0
    zero = np.zeros(s.p)
    return centers, (n - n1, zero, Q[0]), (n1, zero, Q[1])


def _standard_moments(s: SimSetting, dof: np.ndarray, rng: np.random.Generator):
    """``(a, W)``, each 2-by-p: row g of ``a`` is one row of the correlated
    normals of ``s``, and row g of ``W`` holds W_j = ||H_j||^2 for the
    columns H_j of an independent m-by-p matrix of such rows, m = dof[g].

    * Independence: the W_j are chi^2_m.
    * Uniform: H_j = sqrt(rho) g + sqrt(1 - rho) E_j, so given G = ||g||^2,
      drawn chi^2_m once per group, the W_j are independent, (1 - rho) times
      a noncentral chi^2_m with noncentrality rho G / (1 - rho).
    * AR(1): ``a`` takes ``ar1_sample``'s recursion over plain floats, with
      the same values, and ``W`` the chain of ``_ar1_gram_diagonal``.
    """
    rho = _RHO[s.cov_spec]
    if s.cov_spec == "independence":
        return rng.standard_normal((2, s.p)), rng.chisquare(dof, size=(2, s.p))
    if s.cov_spec == "uniform":
        a = uniform_corr_sample(s.p, rho, 2, rng)
        W = [rng.noncentral_chisquare(m, rho * rng.chisquare(m) / (1.0 - rho), size=s.p)
             for m in dof.ravel().tolist()]
        return a, (1.0 - rho) * np.stack(W)
    block = _BLOCK_SIZE if s.cov_spec == "block_ar1" else s.p
    a = [_ar1_chain(row, rho, block) for row in rng.standard_normal((2, s.p)).tolist()]
    W = [_ar1_gram_diagonal(m, rho, block, s.p, rng) for m in dof.ravel().tolist()]
    return np.array(a), np.array(W)


def _ar1_chain(e: list, rho: float, block: int) -> list:
    """x_j = e_j at each chain start (every ``block`` entries), else
    rho x_{j-1} + sqrt(1 - rho^2) e_j: one row of ``ar1_sample``."""
    c = math.sqrt(1.0 - rho * rho)
    x, out = 0.0, []
    for j, e_j in enumerate(e):
        x = e_j if j % block == 0 else rho * x + c * e_j
        out.append(x)
    return out


def _ar1_gram_diagonal(m: int, rho: float, block: int, p: int,
                       rng: np.random.Generator) -> list:
    """W_j = ||H_j||^2 for the AR(1) columns H_j = rho H_{j-1} + c E_j of an
    m-by-p matrix, c = sqrt(1 - rho^2), E_j ~ N(0, I_m), in chains of
    ``block`` columns.  A chain starts at W ~ chi^2_m.  By rotational
    invariance the law of ||H_j||^2 given H_{j-1} depends only on W_{j-1}:
    W_j = (rho sqrt(W_{j-1}) + c z_j)^2 + c^2 V_j, with z_j ~ N(0, 1) the
    part of E_j along H_{j-1} and V_j ~ chi^2_{m-1} the rest (0 when
    m = 1, which numpy's chisquare rejects)."""
    c2 = 1.0 - rho * rho
    c = math.sqrt(c2)
    chains, steps = p // block, (p // block, block - 1)
    starts = rng.chisquare(m, size=chains).tolist()
    z = rng.standard_normal(steps).tolist()
    v = rng.chisquare(m - 1, size=steps).tolist() if m > 1 else [[0.0] * (block - 1)] * chains
    out = []
    for w, z_chain, v_chain in zip(starts, z, v):
        out.append(w)
        for z_j, v_j in zip(z_chain, v_chain):
            h = rho * math.sqrt(w) + c * z_j
            w = h * h + c2 * v_j
            out.append(w)
    return out


def _signal_mask(s: SimSetting) -> np.ndarray:
    """The true selection: the first ``s.p1`` variables carry the signal."""
    gamma_true = np.zeros(s.p, dtype=bool)
    gamma_true[: s.p1] = True
    return gamma_true


def generate(s: SimSetting) -> SimReplicate:
    """Draw one replicate: labels, correlated noise, then mean/scale shifts.

    Labels are redrawn (up to a bounded number of attempts) if the training
    slice ends up with fewer than two observations in either group, which
    keeps every replicate a valid training set.  Deterministic given
    ``s.seed``.  Each split is a Dataset with the default names v1..vp.
    """
    X, y, mu1, sigma0 = _draw(s)
    columns = _column_names(None, s.p)

    def cut(lo, hi):
        if hi == lo:
            return None
        return Dataset(X[lo:hi], y[lo:hi], columns=columns)

    n_t, n_v = s.n_train, s.n_valid
    return SimReplicate(
        train=cut(0, n_t),
        valid=cut(n_t, n_t + n_v),
        test=cut(n_t + n_v, X.shape[0]),
        gamma_true=_signal_mask(s),
        mu1=mu1,
        sigma0=sigma0,
        setting=s,
    )
