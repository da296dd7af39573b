"""Ground truth for tests: the exact posterior over (gamma, y_new).

This module deliberately avoids the Taylor shortcuts used by the fitting
code.  It sums the weights of all 2^(p+1) configurations of (gamma, y_new)
with the *exact* with-new-observation statistics, in log space, to catch
sign and scaling mistakes in the analytic code paths.  A weight depends on
gamma only through its count of ones and its summed evidence, so the sum
takes one O(p^2) count chain per new label, not an enumeration;
``vbda oracle`` runs it from the command line.  (The numeric-maximization
checks of the likelihood ratio statistics live with the tests, in
``tests/numeric_mle.py``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _XI_SERIES_CUTOFF,
    CapacityError,
    DataValidationError,
    Dataset,
    Hyperparameters,
    VariableStats,
    _group_moments,
    _stats_from_moments,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)

__all__ = ["ExactPosterior", "exact_posterior"]

# The count chain holds one (p+1)-by-(p+1) float64 table, 128 MiB at this p.
CHAIN_MAX_P = 4095


def _stats_with_new(d: Dataset, x_new) -> tuple[VariableStats, VariableStats]:
    """Exact MLEs over the training set ``d``, which must be valid, plus the
    new row under each hypothesised label y: item y has counts n+1, n1+y and
    n0+1-y.  Moments add over disjoint rows (see ``core``), so item y is the
    training moments about the training centers c with the one row
    (1, x_new - c_y, (x_new - c_y)^2) added to group y: O(p) per label.
    """
    x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
    if x_new.shape[0] != d.p:
        raise DataValidationError(
            f"x_new has {x_new.shape[0]} entries, expected p={d.p}"
        )
    centers, *moments = _group_moments(d.X, d.y)
    stats = []
    for y, (count, S, Q) in enumerate(moments):
        with np.errstate(over="ignore"):  # a NaN, inf or overflow leaves Q non-finite
            dev = x_new - centers[y]
            Q = Q + dev * dev  # a new array: the training Q serves both labels
        if not np.isfinite(Q).all():
            raise DataValidationError(
                "x_new contains non-finite values or values too large to square"
            )
        grown = [*moments]
        grown[y] = count + 1, S + dev, Q
        stats.append(_stats_from_moments(centers, *grown))
    return tuple(stats)


def _lambda_bayes(model: str, s: VariableStats, n: int) -> np.ndarray:
    """Exact per-variable evidence statistic of ``model``, the length-p
    vector over j, from the with-new statistics ``s`` of n training rows and
    the new one, with counts m1 = s.n1 and m0 = s.n0:

        VLDA: lambda_lrt_j - log(n+1),
        VQDA: lambda_lrt_j + log(m1) + log(m0) - log 2 - 3 log(n+1)
              - 2 xi((n+1)/2) + 2 xi(m1/2) + 2 xi(m0/2),

    with the multipliers (n+1, m1, m0) inside the VQDA lambda_lrt, so that
    asymptotically it is lambda_lrt - 2 log(n+1) + O(1/m1 + 1/m0).
    """
    if model == "vlda":
        return lambda_lrt_lda(s, n) - math.log(n + 1.0)
    m1, m0 = s.n1, s.n0
    return (
        lambda_lrt_qda(s, n, m1, m0)
        + math.log(m1)
        + math.log(m0)
        - math.log(2.0)
        - 3.0 * math.log(n + 1.0)
        - 2.0 * xi((n + 1) / 2.0)
        + 2.0 * xi(m1 / 2.0)
        + 2.0 * xi(m0 / 2.0)
    )


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) from ``math`` and ``xi``: once the larger argument b reaches
    10, log Gamma(b) - log Gamma(a+b) goes through xi, which does not cancel."""
    a, b = min(a, b), max(a, b)
    if b < _XI_SERIES_CUTOFF:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.lgamma(a) + xi(b) - xi(a + b) + a - b * math.log1p(a / b) - a * math.log(a + b)


# Above this value of log(b) the direct route through exp(log_b) would lose
# precision or overflow; the two-term asymptotic expansion of log B(a, b)
# omits about a^3/(6 b^2), under 1e-20 at a = 20 and 2e-12 at a = 4096.
_LOG_BETA_ASYMPTOTIC_CUTOFF = 25.0


def _log_beta_shifted(a: float, log_b: float, shift: float) -> float:
    """log B(a, b + shift) where b is supplied as log(b) and may be huge."""
    if log_b <= _LOG_BETA_ASYMPTOTIC_CUTOFF:
        return _log_beta(a, math.exp(log_b) + shift)
    log_bsum = float(np.logaddexp(log_b, math.log(shift))) if shift > 0 else log_b
    return math.lgamma(a) - a * log_bsum - 0.5 * a * (a - 1.0) * math.exp(-log_bsum)


def _count_chain(half_lam: np.ndarray, log_prior: np.ndarray) -> np.ndarray:
    """log Z_j for each j, then log Z, where Z sums prior(1'gamma) exp(gamma'h)
    over every gamma, h = ``half_lam`` and prior(k) = exp(log_prior[k]), and
    Z_j is its part with gamma_j = 1: the recursion of conditional Poisson
    sampling (Chen, Dempster & Liu, Biometrika 1994), O(p^2) in log space.

    The forward table F[j, a] = log e_a(exp(h_0), ..., exp(h_{j-1})) holds the
    elementary symmetric polynomials of the first j variables, and B[a], built
    backward, sums prior(a + k') exp(h'gamma') over the k' ones of the later
    variables' gamma'.  So Z_j = sum_a exp(F[j, a] + h_j + B[a + 1]), B taken
    past j, and Z = B[0] before the first variable.
    """
    p = half_lam.size
    F = np.full((p + 1, p + 1), -np.inf)
    F[:, 0] = 0.0
    for j, h in enumerate(half_lam):
        F[j + 1, 1:j + 2] = np.logaddexp(F[j, 1:j + 2], F[j, :j + 1] + h)
    B, out = log_prior, np.empty(p + 1)
    for j in range(p - 1, -1, -1):
        h = half_lam[j]
        out[j] = np.logaddexp.reduce(F[j, :j + 1] + h + B[1:j + 2])
        B = np.logaddexp(B[:j + 1], h + B[1:j + 2])
    out[p] = B[0]
    return out


@dataclass(frozen=True)
class ExactPosterior:
    """The exact posterior over (gamma, y_new).  ``log_marginal`` is the log
    of the summed weights of all configurations, up to one additive constant
    shared by every configuration (the product of null-model marginals, which
    cancels from all posterior quantities).  ``gamma_marginals`` and
    ``y_marginal`` are clipped to [0, 1], which their sums can pass by
    rounding.
    """

    gamma_marginals: np.ndarray
    y_marginal: float
    log_marginal: float


def exact_posterior(
    d: Dataset, x_new, h: Hyperparameters | None = None, model: str = "vlda"
) -> ExactPosterior:
    """The exact posterior, by one ``_count_chain`` per new label.

    Every weight combines the label-prior Beta mass, the inclusion-prior
    Beta mass, and half the summed evidence statistics of the included
    variables, so it depends on gamma only through 1'gamma and gamma'lambda:

        log w(gamma, y) = log B(a_y + n1 + y, b_y + n0 + 1 - y)
                          + log B(a_gamma + 1'gamma, b_gamma + p - 1'gamma)
                          + (1/2) gamma' lambda_bayes(y)

    Refuses p > ``CHAIN_MAX_P`` before building any table.
    """
    h = h or Hyperparameters()
    d.validate_training()
    if d.p > CHAIN_MAX_P:
        raise CapacityError(
            f"the exact posterior is limited to p <= {CHAIN_MAX_P} "
            f"(a (p+1)^2 table of float64), got p={d.p}"
        )
    if model not in ("vlda", "vqda"):
        raise DataValidationError(f"unknown model {model!r}")
    log_bg = log_b_gamma(d.n, d.p, h.r, h.kappa)
    log_prior = np.array(
        [_log_beta_shifted(h.a_gamma + k, log_bg, float(d.p - k)) for k in range(d.p + 1)]
    )
    # Row y: log Z_j and log Z of new label y, with its label prior.
    log_w = np.stack([
        _log_beta(h.a_y + d.n1 + y, h.b_y + d.n0 + 1 - y)
        + _count_chain(0.5 * _lambda_bayes(model, s, d.n), log_prior)
        for y, s in enumerate(_stats_with_new(d, x_new))
    ])
    log_marginal = float(np.logaddexp(*log_w[:, -1]))
    post = np.exp(log_w - log_marginal)
    # Rounding can carry a sum of probabilities a few ulps past 1.
    return ExactPosterior(np.minimum(post[0, :-1] + post[1, :-1], 1.0),
                          min(float(post[1, -1]), 1.0), log_marginal)
