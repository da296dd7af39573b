"""Ground truth for tests: exact enumeration of the posterior.

This module deliberately avoids the Taylor shortcuts used by the fitting
code.  The enumeration walks all 2^(p+1) configurations of (gamma, y_new)
with the *exact* with-new-observation statistics, accumulating weights in
log space, to catch sign and scaling mistakes in the analytic code paths.
It is also exposed through the command line (``vbda oracle``), for
desk-scale runs.  (The numeric-maximization checks of the likelihood ratio
statistics live with the tests, in ``tests/numeric_mle.py``.)

scipy is imported only when an oracle function runs, so importing the
package or its command line does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    DataValidationError,
    Dataset,
    Hyperparameters,
    VariableStats,
    _stats_of_groups,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)

__all__ = [
    "ExactPosterior",
    "lambda_bayes_lda",
    "lambda_bayes_qda",
    "exact_posterior",
]

ENUMERATION_MAX_P = 15


def _stats_with_new(d: Dataset, x_new: np.ndarray, y_new: int) -> VariableStats:
    """Exact MLEs over the training data augmented with one new labeled point.

    Denominators become n+1, n1+y_new, n0+1-y_new.  The enumeration below
    needs them because the statistics genuinely depend on the hypothesised
    label of the new observation.
    """
    d.validate_training()
    if y_new not in (0, 1):
        raise DataValidationError(f"y_new must be 0 or 1, got {y_new!r}")
    x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
    if x_new.shape[0] != d.p:
        raise DataValidationError(
            f"x_new has {x_new.shape[0]} entries, expected p={d.p}"
        )
    if not np.isfinite(x_new).all():
        raise DataValidationError("x_new contains non-finite values")
    X_aug = np.vstack([d.X, x_new])
    y_aug = np.concatenate([d.y, [y_new]]).astype(np.int8)
    return _stats_of_groups(X_aug, y_aug)


def lambda_bayes_lda(d: Dataset, x_new, y_new: int) -> np.ndarray:
    """Exact per-variable evidence statistic for the shared-variance model.

    lambda_bayes_j = lambda_lrt_j(with-new statistics) - log(n+1), where the
    statistics include (x_new, y_new) and n is the training count.  Returns
    the length-p vector over j.
    """
    s = _stats_with_new(d, x_new, y_new)
    return lambda_lrt_lda(s, d.n) - math.log(d.n + 1.0)


def lambda_bayes_qda(d: Dataset, x_new, y_new: int) -> np.ndarray:
    """Exact per-variable evidence statistic for the separate-variance model.

    lambda_bayes_j = lambda_lrt_j + log(n1 + y_new) + log(n0 + 1 - y_new)
                     - log 2 - 3 log(n+1)
                     - 2 xi((n+1)/2) + 2 xi((n1 + y_new)/2)
                     + 2 xi((n0 + 1 - y_new)/2),

    with the with-new statistics and multipliers (n+1, n1 + y_new,
    n0 + 1 - y_new) inside lambda_lrt.  Asymptotically this collapses to
    lambda_lrt - 2 log(n+1) + O(1/n1 + 1/n0).
    """
    s = _stats_with_new(d, x_new, y_new)
    n, n1, n0 = d.n, d.n1, d.n0
    m1 = n1 + y_new
    m0 = n0 + 1 - y_new
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


# Above this value of log(b) the direct route through exp(log_b) would lose
# precision or overflow, and the two-term asymptotic expansion of
# log B(a, b) is already accurate to ~a^3/b^2 < 1e-20.
_LOG_BETA_ASYMPTOTIC_CUTOFF = 25.0


def _log_beta_shifted(a: float, log_b: float, shift: float) -> float:
    """log B(a, b + shift) where b is supplied as log(b) and may be huge."""
    from scipy.special import betaln, gammaln

    if log_b <= _LOG_BETA_ASYMPTOTIC_CUTOFF:
        return float(betaln(a, math.exp(log_b) + shift))
    log_bsum = np.logaddexp(log_b, math.log(shift)) if shift > 0 else log_b
    return float(
        gammaln(a) - a * log_bsum - 0.5 * a * (a - 1.0) * math.exp(-log_bsum)
    )


@dataclass(frozen=True)
class ExactPosterior:
    """Joint enumeration over (gamma, y_new) on a small problem.

    ``log_weights[g, y]`` is the log joint weight of configuration row g of
    ``gammas`` with new label y, up to one additive constant shared by every
    configuration (the product of null-model marginals, which cancels from
    all posterior quantities).  ``log_marginal`` is the log-sum-exp of the
    weights modulo the same constant.
    """

    gammas: np.ndarray
    log_weights: np.ndarray
    gamma_marginals: np.ndarray
    y_marginal: float
    log_marginal: float


def exact_posterior(
    d: Dataset,
    x_new,
    h: Hyperparameters | None = None,
    model: str = "vlda",
) -> ExactPosterior:
    """Enumerate the exact posterior over all 2^(p+1) configurations.

    Every weight combines the label-prior Beta mass, the inclusion-prior
    Beta mass, and half the summed evidence statistics of the included
    variables:

        log w(gamma, y) = log B(a_y + n1 + y, b_y + n0 + 1 - y)
                          + log B(a_gamma + 1'gamma, b_gamma + p - 1'gamma)
                          + (1/2) gamma' lambda_bayes(y)

    accumulated in log space with one final log-sum-exp.  Refuses p > 15.
    """
    from scipy.special import betaln, logsumexp

    h = h or Hyperparameters()
    d.validate_training()
    if d.p > ENUMERATION_MAX_P:
        raise CapacityError(
            f"exact enumeration is limited to p <= {ENUMERATION_MAX_P}, got p={d.p}"
        )
    if model not in ("vlda", "vqda"):
        raise DataValidationError(f"unknown model {model!r}")
    lam_fn = lambda_bayes_lda if model == "vlda" else lambda_bayes_qda
    lam = np.stack([lam_fn(d, x_new, 0), lam_fn(d, x_new, 1)])

    p = d.p
    n_cfg = 1 << p
    # Bit j of the row index is gamma_j, so row ordering is reproducible.
    gammas = ((np.arange(n_cfg)[:, None] >> np.arange(p)) & 1).astype(np.float64)
    k = gammas.sum(axis=1).astype(np.intp)
    log_bg = log_b_gamma(d.n, d.p, h.r, h.kappa)
    prior_by_count = np.array(
        [_log_beta_shifted(h.a_gamma + kk, log_bg, float(p - kk)) for kk in range(p + 1)]
    )
    log_weights = np.empty((n_cfg, 2))
    for y in (0, 1):
        log_label_prior = float(
            betaln(h.a_y + d.n1 + y, h.b_y + d.n0 + 1 - y)
        )
        log_weights[:, y] = log_label_prior + prior_by_count[k] + 0.5 * (gammas @ lam[y])
    log_marginal = float(logsumexp(log_weights))
    post = np.exp(log_weights - log_marginal)
    y_marginal = float(post[:, 1].sum())
    gamma_marginals = post.sum(axis=1) @ gammas
    return ExactPosterior(
        gammas=gammas.astype(np.int8),
        log_weights=log_weights,
        gamma_marginals=gamma_marginals,
        y_marginal=y_marginal,
        log_marginal=log_marginal,
    )
