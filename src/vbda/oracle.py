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
    _group_moments,
    _stats_from_moments,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)

__all__ = ["ExactPosterior", "exact_posterior"]

ENUMERATION_MAX_P = 15


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
            Q = Q + dev * dev  # a new array: the training S and Q share one buffer
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
    lam = np.stack([_lambda_bayes(model, s, d.n) for s in _stats_with_new(d, x_new)])

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
