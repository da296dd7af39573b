"""Numeric-maximization reference for the likelihood ratio statistics.

These checks re-derive each statistic by direct simplex optimization of the
Gaussian log-likelihoods, with no closed-form variance estimate involved,
to catch sign and scaling mistakes in ``core.lambda_lrt_lda`` and
``core.lambda_lrt_qda``.  ``test_oracle.py`` and criterion 1 of
``test_acceptance.py`` use them; they need ``scipy.optimize``.
"""

import math

import numpy as np

from vbda import DataValidationError


def _neg_loglik_factory(x: np.ndarray, y: np.ndarray, kind: str, floor: float):
    n = x.shape[0]
    x1 = x[y == 1]
    x0 = x[y == 0]

    if kind == "null":

        def f(theta):
            mu, logv = theta
            v = max(math.exp(logv), floor)
            return 0.5 * n * math.log(2.0 * math.pi * v) + float(
                np.sum((x - mu) ** 2)
            ) / (2.0 * v)

    elif kind == "lda":

        def f(theta):
            mu1, mu0, logv = theta
            v = max(math.exp(logv), floor)
            ss = float(np.sum((x1 - mu1) ** 2)) + float(np.sum((x0 - mu0) ** 2))
            return 0.5 * n * math.log(2.0 * math.pi * v) + ss / (2.0 * v)

    elif kind == "qda":

        def f(theta):
            mu1, mu0, logv1, logv0 = theta
            v1 = max(math.exp(logv1), floor)
            v0 = max(math.exp(logv0), floor)
            return (
                0.5 * x1.shape[0] * math.log(2.0 * math.pi * v1)
                + float(np.sum((x1 - mu1) ** 2)) / (2.0 * v1)
                + 0.5 * x0.shape[0] * math.log(2.0 * math.pi * v0)
                + float(np.sum((x0 - mu0) ** 2)) / (2.0 * v0)
            )

    else:  # pragma: no cover - internal misuse
        raise ValueError(kind)
    return f


_NM_OPTIONS = {"xatol": 1e-11, "fatol": 1e-13, "maxiter": 40000, "maxfev": 40000}


def _maximize(fun, x0) -> tuple[float, np.ndarray]:
    from scipy.optimize import minimize

    # Restarting from the incumbent re-inflates the simplex and recovers the
    # last digits; the statistic amplifies log-variance error by (n+1).
    res = minimize(fun, np.asarray(x0, dtype=np.float64), method="Nelder-Mead",
                   options=_NM_OPTIONS)
    for _ in range(3):
        nxt = minimize(fun, res.x, method="Nelder-Mead", options=_NM_OPTIONS)
        if not nxt.fun < res.fun:
            break
        res = nxt
    return -float(res.fun), np.asarray(res.x)


def _start_points(x: np.ndarray, y: np.ndarray, floor: float):
    # Rough moment starts; the optimizer does the real work.  Log-variance
    # parameterization keeps the search unconstrained and well scaled.
    m = float(x.mean())
    m1 = float(x[y == 1].mean())
    m0 = float(x[y == 0].mean())
    logv = math.log(max(float(x.var()), floor))
    return m, m1, m0, logv


def numeric_mle_check(
    x_col, y, model: str = "lda", variance_floor: float = 1e-12
) -> float:
    """Difference of numerically maximized log-likelihoods (alternative - null).

    Direct simplex maximization over (means, log variances); the closed-form
    estimates are not consulted.  For the shared-variance model the
    statistic relates to the analytic one by
    lambda_lrt = 2 * (n+1)/n * (ll_alt - ll_null).  Variances are clamped
    at the floor inside the objective, so a constant column yields 0.
    """
    x = np.asarray(x_col, dtype=np.float64).reshape(-1)
    y = np.asarray(y).reshape(-1)
    m, m1, m0, logv = _start_points(x, y, variance_floor)
    ll_null, _ = _maximize(
        _neg_loglik_factory(x, y, "null", variance_floor), [m, logv]
    )
    if model == "lda":
        ll_alt, _ = _maximize(
            _neg_loglik_factory(x, y, "lda", variance_floor), [m1, m0, logv]
        )
    elif model == "qda":
        ll_alt, _ = _maximize(
            _neg_loglik_factory(x, y, "qda", variance_floor), [m1, m0, logv, logv]
        )
    else:
        raise DataValidationError(f"unknown model {model!r}")
    return ll_alt - ll_null


def numeric_lambda_lrt(
    x_col, y, model: str = "lda", variance_floor: float = 1e-12
) -> float:
    """Likelihood ratio statistic assembled from numeric maximization.

    Built on the maximized log-likelihood VALUES rather than the argmax
    coordinates: near an optimum the value is quadratically insensitive to
    the remaining argmax error, while the statistic would amplify a
    log-variance error by a factor of n+1.  For the shared-variance model
    the ratio statistic is exactly 2(n+1)/n times the likelihood
    difference; the group-specific variant needs one extra log of the null
    variance (unit coefficient, so the argmax read-off is accurate enough).
    No closed-form estimator is consulted anywhere.
    """
    x = np.asarray(x_col, dtype=np.float64).reshape(-1)
    y = np.asarray(y).reshape(-1)
    n = x.shape[0]
    m, m1, m0, logv = _start_points(x, y, variance_floor)
    ll_null, theta_null = _maximize(
        _neg_loglik_factory(x, y, "null", variance_floor), [m, logv]
    )
    if model == "lda":
        ll_alt, _ = _maximize(
            _neg_loglik_factory(x, y, "lda", variance_floor), [m1, m0, logv]
        )
        return 2.0 * (n + 1.0) / n * (ll_alt - ll_null)
    if model == "qda":
        ll_alt, _ = _maximize(
            _neg_loglik_factory(x, y, "qda", variance_floor), [m1, m0, logv, logv]
        )
        v_null = max(math.exp(theta_null[1]), variance_floor)
        return 2.0 * (ll_alt - ll_null) + math.log(v_null)
    raise DataValidationError(f"unknown model {model!r}")
