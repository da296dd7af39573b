"""Batch variational updates for selection probabilities and classification.

Fitting maximizes a mean-field approximation q(gamma) = prod_j Bern(w_j) in
which all continuous parameters have been integrated out analytically under
diffuse priors.  Each cycle updates every w_j from the previous cycle's
vector (batch semantics, double-buffered), so within a cycle the updates are
order-independent and embarrassingly parallel.  The per-variable likelihood
ratio statistics are constants of the data and are computed once before
iterating; each cycle therefore costs O(p).

The update has the common structure

    w_j <- expit[ log(a_gamma + S_-j) - log(b_gamma + p - S_-j - 1)
                  + offset_j ],

with S_-j the sum of the other current selection probabilities.  The two
model variants differ only in offset_j:

* linear (VLDA):     -(1/2) log(n+1) + (1/2) lambda_lda_j
* quadratic (VQDA):  (1/2) log(n1 n0 / 2) + xi(n1/2) + xi(n0/2) - xi(n/2)
                     - (3/2) log(n+1) + (1/2) lambda_qda_j

One kernel, ``_batch_fixed_point``, runs this fixed point for both models,
every cross-validation fold, every consistency cell and coupled prediction.
It computes exp(log b_gamma - offset_j) once per run and then cycles with no
exp or log at all: in ratio form the update is one sum, a few in-place
multiply-adds and one divide per cycle (see its docstring).

Classification plugs the converged w into a naive-Bayes discriminant,
downweighting each variable by its selection probability.  One private
scorer serves every rule, the public ``predict`` functions and
cross-validation alike: it takes the per-variable coefficients once from
the fit and makes one pass over the new rows' cache-sized tiles
(``core._tiles``, shared with the statistics), centring each tile at the
group midpoint in place, so scoring m new rows never allocates an m-by-p
array and a held-out row of cross-validation is copied once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataValidationError,
    Dataset,
    Hyperparameters,
    VariableStats,
    _first_duplicate,
    _tiles,
    compute_stats,
    expit,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)

__all__ = [
    "FitState",
    "Prediction",
    "fit_vlda",
    "fit_vqda",
    "predict",
    "predict_vlda",
    "predict_vqda",
    "predict_coupled_vlda",
    "select_variables",
]

@dataclass(frozen=True)
class FitState:
    """Converged (or cycle-limited) selection probabilities plus snapshots.

    ``w`` holds the variational probability that each variable is
    discriminative.  ``final_delta`` is the last squared-norm change
    ||w(t) - w(t-1)||^2; ``converged`` means it reached eps within
    max_cycles.  The statistics and hyperparameters used for the fit are
    snapshotted so prediction needs no access to the training data.
    """

    model: str
    w: np.ndarray
    cycles_run: int
    converged: bool
    final_delta: float
    stats: VariableStats
    hyper: Hyperparameters
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.model not in _FITTERS:
            raise DataValidationError(f"unknown model {self.model!r}")
        w = np.asarray(self.w, dtype=np.float64).view()
        if w.ndim != 1 or w.shape[0] != self.stats.p:
            raise DataValidationError(
                f"w must be a length-{self.stats.p} vector, got shape {w.shape}"
            )
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise DataValidationError("w entries must lie in [0, 1]")
        if self.columns is not None:
            if len(self.columns) != w.shape[0]:
                raise DataValidationError("columns length does not match w")
            dup = _first_duplicate(self.columns)
            if dup is not None:
                raise DataValidationError(f"duplicate column name {dup!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def p(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class Prediction:
    """Per-observation group-1 probabilities and thresholded labels.

    ``score`` is the argument handed to expit (prior odds plus discriminant),
    kept for diagnostics and threshold sweeps.  For the coupled update,
    ``converged``/``iterations`` report the fixed-point iteration outcome;
    the one-shot rules set them to True/1.
    """

    y_tilde: np.ndarray
    labels: np.ndarray
    score: np.ndarray
    converged: bool = True
    iterations: int = 1


def _log_odds(x: np.ndarray, a: float, log_b: float) -> np.ndarray:
    # log(a + S_-i) - log(b + m - 1 - S_-i) for S_-i the sum of the other
    # m - 1 entries of x, with the second log assembled by log-sum-exp
    # because b itself may overflow.  Only the coupled rule's score uses it,
    # once after convergence; the cycles never take a log.  The residual count
    # m - S_-i - 1 is clipped at 0: it is nonnegative in exact arithmetic
    # and can only dip below through rounding of S_-i.
    s_minus = x.sum() - x
    rest = np.maximum(x.shape[0] - s_minus - 1.0, 0.0)
    with np.errstate(divide="ignore"):
        log_denom = np.logaddexp(log_b, np.log(rest))
    return np.log(a + s_minus) - log_denom


def _batch_fixed_point(
    x0: np.ndarray, offset: np.ndarray, a: float, log_b: float, h: Hyperparameters
) -> tuple[np.ndarray, int, float]:
    """Mean-field fixed point of m exchangeable Beta(a, b)-Bernoulli indicators.

    Every cycle updates all entries from the previous iterate,

        x_i <- expit[ log(a + S_-i) - log(b + m - 1 - S_-i) + offset_i ],

    until the squared step ||x(t) - x(t-1)||^2 is <= h.eps or h.max_cycles
    cycles have run.  Returns the last iterate, the cycle count and the last
    squared step.  Selection runs it on w with (a_gamma, b_gamma); coupled
    prediction on the new labels with (a_y + n1, b_y + n0).

    With A_i = a + S_-i and R_i = max(m - 1 - S_-i, 0) (clipped because only
    the rounding of S_-i can take it below 0), the update is exactly

        x_i <- A_i / (A_i + g_i (1 + R_i / b)),   g_i = exp(log b - offset_i),

    so g is the run's one exponential and a cycle is a sum, a few in-place
    multiply-adds into two work buffers and one divide, with no log or exp.
    b and exp(-offset_i) may each overflow, but g_i (1 + R_i / b) is formed
    only in this grouping: where g_i overflows the update is 0, the
    saturated value, and never 0 * inf.
    """
    inv_b = math.exp(-log_b)
    x = np.array(x0, dtype=np.float64)
    nxt, step = np.empty_like(x), np.empty_like(x)
    delta = math.inf
    cycles = 0
    with np.errstate(over="ignore"):
        g = np.subtract(log_b, offset)
        np.exp(g, out=g)
        for _ in range(h.max_cycles):
            np.subtract(x.sum(), x, out=nxt)  # S_-i
            np.subtract(x.shape[0] - 1.0, nxt, out=step)
            np.maximum(step, 0.0, out=step)  # R_i
            step *= inv_b
            step += 1.0
            step *= g
            nxt += a  # A_i
            step += nxt
            np.divide(nxt, step, out=nxt)
            np.subtract(nxt, x, out=step)
            delta = float(step @ step)
            x, nxt = nxt, x
            cycles += 1
            if delta <= h.eps:
                break
    return x, cycles, delta


def _eta_offset(model: str, s: VariableStats) -> np.ndarray:
    n, n1, n0 = s.n, s.n1, s.n0
    if model == "vlda":
        lam = lambda_lrt_lda(s, n)
        return -0.5 * math.log(n + 1.0) + 0.5 * lam
    lam = lambda_lrt_qda(s, n, n1, n0)
    const = (
        0.5 * math.log(n1 * n0 / 2.0)
        + xi(n1 / 2.0)
        + xi(n0 / 2.0)
        - xi(n / 2.0)
        - 1.5 * math.log(n + 1.0)
    )
    return const + 0.5 * lam


def _fit(
    stats: VariableStats,
    h: Hyperparameters,
    model: str,
    columns: tuple[str, ...] | None = None,
    w0: np.ndarray | None = None,
) -> FitState:
    """The fixed point of ``model`` on ``stats``, from ``w0`` if given and
    from 1/2 everywhere otherwise.  ``columns`` are a ``Dataset``'s names,
    which it has checked already, so they are set after the FitState is
    built rather than checked again."""
    w, cycles, delta = _batch_fixed_point(
        np.full(stats.p, 0.5) if w0 is None else w0,
        _eta_offset(model, stats),
        h.a_gamma,
        log_b_gamma(stats.n, stats.p, h.r, h.kappa),
        h,
    )
    f = FitState(
        model=model,
        w=w,
        cycles_run=cycles,
        converged=delta <= h.eps,
        final_delta=delta,
        stats=stats,
        hyper=h,
    )
    object.__setattr__(f, "columns", columns)
    return f


def fit_vlda(d: Dataset, h: Hyperparameters | None = None) -> FitState:
    """Fit selection probabilities under the shared-variance (linear) model.

    Iterates batch updates of all w_j until ||w(t) - w(t-1)||^2 <= eps or
    max_cycles is hit; the returned state is flagged rather than raising on
    non-convergence.  Per-variable statistics never change across cycles, so
    each cycle is O(p).
    """
    h = h or Hyperparameters()
    return _fit(compute_stats(d), h, "vlda", d.columns)


def fit_vqda(d: Dataset, h: Hyperparameters | None = None) -> FitState:
    """Fit selection probabilities under the separate-variance (quadratic) model.

    Same iteration as :func:`fit_vlda` with the quadratic offset.  The
    default a_gamma = 1 reproduces the hard-coded log(1 + S_-j) numerator of
    the reference update; other a_gamma values generalize it.
    """
    h = h or Hyperparameters()
    return _fit(compute_stats(d), h, "vqda", d.columns)


# The one table of models: FitState, evalharness and the CLI all read it.
_FITTERS = {"vlda": fit_vlda, "vqda": fit_vqda}


def _rule(model: str, coupled: bool) -> str:
    """The scoring rule for a fitted ``model``: "vlda", "vqda" or "coupled"."""
    if not coupled:
        return model
    if model != "vlda":
        raise DataValidationError("coupled prediction is defined for vlda only")
    return "coupled"


def _score(f: FitState, x_new, h: Hyperparameters | None, rule: str, rows=None) -> Prediction:
    """Score new rows under ``rule``: "vlda", "vqda" or "coupled" (VLDA).

    Both discriminants are taken about the group midpoint c = (mu0 + mu1)/2.
    With d = mu1 - mu0 and xc = x - c, the linear one is
    xc @ (w d / var_pooled).  The quadratic one, w^T {log phi(x; mu1, var1)
    - log phi(x; mu0, var0)}, is with A_g = w / (2 var_g)

        xc @ (d (A0 + A1)) + xc^2 @ (A0 - A1) + (d/2)^2 @ (A0 - A1)
        - (1/2) w^T log(var1 / var0),

    which keeps its accuracy at any column offset.  The rows are one pass
    over ``core._tiles``, the walker the statistics use too, so tall inputs
    are split by rows as well.  Each tile is checked for non-finite values,
    centred in place and its matvec added into its rows' scores; for the
    quadratic rule it is then squared in place for the second matvec.  A
    row whose products overflow is rejected, as training rejects it.

    ``x_new`` is a Dataset or array-like; its shape is checked at once, and
    a named Dataset must hold a named fit's columns in the fit's order.
    ``rows`` picks rows of x_new without copying the others;
    cross-validation scores its held-out rows this way.
    """
    h = h or f.hyper
    X = x_new.X if isinstance(x_new, Dataset) else np.asarray(x_new, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != f.p:
        raise DataValidationError(
            f"new observations have {X.shape[-1] if X.ndim else 0} columns, "
            f"fit expects {f.p}"
        )
    names = x_new.columns if isinstance(x_new, Dataset) else None
    if names and f.columns and names != tuple(f.columns):
        j = next(j for j, (a, b) in enumerate(zip(names, f.columns)) if a != b)
        raise DataValidationError(
            f"new observations have column {names[j]!r} at position {j + 1}, "
            f"fit expects {f.columns[j]!r}; reorder them with align_to_columns"
        )
    s, w = f.stats, f.w
    center = 0.5 * (s.mu1_hat + s.mu0_hat)
    diff = s.mu1_hat - s.mu0_hat
    if rule == "vqda":
        a0, a1 = w / (2.0 * s.var0), w / (2.0 * s.var1)
        linear, quadratic = diff * (a0 + a1), a0 - a1
    else:
        linear, quadratic = w * diff / s.var_pooled, None
    m = X.shape[0] if rows is None else len(rows)
    disc = np.zeros(m)
    # A finite cell can overflow a product: above about 1e154 when the
    # quadratic rule squares it, near the float maximum in any rule.  The
    # discriminants are checked once when complete, not every tile.
    with np.errstate(over="ignore", invalid="ignore"):
        for part, cols, xc in _tiles(X, rows):
            if not np.isfinite(xc).all():
                raise DataValidationError("new observations contain non-finite values")
            xc -= center[cols]
            disc[part] += xc @ linear[cols]
            if quadratic is not None:
                disc[part] += np.square(xc, out=xc) @ quadratic[cols]
            del xc  # a gathered tile is freed before the next gather, as in _moments
        if rule == "vqda":
            disc += 0.25 * diff**2 @ quadratic - 0.5 * (w @ np.log(s.var1 / s.var0))
        else:
            disc *= 1.0 + 1.0 / s.n
    # A comparison, not np.isfinite, so np.isfinite stays one call per tile;
    # NaN fails it as inf does.
    if not (np.abs(disc) <= np.finfo(np.float64).max).all():
        what = "square" if quadratic is not None else "score"
        raise DataValidationError(f"new observations contain values too large to {what}")

    if rule == "vqda":
        g1 = math.lgamma((s.n1 + 1) / 2.0) - math.lgamma(s.n1 / 2.0)
        g0 = math.lgamma((s.n0 + 1) / 2.0) - math.lgamma(s.n0 / 2.0)
        score = math.log(s.n1 / s.n0) + w.sum() * (g1 - g0) + 0.5 * disc
    elif rule == "coupled":
        a, log_b = h.a_y + s.n1, math.log(h.b_y + s.n0)
        y, iterations, delta = _batch_fixed_point(np.full(m, 0.5), disc, a, log_b, h)
        return Prediction(
            y_tilde=y,
            labels=(y > h.c_y).astype(np.int8),
            score=_log_odds(y, a, log_b) + disc,
            converged=delta <= h.eps,
            iterations=iterations,
        )
    else:
        score = math.log((s.n1 + h.a_y) / (s.n0 + h.b_y)) + disc
    y_tilde = expit(score)
    return Prediction(
        y_tilde=y_tilde,
        labels=(y_tilde > h.c_y).astype(np.int8),
        score=score,
    )


def predict_vlda(
    f: FitState, x_new, h: Hyperparameters | None = None
) -> Prediction:
    """Classify new observations under the linear model, one at a time.

    y_tilde_i = expit[ log((n1 + a_y) / (n0 + b_y))
                       + (1 + 1/n) * LDA(x_i) ],

    where LDA is the selection-weighted naive-Bayes discriminant
    (mu1 - mu0)^T W Sigma^{-1} (x - (mu0 + mu1)/2).  With W = I and
    a_y = b_y = 0 the hard labels coincide with the frequentist
    naive-Bayes linear rule.  Observations are independent here; see
    :func:`predict_coupled_vlda` for the jointly-updated variant.
    """
    return _score(f, x_new, h, "vlda")


def predict_vqda(
    f: FitState, x_new, h: Hyperparameters | None = None
) -> Prediction:
    """Classify new observations under the quadratic model.

    y_tilde_i = expit[ log(n1/n0)
                       + (1^T w) * (G(n1) - G(n0))
                       + (1/2) w^T {log phi(x; mu1, var1)
                                    - log phi(x; mu0, var0)} ],

    with G(k) = log Gamma((k+1)/2) - log Gamma(k/2) and phi the element-wise
    Gaussian density under each group's own mean and variance.  The prior
    odds term uses the raw group counts (no a_y/b_y), matching the reference
    form of this rule; for n1 == n0 and a fully symmetric input the argument
    collapses to 0 and y_tilde = 0.5.
    """
    return _score(f, x_new, h, "vqda")


def predict_coupled_vlda(
    f: FitState, x_new, h: Hyperparameters | None = None
) -> Prediction:
    """Classify m observations jointly, sharing label mass through the prior.

    The m unknown labels enter one Beta-Bernoulli posterior together, so each
    probability conditions on the expected labels of the others:

        y_tilde_i = expit[ log( (a_y + n1 + s_i) /
                                (b_y + n0 + (m-1) - s_i) )
                           + (1 + 1/n) * LDA(x_i) ],
        s_i = sum_{i' != i} y_tilde_{i'}.

    All m probabilities are updated as a batch from the previous iterate
    until the squared change is <= eps (non-convergence is flagged, not
    raised).  For m = 1 the fixed point is exactly the one-shot rule of
    :func:`predict_vlda`.
    """
    return _score(f, x_new, h, "coupled")


def predict(
    f: FitState, x_new, h: Hyperparameters | None = None, coupled: bool = False
) -> Prediction:
    """Dispatch to the prediction rule matching the fitted model."""
    rule = _rule(f.model, coupled)
    if rule == "coupled":
        return predict_coupled_vlda(f, x_new, h)
    if rule == "vlda":
        return predict_vlda(f, x_new, h)
    return predict_vqda(f, x_new, h)


def select_variables(f: FitState) -> np.ndarray:
    """Indices of variables whose selection probability strictly exceeds the
    fit's threshold ``f.hyper.c_w``."""
    return np.flatnonzero(f.w > f.hyper.c_w)
