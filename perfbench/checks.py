"""Correctness checks that recompute every result from the inputs.

Nothing here imports vbda: the per-variable MLEs, the paper's update for the
selection probabilities, the prediction scores and the coupled label update
are all written out again with plain numpy and scipy, so a fault in the
program cannot cancel against the same fault in the check.  Each check
raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammaln
from scipy.stats import norm

# The paper's default prior constants and thresholds, which every workload
# leaves in force.
HYPER = {
    "a_y": 1.0, "b_y": 1.0, "a_gamma": 1.0, "r": 0.98, "kappa": 1e-3,
    "c_w": 0.5, "c_y": 0.5, "eps": 1e-6,
}
STAT_FIELDS = ("mu_hat", "mu1_hat", "mu0_hat", "var_total", "var_pooled", "var1", "var0")
_CHUNK = 20000  # columns per slice, so checks on p = 200000 stay lean in memory


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def mles(X: np.ndarray, y: np.ndarray) -> dict:
    """Per-variable MLEs: group means and ddof=0 variances, by column slices."""
    g1, g0 = y == 1, y == 0
    n, n1, n0 = y.size, int(g1.sum()), int(g0.sum())
    parts = {k: [] for k in STAT_FIELDS}
    for lo in range(0, X.shape[1], _CHUNK):
        block = X[:, lo:lo + _CHUNK]
        x1, x0 = block[g1], block[g0]
        var1, var0 = x1.var(axis=0), x0.var(axis=0)
        parts["mu_hat"].append(block.mean(axis=0))
        parts["mu1_hat"].append(x1.mean(axis=0))
        parts["mu0_hat"].append(x0.mean(axis=0))
        parts["var_total"].append(block.var(axis=0))
        parts["var_pooled"].append((n1 * var1 + n0 * var0) / n)
        parts["var1"].append(var1)
        parts["var0"].append(var0)
    out = {k: np.concatenate(v) for k, v in parts.items()}
    out.update(n=n, n1=n1, n0=n0)
    return out


def check_stats(stats: dict, ref: dict, rtol: float = 1e-9) -> None:
    """The program's saved or returned statistics equal the recomputed MLEs."""
    for key in ("n", "n1", "n0"):
        _require(int(stats[key]) == ref[key], f"stats {key}={stats[key]}, expected {ref[key]}")
    for key in STAT_FIELDS:
        got = np.asarray(stats[key], dtype=float)
        want = ref[key]
        _require(got.shape == want.shape, f"stats {key} has shape {got.shape}, expected {want.shape}")
        scale = np.abs(want) + (np.sqrt(ref["var_total"]) if key.startswith("mu") else 0.0)
        bad = np.abs(got - want) > rtol * scale
        _require(not bad.any(), f"stats {key} differs from the MLE at variable "
                 f"{int(np.argmax(bad)) if bad.any() else -1}")


def _xi(x: float) -> float:
    # log Gamma(x) + x - x log x - (1/2) log(2 pi)
    return float(gammaln(x) + x - x * math.log(x) - 0.5 * math.log(2.0 * math.pi))


def selection_update(model: str, w: np.ndarray, ref: dict, h: dict = HYPER) -> np.ndarray:
    """One batch application of the paper's update for w, from the MLEs."""
    n, n1, n0, p = ref["n"], ref["n1"], ref["n0"], w.size
    log_n1 = math.log(n + 1.0)
    if model == "vlda":
        lam = (n + 1.0) * (np.log(ref["var_total"]) - np.log(ref["var_pooled"]))
        offset = -0.5 * log_n1 + 0.5 * lam
    else:
        lam = ((n + 1.0) * np.log(ref["var_total"]) - n1 * np.log(ref["var1"])
               - n0 * np.log(ref["var0"]))
        offset = (0.5 * math.log(n1 * n0 / 2.0) + _xi(n1 / 2.0) + _xi(n0 / 2.0)
                  - _xi(n / 2.0) - 1.5 * log_n1 + 0.5 * lam)
    log_bg = 2.0 * math.log(p) - 0.5 * log_n1 + h["kappa"] * (n + 1.0) / log_n1 ** h["r"]
    s_minus = w.sum() - w
    rest = np.maximum(p - 1.0 - s_minus, 0.0)
    with np.errstate(divide="ignore"):
        log_denominator = np.logaddexp(log_bg, np.log(rest))
    return expit(np.log(h["a_gamma"] + s_minus) - log_denominator + offset)


def check_fixed_point(model: str, w, ref: dict, h: dict = HYPER) -> None:
    """The returned w is a fixed point of the update within eps."""
    w = np.asarray(w, dtype=float)
    _require(w.shape == ref["mu_hat"].shape, f"w has shape {w.shape}")
    residual = float(np.sum((selection_update(model, w, ref, h) - w) ** 2))
    _require(residual <= h["eps"], f"{model}: squared fixed-point residual {residual:.3e} > eps")


def check_planted(selected, planted) -> None:
    """Every planted signal column is among the selected ones."""
    missed = sorted(set(planted) - set(selected))
    _require(not missed, f"planted signals not selected: {missed[:5]}")


def lda_terms(w, ref: dict, X_new: np.ndarray) -> np.ndarray:
    """(1 + 1/n) times the w-weighted LDA discriminant of each new row."""
    weight = w * (ref["mu1_hat"] - ref["mu0_hat"]) / ref["var_pooled"]
    mid = 0.5 * (ref["mu1_hat"] + ref["mu0_hat"])
    return (1.0 + 1.0 / ref["n"]) * ((X_new - mid) @ weight)


def vqda_scores(w, ref: dict, X_new: np.ndarray) -> np.ndarray:
    """Raw-count prior odds, the Gamma-ratio term and the w-weighted
    difference of Gaussian log densities under each group's own variance."""
    n1, n0 = ref["n1"], ref["n0"]
    g = lambda k: gammaln((k + 1) / 2.0) - gammaln(k / 2.0)
    total = np.zeros(X_new.shape[0])
    for lo in range(0, w.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        x = X_new[:, sl]
        diff = (norm.logpdf(x, ref["mu1_hat"][sl], np.sqrt(ref["var1"][sl]))
                - norm.logpdf(x, ref["mu0_hat"][sl], np.sqrt(ref["var0"][sl])))
        total += diff @ w[sl]
    return math.log(n1 / n0) + w.sum() * (g(n1) - g(n0)) + 0.5 * total


def coupled_update(y_tilde, base, ref: dict, h: dict = HYPER):
    """Scores and probabilities after one batch update of the coupled labels."""
    m = y_tilde.size
    s = y_tilde.sum() - y_tilde
    score = (np.log(h["a_y"] + ref["n1"] + s) - np.log(h["b_y"] + ref["n0"] + (m - 1) - s)
             + base)
    return score, expit(score)


def _close(got, want, what: str, tol: float = 1e-7) -> None:
    got = np.asarray(got, dtype=float)
    _require(got.shape == want.shape, f"{what} has shape {got.shape}, expected {want.shape}")
    bad = np.abs(got - want) > tol * (1.0 + np.abs(want))
    _require(not bad.any(), f"{what} differs from the recomputation at row "
             f"{int(np.argmax(bad)) if bad.any() else -1}")


def check_prediction(kind: str, w, ref: dict, X_new, y_tilde, labels, score=None,
                     h: dict = HYPER) -> None:
    """Recompute the one-shot VLDA or VQDA score, or the coupled VLDA fixed
    point, on the new rows (in training column order) and compare."""
    w = np.asarray(w, dtype=float)
    y_tilde = np.asarray(y_tilde, dtype=float)
    if kind == "coupled":
        want_score, y_next = coupled_update(y_tilde, lda_terms(w, ref, X_new), ref, h)
        residual = float(np.sum((y_next - y_tilde) ** 2))
        _require(residual <= h["eps"],
                 f"coupled labels: squared fixed-point residual {residual:.3e} > eps")
    else:
        if kind == "vlda":
            prior = math.log((ref["n1"] + h["a_y"]) / (ref["n0"] + h["b_y"]))
            want_score = prior + lda_terms(w, ref, X_new)
        else:
            want_score = vqda_scores(w, ref, X_new)
        _close(y_tilde, expit(want_score), f"{kind} y_tilde", tol=1e-9)
    if score is not None:
        _close(score, want_score, f"{kind} score")
    _require(np.array_equal(np.asarray(labels).astype(bool), y_tilde > h["c_y"]),
             f"{kind} labels do not threshold y_tilde at c_y")


def check_cv_errors(errors, y) -> None:
    """Every repetition's CV error is at most half the majority-class error."""
    y = np.asarray(y)
    chance = min(int(y.sum()), int(y.size - y.sum())) / y.size
    worst = float(np.max(errors))
    _require(worst <= 0.5 * chance, f"CV error {worst:.3f} is not well below chance {chance:.3f}")


def check_consistency(ns, E, fp, fn) -> None:
    """Selection error vanishes with n: at the largest n the median false
    positive and negative counts are 0, and the median E never rises with n.
    E, fp and fn are (len(ns), reps) arrays of per-replicate values."""
    med_E = np.median(np.asarray(E, dtype=float), axis=1)
    _require(np.median(np.asarray(fp)[-1]) == 0, f"median false positives at n={ns[-1]} is not 0")
    _require(np.median(np.asarray(fn)[-1]) == 0, f"median false negatives at n={ns[-1]} is not 0")
    rises = np.flatnonzero(np.diff(med_E) > 0)
    _require(rises.size == 0, f"median E rises with n: {med_E.tolist()} over n={list(ns)}")
