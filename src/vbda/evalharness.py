"""Metrics, stratified cross-validation, and the selection-consistency experiment.

Classification error and MCC follow the usual confusion-matrix definitions;
MCC returns 0 when any marginal count is zero (documented convention, the
denominator would vanish).

``kfold_cv`` builds stratified folds by a per-group round-robin over a seeded
shuffle, with the fold counter running on across groups.  That guarantees
both groups appear in every training fold whenever each group has at least
``k`` members, and it degrades gracefully to leave-one-out (k = n), where
folds simply alternate between the groups.  It never copies a training
fold: one pass per repetition takes the group moments of every (fold, group)
cell, and each training fold's statistics are built from the totals minus
its held-out cells (see ``core``).  Both the moments and the scores of the
held-out rows are one pass over ``core._tiles``, which gathers each
cache-sized tile of a cell's rows once, where they lie in the data matrix.

``consistency_experiment`` tracks the soft selection errors
e0 = sum of w over noise variables, e1 = sum of (1 - w) over signal
variables, E = e0 + e1, plus hard false-positive/negative counts at the
selection threshold, as the training size grows.  Curves are recorded both
after a single update cycle and at convergence, since the consistency
guarantee holds for any cycle count >= 1 and the two can differ in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DataValidationError,
    Dataset,
    Hyperparameters,
    _group_centers,
    _moments,
    _stats_from_moments,
    compute_stats,
)
from .rcvb import _FITTERS, _fit, _rule, _score, select_variables
from .simgen import SimSetting, derive_seed, generate

__all__ = [
    "EvalReport",
    "CVReport",
    "ConsistencyCurve",
    "ConsistencyResult",
    "classification_error",
    "selection_confusion",
    "mcc",
    "stratified_folds",
    "kfold_cv",
    "consistency_experiment",
]

def classification_error(pred_labels, true_labels) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise DataValidationError(
            f"label vectors must share one shape, got {pred.shape} vs {true.shape}"
        )
    if pred.size == 0:
        raise DataValidationError("cannot score an empty label vector")
    return float(np.mean(pred.astype(bool) != true.astype(bool)))


def _as_mask(selected, p: int) -> np.ndarray:
    sel = np.asarray(selected)
    if sel.dtype == bool:
        if sel.shape != (p,):
            raise DataValidationError(f"selection mask must have shape ({p},)")
        return sel
    mask = np.zeros(p, dtype=bool)
    if sel.size:
        idx = sel.astype(int)
        if idx.min() < 0 or idx.max() >= p:
            raise DataValidationError("selected indices out of range")
        mask[idx] = True
    return mask


def selection_confusion(selected, true_mask):
    """(TP, TN, FP, FN) of a selected set against the true signal mask."""
    truth = np.asarray(true_mask, dtype=bool)
    mask = _as_mask(selected, truth.size)
    tp = int(np.sum(mask & truth))
    tn = int(np.sum(~mask & ~truth))
    fp = int(np.sum(mask & ~truth))
    fn = int(np.sum(~mask & truth))
    return tp, tn, fp, fn


def _mcc_from_counts(tp, tn, fp, fn) -> float:
    denom2 = float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom2 == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(denom2)


def mcc(selected, true_mask) -> float:
    """Matthews correlation of a selected variable set; 0 if any marginal is empty."""
    return _mcc_from_counts(*selection_confusion(selected, true_mask))


@dataclass(frozen=True)
class EvalReport:
    """Per-repetition record: classification counts plus optional selection
    quality (selection fields stay None when the ground truth is unknown).
    In cross-validation, tp/tn/fp/fn are means over the k folds."""

    m: int
    misclassified: int
    error: float
    mcc: float | None = None
    tp: float | None = None
    tn: float | None = None
    fp: float | None = None
    fn: float | None = None


@dataclass(frozen=True)
class CVReport:
    """Cross-validation outcome: one EvalReport per repetition."""

    model: str
    k: int
    reps: tuple[EvalReport, ...]

    @property
    def misclassified(self) -> np.ndarray:
        return np.array([r.misclassified for r in self.reps])

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.error for r in self.reps])


def stratified_folds(y, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per observation: shuffled round-robin within each group,
    the counter continuing across groups so all k folds fill evenly."""
    y = np.asarray(y)
    n = y.size
    if not 2 <= k <= n:
        raise DataValidationError(f"k must lie in [2, n={n}], got {k}")
    folds = np.empty(n, dtype=int)
    counter = 0
    for group in (0, 1):
        idx = rng.permutation(np.flatnonzero(y == group))
        folds[idx] = (counter + np.arange(idx.size)) % k
        counter += idx.size
    return folds


def _fold_stats(X: np.ndarray, y: np.ndarray, folds: np.ndarray, k: int,
                variance_floor: float):
    """Yield the training statistics of folds 0..k-1 in turn, each from the
    rows outside that fold, without copying those rows.

    One stable sort of the key 2 * fold + group lists the rows of all 2k
    (fold, group) cells in row order, empty cells included.  One
    ``core._moments`` call takes every cell's moments about its group's
    full-data column means.  A group's totals are the sum of its cells, a
    training fold's group moments the totals minus its held-out cell, and
    ``core._stats_from_moments`` turns them into statistics, raising at the
    first fold whose training rows are too few.
    """
    centers = _group_centers(X, y)
    key = 2 * folds + y
    order = np.argsort(key, kind="stable")
    cells = np.split(order, np.cumsum(np.bincount(key, minlength=2 * k))[:-1])
    held = _moments(X, [(rows, c % 2) for c, rows in enumerate(cells)], centers)
    totals = [[sum(moment) for moment in zip(*held[g::2])] for g in (0, 1)]
    for fold in range(k):
        yield _stats_from_moments(centers, *(
            [t - v for t, v in zip(totals[g], held[2 * fold + g])] for g in (0, 1)
        ), variance_floor)


def kfold_cv(
    d: Dataset,
    k: int,
    reps: int = 1,
    model: str = "vlda",
    h: Hyperparameters | None = None,
    seed: int = 0,
    gamma_true=None,
    coupled: bool = False,
) -> CVReport:
    """Repeated stratified k-fold CV; per repetition, misclassifications are
    summed across the k held-out folds.  Deterministic given the seed.

    Each training fold is fitted from statistics derived from one pass of
    per-(fold, group) moments (see ``_fold_stats``), not from a copy of its
    rows; they match ``compute_stats`` on those rows up to rounding.
    The held-out rows are scored where they lie in ``d.X`` by the scorer
    behind ``predict`` (``rcvb._score``), with no copy of them; the labels
    are exactly those of ``predict(f, d.X[test_idx])``.  A training fold with
    fewer than two rows of either group raises the same DataValidationError
    as ``Dataset.validate_training``.

    With ``vlda``, leave-one-out (k = n) error is biased upward when few
    variables are selected: the held-out row's group is one row short in
    training, so the prior odds log((n1 + a_y) / (n0 + b_y)) always favour
    its other group.  On balanced data where no variable is selected, it can
    misclassify every row."""
    if model not in _FITTERS:
        raise DataValidationError(f"model must be one of {sorted(_FITTERS)}, got {model!r}")
    if reps < 1:
        raise DataValidationError("reps must be >= 1")
    rule = _rule(model, coupled)
    d.validate_training()
    h = h or Hyperparameters()
    truth = None if gamma_true is None else np.asarray(gamma_true, dtype=bool)

    reports = []
    for rep in range(reps):
        rng = np.random.default_rng(derive_seed(seed, rep))
        folds = stratified_folds(d.y, k, rng)
        total_wrong = 0
        confusion = np.zeros(4, dtype=float)
        for fold, stats in enumerate(_fold_stats(d.X, d.y, folds, k, h.variance_floor)):
            test_idx = np.flatnonzero(folds == fold)
            f = _fit(stats, h, model, d.columns)
            pred = _score(f, d, h, rule, rows=test_idx)
            total_wrong += int(np.sum(pred.labels != d.y[test_idx].astype(bool)))
            if truth is not None:
                confusion += selection_confusion(select_variables(f, h.c_w), truth)
        err = total_wrong / d.n
        if truth is None:
            rep_mcc = tp = tn = fp = fn = None
        else:
            tp, tn, fp, fn = (confusion / k).tolist()
            rep_mcc = _mcc_from_counts(tp, tn, fp, fn)
        reports.append(
            EvalReport(
                m=d.n,
                misclassified=total_wrong,
                error=err,
                mcc=rep_mcc,
                tp=tp,
                tn=tn,
                fp=fp,
                fn=fn,
            )
        )
    return CVReport(model=model, k=k, reps=tuple(reports))


@dataclass(frozen=True)
class ConsistencyCurve:
    """Soft and hard selection errors per (training size, replicate)."""

    ns: tuple[int, ...]
    E: np.ndarray  # (len(ns), reps)
    e0: np.ndarray
    e1: np.ndarray
    fp: np.ndarray
    fn: np.ndarray

    def median(self, field: str) -> np.ndarray:
        return np.median(getattr(self, field), axis=1)


@dataclass(frozen=True)
class ConsistencyResult:
    setting: SimSetting
    model: str
    reps: int
    at_tau1: ConsistencyCurve
    at_convergence: ConsistencyCurve


def consistency_experiment(
    setting: SimSetting,
    ns,
    reps: int,
    h: Hyperparameters | None = None,
    seed: int = 0,
    model: str = "vlda",
) -> ConsistencyResult:
    """Fit fresh replicates of ``setting`` at each training size in ``ns`` and
    record the selection-error curves after one cycle and at convergence.

    Each replicate's statistics are computed once; the single-cycle fit and
    the converged fit both start from them."""
    ns = tuple(int(n) for n in ns)
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise DataValidationError("ns must be a nonempty strictly increasing sequence")
    if reps < 1:
        raise DataValidationError("reps must be >= 1")
    if model not in _FITTERS:
        raise DataValidationError(f"model must be one of {sorted(_FITTERS)}, got {model!r}")
    h = h or Hyperparameters()
    h_tau1 = replace(h, max_cycles=1)

    shape = (len(ns), reps)
    raw = {tag: {f: np.zeros(shape) for f in ("E", "e0", "e1", "fp", "fn")}
           for tag in ("tau1", "conv")}
    for i, n in enumerate(ns):
        for rep in range(reps):
            s = replace(setting, n_train=n, n_valid=0, n_test=0,
                        seed=derive_seed(seed, i, rep))
            r = generate(s)
            truth = r.gamma_true
            stats = compute_stats(r.train, h.variance_floor)
            for tag, hp in (("tau1", h_tau1), ("conv", h)):
                w = _fit(stats, hp, model).w
                e0 = float(w[~truth].sum())
                e1 = float((1.0 - w[truth]).sum())
                sel = w > h.c_w
                raw[tag]["e0"][i, rep] = e0
                raw[tag]["e1"][i, rep] = e1
                raw[tag]["E"][i, rep] = e0 + e1
                raw[tag]["fp"][i, rep] = int(sel[~truth].sum())
                raw[tag]["fn"][i, rep] = int((~sel[truth]).sum())

    def curve(tag):
        return ConsistencyCurve(ns=ns, **raw[tag])

    return ConsistencyResult(
        setting=setting,
        model=model,
        reps=reps,
        at_tau1=curve("tau1"),
        at_convergence=curve("conv"),
    )
