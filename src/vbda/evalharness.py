"""Metrics, stratified cross-validation, and the selection-consistency experiment.

Classification error and MCC follow the usual confusion-matrix definitions;
MCC returns 0 when any marginal count is zero (documented convention, the
denominator would vanish).

``kfold_cv`` builds stratified folds by a per-group round-robin over a seeded
shuffle, with the fold counter running on across groups.  That guarantees
both groups appear in every training fold whenever each group has at least
``k`` members, and it degrades gracefully to leave-one-out (k = n), where
folds simply alternate between the groups.  It never copies a training
fold: one pass per repetition takes the moments of every (fold, group) cell
about one center per group (see ``core._moments``).  Each cell then becomes,
in place, its training fold's group moments: the group totals minus the
cell.  A fold's cells are freed as its statistics are built, and its
statistics once it is scored, so the working memory shrinks fold by fold.
Both the moments and the scores of the held-out rows are one pass over
``core._tiles``, which gathers each cache-sized tile of a group's rows, or
of the held-out rows, once, where they lie in the data matrix.

``consistency_experiment`` tracks the soft selection errors
e0 = sum of w over noise variables, e1 = sum of (1 - w) over signal
variables, E = e0 + e1, plus hard false-positive/negative counts at the
selection threshold, as the training size grows.  Curves are recorded both
after a single update cycle and at convergence, since the consistency
guarantee holds for any cycle count >= 1 and the two can differ in practice.
Each replicate is reduced to its statistics and then to its ten numbers
before the next is drawn, and both curves come from one fixed point: the
single-cycle iterate is where the converged fit continues from.  The
statistics of every setting are drawn from their exact laws
(``simgen._draw_moments``), not as data, so a replicate costs O(p) time and
memory at any n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DataValidationError,
    Dataset,
    Hyperparameters,
    _moments,
    _stats_from_moments,
)
from .rcvb import _FITTERS, _fit, _rule, _score
from .simgen import SimSetting, _draw_moments, _signal_mask, derive_seed

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


def mcc(selected, true_mask) -> float:
    """Matthews correlation of a selected variable set; 0 if any marginal is empty."""
    tp, tn, fp, fn = selection_confusion(selected, true_mask)
    denom2 = float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom2 == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(denom2)


@dataclass(frozen=True)
class EvalReport:
    """Per-repetition record: the number of scored rows, how many were
    misclassified, and their ratio."""

    m: int
    misclassified: int
    error: float


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


def _fold_stats(X: np.ndarray, y: np.ndarray, folds: np.ndarray, k: int):
    """Yield the training statistics of folds 0..k-1 in turn, each from the
    rows outside that fold, without copying those rows.

    One stable sort of the key 2 * fold + group lists the rows of all 2k
    (fold, group) cells in row order, empty cells included.  One
    ``core._moments`` call takes every cell's moments about its group's
    center, a single read of X.  ``_complements`` turns each cell in place
    into its training fold's group moments.  Each fold's two cells are
    popped as ``core._stats_from_moments`` turns them into statistics,
    raising at the first fold whose training rows are too few, so the
    moments shrink as the folds go by.
    """
    key = 2 * folds + y
    order = np.argsort(key, kind="stable")
    cells = np.split(order, np.cumsum(np.bincount(key, minlength=2 * k))[:-1])
    centers, groups = _moments(X, [(rows, c % 2) for c, rows in enumerate(cells)])
    for group in groups:
        _complements(group)
    for _ in range(k):
        yield _stats_from_moments(centers, groups[0].pop(0), groups[1].pop(0))


def _complements(group: list) -> None:
    """Turn each cell (count, S, Q) of one group, in place, into the moments
    of the rest of the group about the same center: the group's totals, the
    sum of its cells, minus the cell, one total at a time."""
    count = sum(cell[0] for cell in group)
    for i in (1, 2):  # S, then Q
        total = sum(cell[i] for cell in group)
        for cell in group:
            np.subtract(total, cell[i], out=cell[i])
    group[:] = [(count - n_cell, S, Q) for n_cell, S, Q in group]


def kfold_cv(
    d: Dataset,
    k: int,
    reps: int = 1,
    model: str = "vlda",
    h: Hyperparameters | None = None,
    seed: int = 0,
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

    reports = []
    for rep in range(reps):
        rng = np.random.default_rng(derive_seed(seed, rep))
        folds = stratified_folds(d.y, k, rng)
        total_wrong = 0
        fold_stats = _fold_stats(d.X, d.y, folds, k)
        for fold in range(k):
            # No name holds a fold's statistics, so they are freed before
            # the next fold's are built.
            test_idx = np.flatnonzero(folds == fold)
            pred = _score(_fit(next(fold_stats), h, model), d, h, rule, rows=test_idx)
            total_wrong += int(np.sum(pred.labels != d.y[test_idx].astype(bool)))
        reports.append(EvalReport(m=d.n, misclassified=total_wrong, error=total_wrong / d.n))
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

    Each (size, replicate) cell is drawn, fitted and reduced to its numbers
    by ``_consistency_cell`` before the next is drawn.  Both curves come from
    one fixed point: the converged fit continues from the single-cycle
    iterate, so it runs the same cycles as a fit started afresh."""
    ns = tuple(int(n) for n in ns)
    if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
        raise DataValidationError("ns must be a nonempty strictly increasing sequence")
    if reps < 1:
        raise DataValidationError("reps must be >= 1")
    if model not in _FITTERS:
        raise DataValidationError(f"model must be one of {sorted(_FITTERS)}, got {model!r}")
    h = h or Hyperparameters()
    truth = _signal_mask(setting)

    fields = ("E", "e0", "e1", "fp", "fn")
    raw = np.zeros((2, len(fields), len(ns), reps))  # (tau1/conv, field, n, rep)
    for i, n in enumerate(ns):
        for rep in range(reps):
            s = replace(setting, n_train=n, n_valid=0, n_test=0,
                        seed=derive_seed(seed, i, rep))
            raw[:, :, i, rep] = _consistency_cell(s, h, model, truth)

    at_tau1, at_convergence = (
        ConsistencyCurve(ns=ns, **dict(zip(fields, curve))) for curve in raw
    )
    return ConsistencyResult(setting=setting, model=model, reps=reps,
                             at_tau1=at_tau1, at_convergence=at_convergence)


def _consistency_cell(s: SimSetting, h: Hyperparameters, model: str,
                      truth: np.ndarray) -> list:
    """(E, e0, e1, fp, fn) after one cycle and at convergence for one fresh
    draw of the statistics of ``s``, which lives only in this call."""
    stats = _stats_from_moments(*_draw_moments(s))
    f = _fit(stats, replace(h, max_cycles=1), model)
    out = [_selection_errors(f.w, truth, h.c_w)]
    if not f.converged and h.max_cycles > 1:
        f = _fit(stats, replace(h, max_cycles=h.max_cycles - 1), model, w0=f.w)
    out.append(_selection_errors(f.w, truth, h.c_w))
    return out


def _selection_errors(w: np.ndarray, truth: np.ndarray, c_w: float) -> tuple:
    """(E, e0, e1, fp, fn): soft errors e0 = sum of w over noise variables and
    e1 = sum of 1 - w over signal variables, and hard counts at ``c_w``."""
    e0 = float(w[~truth].sum())
    e1 = float((1.0 - w[truth]).sum())
    sel = w > c_w
    return e0 + e1, e0, e1, int(sel[~truth].sum()), int((~sel[truth]).sum())
