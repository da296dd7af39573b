"""Shared domain types, per-variable Gaussian statistics, and special functions.

Both classifiers in this package test, for every variable j, a null model
(one mean, one variance) against a group-structured alternative: separate
group means with a shared variance for the linear variant (VLDA), separate
group means and variances for the quadratic variant (VQDA).  Everything
downstream -- selection probabilities, classification rules, the
exact-posterior oracle -- is assembled from the per-variable maximum likelihood
estimates plus two penalty ingredients defined here: the global sparsity
constant b_gamma and the Stirling-corrected log-gamma term xi.

Conventions used throughout:

* All variance MLEs use denominators n, n1, n0 (not the unbiased n-1 forms).
* Every ``VariableStats`` is built by ``_stats_from_moments`` from each
  group's row count n_g and column sums S_g and sums of squares Q_g about a
  center c_g taken from the group's rows: mu_g = S_g/n_g + c_g and
  var_g = Q_g/n_g - (S_g/n_g)^2, accurate at any column offset and group
  gap, and the null model by the law of total variance.  Moments add over disjoint rows: cross-validation turns
  each held-out cell, in place, into the group totals minus that cell, and
  the oracle adds its new row.  ``_moments`` reads every cell once, through
  ``_tiles``, the walker that scoring uses too, one cache-sized tile at a
  time, into an S and a Q of the cell's own, so a caller can free one cell
  while it keeps the others.  All cells of a group share one center, the
  column means of the first row block of the group's rows (its cells' rows
  in cell order), so the moments of any of its cells add and subtract with
  no shift.  ``_stats_from_moments`` writes its outputs in place, with one
  scratch vector.  ``_moments`` rejects non-finite data and finite values
  too large to square.
* Variances are floored at ``_VARIANCE_FLOOR`` so constant columns degrade
  gracefully instead of producing infinities; a per-variable flag records
  where flooring happened.
* b_gamma overflows any machine real for large n, so it is only ever carried
  as log(b_gamma).  The fixed point in ``rcvb`` exponentiates it only as
  exp(log b_gamma - offset_j) and exp(-log b_gamma), whose overflow to inf or
  underflow to 0 gives the saturated update.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoreError",
    "DataValidationError",
    "DomainError",
    "CapacityError",
    "Dataset",
    "Hyperparameters",
    "VariableStats",
    "compute_stats",
    "log_b_gamma",
    "xi",
    "lambda_lrt_lda",
    "lambda_lrt_qda",
    "expit",
]


class CoreError(Exception):
    """Base class for all errors raised by this package."""


class DataValidationError(CoreError, ValueError):
    """Input data violates a documented precondition."""


class DomainError(CoreError, ValueError):
    """A scalar argument lies outside the mathematical domain of a function."""


class CapacityError(CoreError, ValueError):
    """The request exceeds a hard size limit (e.g. the exact posterior's
    (p+1)-by-(p+1) count-chain table)."""


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise DataValidationError(f"X must be 2-dimensional, got ndim={X.ndim}")
    return X


def _column_names(columns: tuple[str, ...] | None, p: int) -> tuple[str, ...]:
    """``columns``, or the default names v1..vp for unnamed data.  save_csv
    writes these names, so align_to_columns later matches against them."""
    return columns or tuple(f"v{j + 1}" for j in range(p))


def _first_duplicate(names):
    """The first name that repeats an earlier one, or None, in O(len(names))."""
    if len(set(names)) == len(names):
        return None
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)


@dataclass(frozen=True)
class Dataset:
    """An n-by-p data matrix with optional binary group labels.

    ``y`` is None for prediction-only data.  Labels must be exactly 0 or 1.
    ``columns`` carries variable names for alignment at prediction time;
    when absent, positional alignment is assumed.  Every value of ``X`` must
    be finite; it is checked a block of rows at a time, with no n-by-p mask.
    ``X`` shares memory with the input when that is already a float64
    matrix: it is a read-only view of the caller's array, which stays
    writable, so later writes to that array show through in the dataset.
    """

    X: np.ndarray
    y: np.ndarray | None = None
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        X = _as_matrix(self.X)
        if X.shape[1] < 1:
            raise DataValidationError("dataset needs at least one variable (p >= 1)")
        rows = _non_finite_rows(X)
        if rows is not None:  # the first bad cell lies in this block of rows
            block = X[rows]
            i, j = np.unravel_index(np.argmin(np.isfinite(block)), block.shape)
            raise DataValidationError(
                f"non-finite value in X at row {rows.start + i}, column {j}"
            )
        X = X.view()
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        if self.y is not None:
            y = np.asarray(self.y)
            if y.shape != (X.shape[0],):
                raise DataValidationError(
                    f"y has shape {y.shape}, expected ({X.shape[0]},)"
                )
            if not np.isin(y, (0, 1)).all():
                raise DataValidationError("labels must all be 0 or 1")
            y = y.astype(np.int8)
            y.setflags(write=False)
            object.__setattr__(self, "y", y)
        if self.columns is not None:
            cols = tuple(str(c) for c in self.columns)
            if len(cols) != X.shape[1]:
                raise DataValidationError(
                    f"{len(cols)} column names for {X.shape[1]} columns"
                )
            dup = _first_duplicate(cols)
            if dup is not None:
                raise DataValidationError(f"duplicate column name {dup!r}")
            object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n1(self) -> int:
        self._require_labels()
        return int(self.y.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    def _require_labels(self):
        if self.y is None:
            raise DataValidationError("operation requires a labeled dataset")

    def validate_training(self) -> None:
        """Check the invariants required of a training set.

        Each group needs its own variance estimate, hence at least two
        observations per group and four overall.
        """
        self._require_labels()
        _check_counts(self.n, self.n1, self.n0)


def _check_counts(n: int, n1: int, n0: int) -> None:
    """Raise unless a training set of n rows, n1 in group 1 and n0 in group 0,
    can give every group its own variance estimate."""
    if n < 4:
        raise DataValidationError(f"training needs n >= 4, got n={n}")
    if n1 < 2 or n0 < 2:
        raise DataValidationError(
            f"each group needs >= 2 observations, got n1={n1}, n0={n0}"
        )


@dataclass(frozen=True)
class Hyperparameters:
    """Prior constants, thresholds, and iteration controls.

    a_y, b_y parameterize the Beta prior on the group-1 probability; they
    may be zero, which drops the prior odds adjustment from classification
    (the frequentist-concordance setting).  a_gamma and the derived b_gamma
    (see :func:`log_b_gamma`) parameterize the Beta prior on the inclusion
    probability; r < 1 and kappa > 0 control how fast b_gamma grows with n.
    c_w and c_y are the selection and classification thresholds.  eps bounds
    the squared norm of successive selection-probability updates.  Every
    float must be finite.  Each float field is stored as a Python float and
    max_cycles as a Python int, whatever real or integer type was passed,
    so that every accepted value saves and loads back; a bool is refused.
    """

    a_y: float = 1.0
    b_y: float = 1.0
    a_gamma: float = 1.0
    r: float = 0.98
    kappa: float = 1e-3
    c_w: float = 0.5
    c_y: float = 0.5
    eps: float = 1e-6
    max_cycles: int = 100

    def __post_init__(self):
        for name in ("a_y", "b_y", "a_gamma", "r", "kappa", "c_w", "c_y", "eps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.a_y < 0 or self.b_y < 0:
            raise DomainError("a_y and b_y must be nonnegative")
        if self.a_gamma <= 0:
            raise DomainError("a_gamma must be positive")
        if not self.r < 1:
            raise DomainError(f"r must be < 1, got {self.r}")
        if not self.kappa > 0:
            raise DomainError(f"kappa must be positive, got {self.kappa}")
        for name in ("c_w", "c_y"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {v}")
        if not self.eps > 0:
            raise DomainError(f"eps must be positive, got {self.eps}")
        try:
            max_cycles = operator.index(self.max_cycles)  # any integer type
        except TypeError:
            max_cycles = 0  # not an integer: rejected below
        if isinstance(self.max_cycles, bool) or max_cycles < 1:
            raise DomainError("max_cycles must be a positive integer")
        object.__setattr__(self, "max_cycles", max_cycles)


@dataclass(frozen=True)
class VariableStats:
    """Per-variable Gaussian MLEs for the null and alternative models.

    mu_hat / var_total describe the one-group null model; mu1_hat, mu0_hat
    are the group means; var_pooled is the shared-variance alternative
    (linear variant); var1 / var0 are the group variances (quadratic
    variant).  ``floored`` flags variables where any variance was raised to
    the floor.  n, n1, n0 are the observation counts the denominators used.
    """

    mu_hat: np.ndarray
    mu1_hat: np.ndarray
    mu0_hat: np.ndarray
    var_total: np.ndarray
    var_pooled: np.ndarray
    var1: np.ndarray
    var0: np.ndarray
    floored: np.ndarray
    n: int
    n1: int
    n0: int

    @property
    def p(self) -> int:
        return self.mu_hat.shape[0]


# Group moments and new-row scores are taken in tiles of at most _BLOCK
# elements (512 KB of float64), so each tile stays in cache and no n-by-p
# temporary is made.  On a 2-core Xeon with a 2 MB L2 per core, scoring
# 50 x 200000 rows took 75-92 ms over block sizes 2**14 to 2**17 (all three
# rules), least at 2**16.
_BLOCK = 1 << 16


def _tile_shape(m: int, p: int) -> tuple[int, int]:
    """(height, width) of the tiles in which m rows of p columns are read:
    as many columns as fit beside all the rows, but at least isqrt(_BLOCK)
    of them, so that tall inputs are split by rows as well."""
    width = min(p, max(_BLOCK // max(m, 1), math.isqrt(_BLOCK)))
    return max(1, min(m, _BLOCK // width)), width


def _non_finite_rows(X: np.ndarray) -> slice | None:
    """The first block of rows of the matrix X that holds a value that is not
    finite, or None.  Blocks hold at most ``_BLOCK`` elements (or one row),
    so that no n-by-p mask is made.  Each block is first read by one BLAS
    call, its dot product with itself, which is NaN or inf if the block holds
    a NaN or an infinity.  Only a block whose dot product is not finite
    (non-finite values, or finite ones whose squares overflow) is scanned
    value by value.  A block that is not contiguous is copied for the dot
    product."""
    step = max(1, _BLOCK // max(X.shape[1], 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(0, len(X), step):
            block = X[top:top + step].ravel()
            if not math.isfinite(block @ block) and not np.isfinite(block).all():
                return slice(top, top + step)
    return None


def _all_finite(X: np.ndarray) -> bool:
    """Whether every value of the matrix X is finite (see ``_non_finite_rows``)."""
    return _non_finite_rows(X) is None


def _tiles(X: np.ndarray, rows=None):
    """Yield (part, cols, tile) for each ``_tile_shape`` tile of X, or of
    X[rows]: ``part`` slices the m rows taken, ``cols`` the columns, and
    ``tile`` is a writable contiguous copy.  Contiguous rows share one buffer;
    picked rows are gathered anew, so free each tile before the next."""
    m, p = (len(X) if rows is None else len(rows)), X.shape[1]
    height, width = _tile_shape(m, p)
    buf = np.empty(height * width) if rows is None else None
    for top in range(0, m, height):
        part = slice(top, top + height)
        for start in range(0, p, width):
            cols = slice(start, start + width)
            if rows is None:
                block = X[part, cols]
                tile = buf[: block.size].reshape(block.shape)
                tile[...] = block
                yield part, cols, tile
            else:
                yield part, cols, X[rows[part], cols]


def _moments(X: np.ndarray, cells) -> tuple[list, tuple[list, list]]:
    """``(centers, groups)`` for the cells (rows, g): ``centers[g]`` is one
    center per group, and ``groups[g]`` lists, in cell order, the moments
    (count, S, Q) of the group's cells about it: the row count of X[rows],
    and the column sums S and sums of squares Q of X[rows] - centers[g].

    Each group is one pass over the ``_tiles`` of its rows, its cells' rows
    in cell order.  Its center is the column means of the first row block,
    taken as ones @ tile / rows, so it is the group's means whenever the
    group fits in one row block and otherwise averages at least
    isqrt(``_BLOCK``) of its rows, however small its cells.  A center taken
    from the data keeps S small against Q, so var = Q/n - (S/n)^2 loses
    little to cancellation (the "shifted data" algorithm of Chan, Golub &
    LeVeque, 1983).  Every tile is centred in place, and each cell's rows in
    it give S by a second product and Q by ``einsum``: the tile that holds a
    cell's first row writes straight into its arrays, and each later one
    adds into them.  Every cell has arrays of its own, so a caller can free
    one cell while it keeps the others.  A NaN or an infinity in a group,
    or finite values whose sums or squares overflow, leave some cell's Q
    non-finite; one check of each cell's Q finds them, and only then are the
    group's rows scanned to tell the two apart.
    """
    cells = list(cells)
    centers, groups = [None, None], ([], [])
    p = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        for g in (0, 1):
            mine = [rows for rows, h in cells if h == g]
            groups[g][:] = [(len(rows), np.zeros(p), np.zeros(p)) for rows in mine]
            starts = np.cumsum([0] + [len(rows) for rows in mine]).tolist()
            if not starts[-1]:
                continue
            rows = np.concatenate(mine)
            centers[g] = np.empty(p)
            ones = np.ones(_tile_shape(len(rows), p)[0])
            for part, cols, tile in _tiles(X, rows):
                c = centers[g][cols]
                if not part.start:
                    np.matmul(ones[:len(tile)], tile, out=c)
                    c /= len(tile)
                tile -= c
                i = bisect.bisect_right(starts, part.start) - 1
                while i < len(mine) and starts[i] < part.stop:
                    a, b = max(starts[i], part.start), min(starts[i + 1], part.stop)
                    if a < b:
                        rows_in = tile[a - part.start:b - part.start]
                        _, S, Q = groups[g][i]
                        if a == starts[i]:
                            np.matmul(ones[:b - a], rows_in, out=S[cols])
                            np.einsum("ij,ij->j", rows_in, rows_in, out=Q[cols])
                        else:
                            S[cols] += ones[:b - a] @ rows_in
                            Q[cols] += np.einsum("ij,ij->j", rows_in, rows_in)
                    i += 1
                # Free the tile before the next gather, so that its memory is
                # reused rather than fresh pages faulted in for every tile.
                del tile, rows_in
            if not all(np.isfinite(Q.max()) for _, _, Q in groups[g]):  # max propagates NaN
                if all(np.isfinite(tile).all() for _, _, tile in _tiles(X, rows)):
                    raise DataValidationError("training data contain values too large to square")
                raise DataValidationError("training data contain non-finite values")
    return centers, groups


# Variances below this are raised to it, so every log of a variance is finite.
_VARIANCE_FLOOR = 1e-12


def _stats_from_moments(centers: np.ndarray, m0, m1) -> VariableStats:
    """VariableStats from the ``_moments`` of groups 0 and 1 about
    ``centers`` (see the module docstring): var_g is clipped at 0 and every
    variance below ``_VARIANCE_FLOOR`` is raised to it and flagged.  Raises like
    ``Dataset.validate_training`` unless both groups have enough rows."""
    (n0, s0, q0), (n1, s1, q1) = m0, m1
    n = n0 + n1
    _check_counts(n, n1, n0)
    # The textbook steps in their order, written in place into the seven
    # outputs and one scratch vector t (var_total is scratch too until its
    # own step), so that no more than eight p-vectors are ever held:
    #   d_g = s_g / n_g,  var_g = max(q_g / n_g - d_g d_g, 0),  mu_g = d_g + c_g,
    #   diff = (d1 - d0) + (c1 - c0),  var_pooled = (n1 var1 + n0 var0) / n,
    #   var_total = var_pooled + (n1 n0 / n^2) diff diff,
    #   mu_hat = (n1 mu1 + n0 mu0) / n.
    mu1, mu0 = s1 / n1, s0 / n0  # d1 and d0 until the centers are added
    var1, var0 = q1 / n1, q0 / n0
    t = mu1 * mu1
    var1 -= t
    np.maximum(var1, 0.0, out=var1)
    np.multiply(mu0, mu0, out=t)
    var0 -= t
    np.maximum(var0, 0.0, out=var0)
    diff = np.subtract(mu1, mu0, out=t)
    var_total = np.subtract(centers[1], centers[0])
    diff += var_total
    mu1 += centers[1]
    mu0 += centers[0]
    var_pooled = np.multiply(n1, var1)
    np.multiply(n0, var0, out=var_total)
    var_pooled += var_total
    var_pooled /= n
    np.multiply(n1 * n0 / (n * n), diff, out=var_total)
    var_total *= diff
    np.add(var_pooled, var_total, out=var_total)
    # var_total >= var_pooled, so it needs no flag of its own.
    floor = _VARIANCE_FLOOR
    floored = var1 < floor
    floored |= var0 < floor
    floored |= var_pooled < floor
    for v in (var_total, var_pooled, var1, var0):
        np.maximum(v, floor, out=v)
    mu_hat = np.multiply(n1, mu1)
    np.multiply(n0, mu0, out=t)
    mu_hat += t
    mu_hat /= n
    return VariableStats(mu_hat, mu1, mu0, var_total, var_pooled, var1, var0, floored, n, n1, n0)


def _group_moments(X: np.ndarray, y: np.ndarray):
    """``(centers, m0, m1)`` of groups 0 and 1 for ``_stats_from_moments``:
    each group's moments are taken about the column means of its first row
    block, which are its column means when it fits in one (see ``_moments``)."""
    centers, ((m0,), (m1,)) = _moments(X, [((y == g).nonzero()[0], g) for g in (0, 1)])
    return centers, m0, m1


def compute_stats(d: Dataset) -> VariableStats:
    """Training-only per-variable MLEs.

    These are the large-n (Taylor) forms used inside the selection updates.
    All of them come from the two groups' centered moments (see the module
    docstring): the group means and variances mu_k_hat and var_k, their
    pooled alternative var_pooled = (n1 * var1 + n0 * var0) / n, so that
    n * var_pooled == n1 * var1 + n0 * var0 holds before flooring, and the
    null model (mu_hat, var_total) by the law of total variance.  Raises
    DataValidationError unless ``d`` is a valid training set.
    """
    d.validate_training()
    return _stats_from_moments(*_group_moments(d.X, d.y))


def log_b_gamma(n: int, p: int, r: float, kappa: float) -> float:
    """log of the global sparsity constant b_gamma.

    b_gamma = p^2 / sqrt(n+1) * exp[kappa * (n+1) / (log(n+1))^r], computed
    entirely in log space:

        log b_gamma = 2 log p - (1/2) log(n+1) + kappa (n+1) / (log(n+1))^r.

    The raw value overflows machine reals for moderate n, so only the log
    form is ever used.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1 (log(n+1) must be nonzero), got {n}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if not -math.inf < r < 1:
        raise DomainError(f"r must be finite and < 1, got {r}")
    if not 0 < kappa < math.inf:
        raise DomainError(f"kappa must be finite and positive, got {kappa}")
    log_np1 = math.log(n + 1.0)
    return 2.0 * math.log(p) - 0.5 * log_np1 + kappa * (n + 1.0) / log_np1**r


# Stirling series for xi(x) = log Gamma(x) + x - x log x - (1/2) log(2 pi).
# For x >= _XI_SERIES_CUTOFF the series below runs to the x^-11 term; the
# first omitted term, 1/(156 x^13), is 6.4e-16 at x = 10, so the series is
# within a few ulp of xi there and closer above.  Below the cutoff the
# direct log-gamma evaluation has no cancellation problem.
_XI_SERIES_CUTOFF = 10.0
_LOG_2PI = math.log(2.0 * math.pi)


def xi(x: float) -> float:
    """Stirling-corrected log-gamma: log Gamma(x) + x - x log x - (1/2) log(2 pi).

    Behaves like -(1/2) log x + 1/(12 x) for large x.  Evaluated through the
    asymptotic series above ``x >= 10`` to avoid the catastrophic
    cancellation of subtracting x log x from log Gamma(x) at large x.
    Takes one real number, with ``math`` alone; the domain is x > 0.
    """
    v = float(x)
    if not (v > 0 and math.isfinite(v)):
        raise DomainError("xi requires x > 0")
    if v < _XI_SERIES_CUTOFF:
        return math.lgamma(v) + v - v * math.log(v) - 0.5 * _LOG_2PI
    inv = 1.0 / v
    inv2 = inv * inv
    return (
        -0.5 * math.log(v)
        + inv * (1.0 / 12.0)
        - inv * inv2 * (1.0 / 360.0)
        + inv * inv2 * inv2 * (1.0 / 1260.0)
        - inv * inv2 * inv2 * inv2 * (1.0 / 1680.0)
        + inv * inv2 * inv2 * inv2 * inv2 * (1.0 / 1188.0)
        - inv * inv2 * inv2 * inv2 * inv2 * inv2 * (691.0 / 360360.0)
    )


def lambda_lrt_lda(s: VariableStats, n: int):
    """Per-variable likelihood ratio statistic for the shared-variance test.

    lambda_j = (n+1) * [log var_total_j - log var_pooled_j], where n is the
    number of *training* observations.  With training-only statistics the
    multiplier is n+1 by construction; with statistics that already include
    the new observation (s.n == n+1) the same call yields the exact
    with-new-point statistic.  Nonnegative up to flooring effects.
    """
    return (n + 1.0) * (np.log(s.var_total) - np.log(s.var_pooled))


def lambda_lrt_qda(s: VariableStats, n: int, n1: int, n0: int):
    """Per-variable likelihood ratio statistic for the separate-variance test.

    lambda_j = (n+1) log var_total_j - n1 log var1_j - n0 log var0_j.

    The multipliers are passed explicitly because the two usages differ:
    training-only statistics pair with (n, n1, n0), while exact with-new
    statistics pair with (n, n1 + y_new, n0 + 1 - y_new).
    """
    return (
        (n + 1.0) * np.log(s.var_total)
        - float(n1) * np.log(s.var1)
        - float(n0) * np.log(s.var0)
    )


def expit(x):
    """Logistic function 1 / (1 + exp(-x)), element-wise.

    Saturates to exactly 0.0 and 1.0 at large |x| (below x = -709.78 and
    above x = 37) without an overflow warning.  A scalar in gives a numpy
    scalar out; an array in gives a new array, so the caller's array is
    never written to.
    """
    x = np.asarray(x)
    t = np.negative(x, dtype=np.result_type(x, 1.0))
    with np.errstate(over="ignore"):
        if not isinstance(t, np.ndarray):  # 0-d input: ufuncs return a scalar
            return 1.0 / (1.0 + np.exp(t))
        np.exp(t, out=t)
        t += 1.0
        return np.reciprocal(t, out=t)
