"""Statistics, penalty constants, and ratio statistics.

The hand-worked example used throughout: x = [1,2,3,4,6,8] with labels
[1,1,1,0,0,0].  Exact fractions: mu1 = 2, mu0 = 6, mu = 4, pooled variance
5/3, single-mean variance 17/3, group variances 2/3 and 8/3.  Appending
x_new = 5 with y_new = 1 gives mu1 = 11/4, single-mean variance 244/49,
pooled 67/28, group-1 variance 35/16.
"""

import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit
from scipy.special import gammaln
from scipy.stats import norm

import vbda
from vbda import (
    DataValidationError,
    Dataset,
    DomainError,
    Hyperparameters,
    compute_stats,
    expit,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)
from vbda import core
from vbda.evalharness import _fold_stats, stratified_folds
from vbda.oracle import _stats_with_new

from conftest import (
    log_gaussian_density,
    numpy_stats,
    read_logged,
    tiled_data,
    traced_peak,
)

X_HAND = np.array([[1.0], [2.0], [3.0], [4.0], [6.0], [8.0]])
Y_HAND = np.array([1, 1, 1, 0, 0, 0])


def hand_dataset():
    return Dataset(X_HAND, Y_HAND)


def exact_mean_var(col):
    """The mean and the variance (denominator n) of a float column, as
    Fractions.  Scaled by 2**shift, every value is an integer, so the sums
    are taken exactly over Python integers."""
    shift = int(53 - np.frexp(col)[1].min())
    ints = [int(v) for v in np.ldexp(col, shift)]
    n, total = len(ints), sum(ints)
    squares = sum(v * v for v in ints)
    return (Fraction(total, n << shift),
            Fraction(n * squares - total * total, (n * n) << (2 * shift)))


def exact_error(s, X, y) -> dict:
    """The largest error of each statistic of ``s`` against its exact value
    on the rows (X, y): means relative to |mean| + sd, variances relative to
    their exact value."""
    exact = {g: [exact_mean_var(col) for col in X[y == g].T] for g in (0, 1)}
    pooled = [exact_mean_var(col) for col in X.T]
    n1, n0 = int((y == 1).sum()), int((y == 0).sum())
    want = {
        "mu1_hat": [m for m, _ in exact[1]], "mu0_hat": [m for m, _ in exact[0]],
        "mu_hat": [m for m, _ in pooled], "var1": [v for _, v in exact[1]],
        "var0": [v for _, v in exact[0]], "var_total": [v for _, v in pooled],
        "var_pooled": [(n1 * v1 + n0 * v0) / (n1 + n0)
                       for (_, v1), (_, v0) in zip(exact[1], exact[0])],
    }
    sd = {"mu1_hat": "var1", "mu0_hat": "var0", "mu_hat": "var_total"}
    errors = {}
    for field, values in want.items():
        scale = ([abs(float(m)) + math.sqrt(v) for m, v in zip(values, want[sd[field]])]
                 if field in sd else [float(v) for v in values])
        errors[field] = max(abs(float(Fraction(a) - b)) / c
                            for a, b, c in zip(getattr(s, field), values, scale))
    return errors


@st.composite
def labeled_columns(draw, max_n=30):
    n1 = draw(st.integers(2, max_n // 2))
    n0 = draw(st.integers(2, max_n // 2))
    n = n1 + n0
    vals = draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    y = np.array([1] * n1 + [0] * n0)
    return np.array(vals, dtype=float), y


class TestDataset:
    def test_basic_properties(self):
        d = hand_dataset()
        assert (d.n, d.p, d.n1, d.n0) == (6, 1, 3, 3)

    def test_arrays_are_read_only(self):
        d = hand_dataset()
        with pytest.raises(ValueError):
            d.X[0, 0] = 99.0

    def test_caller_arrays_stay_writable(self):
        X = X_HAND.copy()
        d = Dataset(X, Y_HAND)
        w = np.full(1, 0.5)
        f = vbda.FitState(model="vlda", w=w, cycles_run=0, converged=True,
                          final_delta=0.0, stats=compute_stats(d),
                          hyper=Hyperparameters())
        X[0, 0] = 99.0
        w[0] = 0.25
        assert d.X[0, 0] == 99.0  # a view, not a copy
        with pytest.raises(ValueError):
            d.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.w[0] = 1.0

    def test_fields(self):
        # Labels are named only when written: save_csv(..., label_column=...).
        assert tuple(Dataset.__dataclass_fields__) == ("X", "y", "columns")

    def test_rejects_nonfinite(self):
        X = X_HAND.copy()
        X[2, 0] = np.nan
        with pytest.raises(DataValidationError):
            Dataset(X, Y_HAND)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_error_names_the_first_cell(self, bad):
        X = np.ones((4, 3))
        X[2, 1] = X[3, 0] = bad
        with pytest.raises(DataValidationError, match="at row 2, column 1$"):
            Dataset(X)

    @pytest.mark.parametrize("block", [6, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_error_names_the_first_cell_by_row_blocks(
        self, bad, block, monkeypatch
    ):
        # Finiteness is read by row blocks: two rows of three per block at 6
        # and one row at 2.
        monkeypatch.setattr(core, "_BLOCK", block)
        X = np.ones((4, 3))
        X[2, 1] = X[3, 0] = bad
        with pytest.raises(DataValidationError, match="at row 2, column 1$"):
            Dataset(X)
        assert Dataset(np.ones((4, 3))).n == 4

    @pytest.mark.parametrize("block", [None, 256])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("cell", [(0, 0), (20, 18), (40, 36)], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finiteness_check_in_any_layout(self, bad, cell, layout, block, monkeypatch):
        # 41 x 37 values: one block at the default size, blocks of 6 rows at
        # 256 elements.  A block whose dot product is not finite is scanned
        # value by value, and so is one of finite values whose squares overflow.
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        base = np.random.default_rng(0).standard_normal((82, 111))
        X = {"C": base[:41, :37].copy(), "F": np.asfortranarray(base[:41, :37]),
             "strided": base[::2, ::3]}[layout]
        X[cell] = bad
        assert not core._all_finite(X)
        with pytest.raises(DataValidationError, match=f"at row {cell[0]}, column {cell[1]}$"):
            Dataset(X)
        X[cell] = -1.7976931348623157e308
        X[40 - cell[0], 36 - cell[1]] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core._all_finite(X)
            assert Dataset(X).X[cell] == X[cell]

    def test_accepts_extreme_finite_values(self):
        X = np.full((3, 4), 1e308)
        X[1, 2] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = Dataset(X, np.array([0, 1, 1]))
        assert d.X[0, 0] == 1e308

    def test_rejects_bad_labels(self):
        with pytest.raises(DataValidationError):
            Dataset(X_HAND, np.array([0, 1, 2, 0, 1, 0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataValidationError):
            Dataset(X_HAND, np.array([0, 1, 0]))

    def test_training_needs_two_per_group(self):
        d = Dataset(X_HAND, np.array([1, 0, 0, 0, 0, 0]))
        with pytest.raises(DataValidationError):
            d.validate_training()

    def test_training_needs_four_rows(self):
        d = Dataset(X_HAND[:3], np.array([1, 1, 0]))
        with pytest.raises(DataValidationError):
            d.validate_training()

    def test_column_names_length_checked(self):
        with pytest.raises(DataValidationError):
            Dataset(X_HAND, Y_HAND, columns=("a", "b"))

    def test_rejects_duplicate_column_names(self):
        X = np.column_stack([X_HAND, X_HAND, -X_HAND])
        with pytest.raises(DataValidationError, match="duplicate column name 'b'"):
            Dataset(X, Y_HAND, columns=("b", "a", "b"))
        assert Dataset(X, Y_HAND, columns=("b", "a", "c")).columns == ("b", "a", "c")

    def test_late_duplicate_found_in_linear_time(self):
        # A search of each name's predecessors took 15 s at p = 40000.
        p = 100000
        names = tuple(f"c{j}" for j in range(p - 1)) + (f"c{p - 2}",)
        t0 = time.perf_counter()
        with pytest.raises(DataValidationError, match=f"duplicate column name 'c{p - 2}'"):
            Dataset(np.zeros((1, p)), columns=names)
        assert time.perf_counter() - t0 < 5.0


class TestHyperparameters:
    def test_defaults_valid(self):
        h = Hyperparameters()
        assert h.a_y == h.b_y == h.a_gamma == 1.0
        assert h.r == 0.98 and h.kappa == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a_y": -0.1},
            {"b_y": -1.0},
            {"a_gamma": 0.0},
            {"r": 1.0},
            {"kappa": 0.0},
            {"c_w": 0.0},
            {"c_y": 1.0},
            {"eps": 0.0},
            {"max_cycles": 0},
            {"c_w": 1.0},
            {"c_y": 0.0},
            {"max_cycles": 2.5},
            # A bool or a string is not a number here, as in a loaded state;
            # True would pass kappa > 0 and max_cycles >= 1.
            {"max_cycles": True},
            {"kappa": True},
            {"eps": "1e-6"},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(DomainError):
            Hyperparameters(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a_y", "b_y", "a_gamma", "r", "kappa", "c_w", "c_y",
                                       "eps"])
    def test_rejects_non_finite(self, field, value):
        # One check ahead of the range checks names the field: inf passes
        # "a_y >= 0" and -inf passes "r < 1", and a NaN fails every comparison.
        with pytest.raises(DomainError, match=f"^{field} must be finite, got {value}$"):
            Hyperparameters(**{field: value})

    def test_numpy_integer_max_cycles_allowed(self):
        h = Hyperparameters(max_cycles=np.int64(3))
        assert h.max_cycles == 3 and type(h.max_cycles) is int

    def test_stores_plain_floats(self):
        # numpy scalars and ints become Python floats, which JSON can write.
        h = Hyperparameters(a_y=np.float64(2.0), b_y=0, kappa=np.float32(0.002))
        assert h.a_y == 2.0 and h.b_y == 0.0 and h.kappa == float(np.float32(0.002))
        assert all(type(getattr(h, name)) is float for name in
                   ("a_y", "b_y", "a_gamma", "r", "kappa", "c_w", "c_y", "eps"))

    def test_zero_label_pseudocounts_allowed(self):
        h = Hyperparameters(a_y=0.0, b_y=0.0)
        assert h.a_y == 0.0


class TestComputeStats:
    def test_hand_example(self):
        s = compute_stats(hand_dataset())
        assert s.mu1_hat[0] == pytest.approx(2.0, abs=1e-15)
        assert s.mu0_hat[0] == pytest.approx(6.0, abs=1e-15)
        assert s.mu_hat[0] == pytest.approx(4.0, abs=1e-15)
        assert s.var_pooled[0] == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert s.var_total[0] == pytest.approx(17.0 / 3.0, rel=1e-15)
        assert s.var1[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert s.var0[0] == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert not s.floored[0]

    def test_with_new_hand_example(self):
        s = _stats_with_new(hand_dataset(), np.array([5.0]))[1]
        assert s.mu1_hat[0] == pytest.approx(11.0 / 4.0, rel=1e-15)
        assert s.mu0_hat[0] == pytest.approx(6.0, rel=1e-15)
        assert s.var_total[0] == pytest.approx(244.0 / 49.0, rel=1e-14)
        assert s.var_pooled[0] == pytest.approx(67.0 / 28.0, rel=1e-14)
        assert s.var1[0] == pytest.approx(35.0 / 16.0, rel=1e-14)
        assert s.var0[0] == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert (s.n, s.n1, s.n0) == (7, 4, 3)

    def test_with_new_label_zero_counts(self):
        s = _stats_with_new(hand_dataset(), np.array([5.0]))[0]
        assert (s.n, s.n1, s.n0) == (7, 3, 4)
        assert s.mu1_hat[0] == pytest.approx(2.0, rel=1e-15)

    def test_large_offset_matches_numpy(self):
        # Column offset 1e6, with the group-1 means a further 0, 1e3 or 1e6
        # away: the case that needs each group centered on its own means.
        rng = np.random.default_rng(3)
        y = np.array([1] * 17 + [0] * 23)
        base = 1e6 + rng.standard_normal((40, 5))
        for gap in (0.0, 1e3, 1e6):
            X = base.copy()
            X[y == 1] += gap
            s = compute_stats(Dataset(X, y))
            X1, X0 = X[y == 1], X[y == 0]
            for got, want in [
                (s.mu_hat, X.mean(axis=0)),
                (s.mu1_hat, np.mean(X1, axis=0)),
                (s.mu0_hat, np.mean(X0, axis=0)),
                (s.var_total, np.var(X, axis=0)),
                (s.var1, np.var(X1, axis=0)),
                (s.var0, np.var(X0, axis=0)),
                (s.var_pooled, (17 * np.var(X1, axis=0) + 23 * np.var(X0, axis=0)) / 40),
            ]:
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_constant_column_floored(self):
        X = np.column_stack([np.ones(6), X_HAND[:, 0]])
        s = compute_stats(Dataset(X, Y_HAND))
        assert s.floored[0] and not s.floored[1]
        assert s.var_total[0] == pytest.approx(1e-12)

    @pytest.mark.invariant
    @given(labeled_columns())
    def test_pooled_variance_decomposition(self, col_y):
        # n * var_pooled = n1 * var1 + n0 * var0 by construction
        col, y = col_y
        s = compute_stats(Dataset(col[:, None], y))
        if s.floored[0]:
            return
        lhs = s.n * s.var_pooled[0]
        rhs = s.n1 * s.var1[0] + s.n0 * s.var0[0]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @pytest.mark.invariant
    @given(labeled_columns(), st.integers(0, 1), st.sampled_from([0.0, 1e3, 1e6]),
           st.floats(-1e5, 1e5, allow_nan=False))
    @example(col_y=(np.array([0.0, 1.0, 0.0, 2.0]), np.array([1, 1, 0, 0])),
             y_new=0, offset=0.0, x_draw=-3.0)
    def test_with_new_reduces_to_augmented_training(self, col_y, y_new, offset, x_draw):
        # The new row anywhere, far outside the data too, at column offsets
        # up to 1e6: the statistics of the training moments plus one row
        # match compute_stats of the stacked data.  Means are compared
        # relative to |mean| + sd, so that a mean of 0 in exact arithmetic
        # (the example: mu_hat is 0) is not held to a relative bound on its
        # rounding noise.
        col, y = col_y
        col = col + offset
        x_new = offset + x_draw
        s_new = _stats_with_new(Dataset(col[:, None], y), np.array([x_new]))[y_new]
        s_aug = compute_stats(Dataset(np.append(col, x_new)[:, None], np.append(y, y_new)))
        assert (s_new.n, s_new.n1, s_new.n0) == (s_aug.n, s_aug.n1, s_aug.n0)
        np.testing.assert_array_equal(s_new.floored, s_aug.floored)
        if s_aug.floored[0]:
            return
        for name, var in (("mu_hat", "var_total"), ("mu1_hat", "var1"), ("mu0_hat", "var0")):
            want = getattr(s_aug, name)
            scale = np.abs(want) + np.sqrt(getattr(s_aug, var))
            assert np.abs(getattr(s_new, name) - want) <= 1e-12 * scale, name
        for name in ("var_total", "var_pooled", "var1", "var0"):
            np.testing.assert_allclose(getattr(s_new, name), getattr(s_aug, name),
                                       rtol=1e-12, err_msg=name)


class TestTiledMoments:
    """compute_stats reads each group in the tiles of core._tile_shape; with
    a small core._BLOCK the groups split into many column tiles and, when
    tall, into row blocks, and the statistics must not change."""

    @pytest.mark.parametrize("n, p", [(60, 50), (300, 12)])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_small_tiles_match_numpy(self, n, p, offset, monkeypatch):
        # 64-element tiles: 30 rows of 50 columns make 4 row blocks by 7
        # column tiles; 150 rows of 12 columns make 19 row blocks by 2.
        monkeypatch.setattr(core, "_BLOCK", 64)
        X, y = tiled_data(n, p, offset)
        s = compute_stats(Dataset(X, y))
        counts, floored, ref = numpy_stats(X, y, 1e-12)
        assert (s.n, s.n1, s.n0) == counts
        np.testing.assert_array_equal(s.floored, floored)
        for field, want in ref.items():
            got = getattr(s, field)
            rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert rel.max() <= 1e-12, (field, rel.max())

    def test_small_block_splits_groups_into_tiles(self, einsum_shapes, monkeypatch):
        # One einsum per tile: each group of 150 x 12 is one tile at the
        # default block, and 19 row blocks by 2 column tiles at 64 elements.
        d = Dataset(*tiled_data(300, 12, 0.0))
        compute_stats(d)
        assert einsum_shapes == [(150, 12)] * 2
        einsum_shapes.clear()
        monkeypatch.setattr(core, "_BLOCK", 64)
        compute_stats(d)
        assert len(einsum_shapes) == 2 * 19 * 2
        assert {a * b for a, b in einsum_shapes} <= set(range(1, 65))

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("n, p", [(60, 50), (300, 12)])
    def test_data_read_once_through_tiles(self, n, p, block, gathered, monkeypatch):
        # Every element is gathered into exactly one tile, and no numpy
        # operation takes the whole matrix: the group centers come from the
        # tiles too.
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        d = Dataset(*tiled_data(n, p, 0.0))
        object.__setattr__(d, "X", read_logged(d.X))
        compute_stats(d)
        assert sum(a * b for a, b in gathered) == n * p
        assert d.X.ops == []

    @pytest.mark.parametrize("block", [None, 4096])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_tall_groups_match_exact_arithmetic(self, offset, block, monkeypatch):
        # Groups of 500 rows by 300 columns: 2 row blocks of at most 256 rows
        # at the default block, 8 of 64 rows at 4096, each added into the
        # group's moments about the means of its first.  Means are compared
        # relative to |mean| + sd.
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        X, y = tiled_data(1000, 300, offset)
        errors = exact_error(compute_stats(Dataset(X, y)), X, y)
        assert max(errors.values()) <= 1e-13, errors

    @pytest.mark.parametrize("n, p, k, block", [
        (1000, 300, 2, None), (1000, 300, 2, 4096), (40, 12, 40, None),
    ], ids=["k2", "k2_block4096", "leave_one_out"])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_fold_stats_match_exact_arithmetic(self, n, p, k, block, offset, monkeypatch):
        # Every fold's statistics against exact arithmetic on its training
        # rows, with the bound above.  At k = 2 each (fold, group) cell has
        # 250 rows: one row block at the default block, 4 of 64 rows at 4096.
        # Leave-one-out makes cells of one row; each group is still centred
        # on the means of its first row block, here the whole group.
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        X, y = tiled_data(n, p, offset)
        folds = stratified_folds(y, k, np.random.default_rng(5))
        for fold, s in enumerate(_fold_stats(X, y, folds, k)):
            train = folds != fold
            errors = exact_error(s, X[train], y[train])
            assert max(errors.values()) <= 1e-13, (fold, errors)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_leave_one_out_outlier_matches_exact_arithmetic(self, offset):
        # Each group's first row in fold order, the first row a one-row-cell
        # center would take, lies 1e3 off on the columns of sd 1e-3.  Folds
        # that train on it keep the bound above.  A fold that holds it out
        # is its group's totals minus that row, so its variances lose about
        # eps * kappa to cancellation, kappa being the largest ratio of the
        # group's centred sum of squares to the fold's; that is allowed 8x.
        # A center on the outlier itself would cost about n/2 times kappa.
        n, small = 100, slice(0, 12, 2)
        X, y = tiled_data(n, 12, offset)
        X[:, small] = offset + (X[:, small] - offset) * 1e-3
        folds = stratified_folds(y, n, np.random.default_rng(5))
        order = np.argsort(2 * folds + y, kind="stable")
        first = [order[y[order] == g][0] for g in (0, 1)]
        X[first, small] += 1e3
        for fold, s in enumerate(_fold_stats(X, y, folds, n)):
            train = folds != fold
            error = max(exact_error(s, X[train], y[train]).values())
            bound = 1e-13
            for g in (0, 1):
                if not train[first[g]]:
                    group, rest = X[y == g], X[train & (y == g)]
                    kappa = (group.var(axis=0) * len(group) / (rest.var(axis=0) * len(rest))).max()
                    bound = 8 * np.finfo(float).eps * kappa
            assert error <= bound, (fold, error, bound)

    def test_peak_memory_below_one_group(self):
        # A group of 50 x 20000 is 8 MB: a whole-group copy puts the peak
        # near 9 MB, while one 512 KB tile at a time keeps it near 3 MB.
        d = Dataset(*tiled_data(100, 20000, 0.0))
        peak = traced_peak(lambda: compute_stats(d))
        assert peak < 5_000_000, peak


class TestWorkingMemory:
    """tracemalloc peaks in p-vectors (p float64 values).  At this p one
    512 KB tile is less than one p-vector, so a whole n-by-p temporary, or
    a few more p-vectors held at once, shows."""

    n, p = 20, 100_000

    def test_dataset_checks_finiteness_in_row_blocks(self):
        # A mask of the whole matrix would take n bytes per column.
        X, y = tiled_data(self.n, self.p, 0.0)
        assert traced_peak(lambda: Dataset(X, y)) < self.p * 8

    def test_dataset_error_locates_the_cell_in_one_row_block(self):
        # An all-NaN matrix: the bad cell is found in the first block of rows,
        # with no mask of the matrix (about 0.1 MB, against 66 MB once).
        X = np.full((self.n, self.p), np.nan)

        def call():
            with pytest.raises(DataValidationError, match="at row 0, column 0$"):
                Dataset(X)

        assert traced_peak(call) < self.p * 8

    def test_compute_stats(self):
        # The centers (2), the moments of two groups (4), and the seven
        # statistics built with one scratch vector (8).
        d = Dataset(*tiled_data(self.n, self.p, 0.0))
        assert traced_peak(lambda: compute_stats(d)) <= 16 * self.p * 8


class TestTiles:
    """core._tiles is the one walk over a data matrix: the statistics and
    the scorer both read their rows through it."""

    ROWS = [None, np.array([0, 3, 4, 9, 17, 18, 25, 29, 30, 31, 38]),
            np.array([7]), np.array([], dtype=np.intp)]

    @pytest.mark.parametrize("block", [64, 16])
    @pytest.mark.parametrize("rows", ROWS, ids=["all", "picked", "one", "none"])
    def test_tiles_cover_every_entry_once(self, block, rows, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", block)
        X = np.arange(40.0 * 23).reshape(40, 23)
        taken = X if rows is None else X[rows]
        seen = np.zeros(taken.shape, dtype=int)
        for part, cols, tile in core._tiles(X, rows):
            assert 0 < tile.size <= block
            assert tile.flags.c_contiguous and tile.flags.writeable
            np.testing.assert_array_equal(tile, taken[part, cols])
            seen[part, cols] += 1
        np.testing.assert_array_equal(seen, 1)

    @pytest.mark.parametrize("rows", ROWS[:2], ids=["all", "picked"])
    def test_writing_a_tile_leaves_the_matrix_alone(self, rows, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", 16)
        X = np.arange(40.0 * 23).reshape(40, 23)
        before = X.copy()
        for source in (X, Dataset(X).X):
            for _, _, tile in core._tiles(source, rows):
                tile[...] = -1.0
        np.testing.assert_array_equal(X, before)

    def test_contiguous_rows_share_one_buffer(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", 16)
        X = np.arange(40.0 * 23).reshape(40, 23)
        starts = [tile.__array_interface__["data"][0] for _, _, tile in core._tiles(X)]
        assert len(starts) == 10 * 6 and len(set(starts)) == 1


TRAIN_PATHS = pytest.mark.parametrize("train", [
    compute_stats, vbda.fit_vlda, vbda.fit_vqda, lambda d: vbda.kfold_cv(d, k=5),
], ids=["compute_stats", "fit_vlda", "fit_vqda", "kfold_cv"])


@pytest.mark.filterwarnings("error")
class TestNonFiniteTrainingData:
    """Dataset.X is a read-only view of the caller's array, which stays
    writable, so a value written there after the Dataset was built reaches
    the statistics; every training path must reject it, and finite values
    whose squares overflow, with its own error and no numpy warning first."""

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @TRAIN_PATHS
    def test_rejected(self, train, bad, block, monkeypatch):
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        X, y = tiled_data(60, 50, 0.0)
        d = Dataset(X, y)
        X[3, 2 if block is None else 47] = bad  # 47: in the last column tile
        with pytest.raises(DataValidationError, match="^training data contain non-finite values$"):
            train(d)

    @pytest.mark.parametrize("column", [
        lambda x: x * 1e160,  # the squares overflow
        lambda x: np.full_like(x, 1.5e308),  # the column sums overflow too
    ], ids=["squares", "sums"])
    @TRAIN_PATHS
    def test_too_large_to_square(self, train, column):
        X, y = tiled_data(60, 50, 0.0)
        X[:, 1] = column(X[:, 1])
        with pytest.raises(DataValidationError, match="^training data contain values too large to square$"):
            train(Dataset(X, y))


class TestLogBGamma:
    def test_frozen_values(self):
        # 2 log 500 - log(101)/2 + 0.001 * 101 / log(101)^0.98
        assert log_b_gamma(100, 500, 0.98, 1e-3) == pytest.approx(
            10.14422024481848, abs=1e-12
        )
        assert log_b_gamma(40, 8, 0.98, 1e-3) == pytest.approx(
            2.313431170817617, abs=1e-12
        )
        assert math.exp(log_b_gamma(40, 8, 0.98, 1e-3)) == pytest.approx(
            10.10905109754249, rel=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "p": 5, "r": 0.98, "kappa": 1e-3},
            {"n": 10, "p": 0, "r": 0.98, "kappa": 1e-3},
            {"n": 10, "p": 5, "r": 1.0, "kappa": 1e-3},
            {"n": 10, "p": 5, "r": 0.98, "kappa": 0.0},
            {"n": 10, "p": 5, "r": -math.inf, "kappa": 1e-3},
            {"n": 10, "p": 5, "r": 0.98, "kappa": math.inf},
            {"n": 10, "p": 5, "r": math.nan, "kappa": 1e-3},
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            log_b_gamma(**kwargs)

    @pytest.mark.invariant
    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_monotone_in_p(self, n, p):
        assert log_b_gamma(n, p + 1, 0.98, 1e-3) > log_b_gamma(n, p, 0.98, 1e-3)


class TestXi:
    def test_exact_half(self):
        assert xi(0.5) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "x, expected",
        [
            (0.1, 1.664032627828938),
            (1.0, 0.08106146679532726),
            (2.0, -0.3052328943245634),
            (10.0, -1.14296198306366),
            (25.0, -1.606104756797372),
            (50.0, -1.95434485826709),
            (100.0, -2.301751762438411),
        ],
    )
    def test_frozen_values(self, x, expected):
        assert xi(x) == pytest.approx(expected, abs=1e-12)

    def test_returns_python_float(self):
        assert type(xi(3)) is float and type(xi(np.float32(30.0))) is float
        assert xi(np.int64(50)) == xi(50.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            xi(0.0)

    @pytest.mark.parametrize("x", [0, -1.5, np.float64(-2.0), np.int64(0), math.nan,
                                   math.inf, np.float32("nan")])
    def test_scalar_domain_errors(self, x):
        with pytest.raises(DomainError, match="xi requires x > 0"):
            xi(x)

    def test_series_matches_mpmath_above_cutoff(self):
        # Through the x^-11 term, the series is within a few ulp where it
        # takes over from the direct route; with two fewer terms it was off
        # by 8.2e-13 at x = 10.
        with mpmath.workdps(40):
            for x in np.linspace(10.0, 20.0, 201):
                m = mpmath.mpf(float(x))
                exact = mpmath.loggamma(m) + m - m * mpmath.log(m) - mpmath.log(2 * mpmath.pi) / 2
                assert abs(xi(x) - float(exact)) <= 2e-15, x

    def test_series_matches_gammaln_at_crossover(self):
        # Series route (x >= 10) and direct route must agree where they meet.
        for x in (9.999999, 10.0, 10.000001, 12.0, 20.0):
            direct = float(gammaln(x)) + x - x * math.log(x) - 0.5 * math.log(2 * math.pi)
            assert xi(x) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.invariant
    @given(st.floats(0.05, 500.0))
    def test_matches_direct_formula(self, x):
        direct = float(gammaln(x)) + x - x * math.log(x) - 0.5 * math.log(2 * math.pi)
        assert xi(x) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.invariant
    @given(st.floats(1.0, 1e6))
    def test_asymptotically_half_log(self, x):
        # xi(x) + log(x)/2 -> 1/(12x), so the remainder shrinks like 1/x
        assert abs(xi(x) + 0.5 * math.log(x)) <= 1.0 / (11.0 * x)


class TestLambdaStatistics:
    def test_lda_hand_value(self):
        s = compute_stats(hand_dataset())
        # 7 * log(17/5)
        assert lambda_lrt_lda(s, 6)[0] == pytest.approx(8.566428021354810, rel=1e-13)

    def test_qda_hand_value(self):
        s = compute_stats(hand_dataset())
        # 7 log(17/3) - 3 log(2/3) - 3 log(8/3)
        assert lambda_lrt_qda(s, 6, 3, 3)[0] == pytest.approx(
            10.41611495300606, rel=1e-13
        )

    def test_with_new_lda_hand_value(self):
        s = _stats_with_new(hand_dataset(), np.array([5.0]))[1]
        # multiplier stays n+1 with n the training count: 7 * log(976/469)
        assert lambda_lrt_lda(s, 6)[0] == pytest.approx(5.130018725767692, rel=1e-13)

    def test_with_new_qda_hand_value(self):
        s = _stats_with_new(hand_dataset(), np.array([5.0]))[1]
        lam = lambda_lrt_qda(s, 6, s.n1, s.n0)[0]
        assert lam == pytest.approx(5.163910374244318, rel=1e-13)

    @pytest.mark.invariant
    @given(labeled_columns(), st.floats(0.01, 100.0))
    def test_lda_scale_invariant(self, col_y, c):
        col, y = col_y
        s1 = compute_stats(Dataset(col[:, None], y))
        s2 = compute_stats(Dataset((c * col)[:, None], y))
        if s1.floored[0] or s2.floored[0]:
            return
        n = y.size
        assert lambda_lrt_lda(s2, n)[0] == pytest.approx(
            lambda_lrt_lda(s1, n)[0], rel=1e-8, abs=1e-8
        )

    @pytest.mark.invariant
    @given(labeled_columns(), st.floats(0.01, 100.0))
    def test_qda_training_variant_shifts_by_log_c_squared(self, col_y, c):
        # Multipliers (n+1, n1, n0) do not sum to zero in the log-variance
        # scaling, leaving an exact log(c^2) offset.
        col, y = col_y
        s1 = compute_stats(Dataset(col[:, None], y))
        s2 = compute_stats(Dataset((c * col)[:, None], y))
        if s1.floored[0] or s2.floored[0]:
            return
        n, n1, n0 = y.size, int(y.sum()), int((1 - y).sum())
        shift = lambda_lrt_qda(s2, n, n1, n0)[0] - lambda_lrt_qda(s1, n, n1, n0)[0]
        assert shift == pytest.approx(math.log(c * c), rel=1e-6, abs=1e-7)

    @pytest.mark.invariant
    @given(labeled_columns(), st.floats(0.05, 20.0), st.integers(0, 1))
    def test_qda_with_new_variant_scale_invariant(self, col_y, c, y_new):
        # With-new multipliers (n1+y, n0+1-y) sum to n+1, so scaling cancels.
        col, y = col_y
        x_new = float(np.median(col)) + 0.25
        d1 = Dataset(col[:, None], y)
        d2 = Dataset((c * col)[:, None], y)
        s1 = _stats_with_new(d1, np.array([x_new]))[y_new]
        s2 = _stats_with_new(d2, np.array([c * x_new]))[y_new]
        if s1.floored[0] or s2.floored[0]:
            return
        n = y.size
        lam1 = lambda_lrt_qda(s1, n, s1.n1, s1.n0)[0]
        lam2 = lambda_lrt_qda(s2, n, s2.n1, s2.n0)[0]
        assert lam2 == pytest.approx(lam1, rel=1e-7, abs=1e-7)

    @pytest.mark.invariant
    @given(labeled_columns())
    def test_label_swap_leaves_both_statistics_unchanged(self, col_y):
        col, y = col_y
        s_a = compute_stats(Dataset(col[:, None], y))
        s_b = compute_stats(Dataset(col[:, None], 1 - y))
        n = y.size
        assert lambda_lrt_lda(s_a, n)[0] == pytest.approx(
            lambda_lrt_lda(s_b, n)[0], rel=1e-12, abs=1e-12
        )
        assert lambda_lrt_qda(s_a, n, s_a.n1, s_a.n0)[0] == pytest.approx(
            lambda_lrt_qda(s_b, n, s_b.n1, s_b.n0)[0], rel=1e-12, abs=1e-12
        )


class TestDensityHelpers:
    def test_log_gaussian_matches_scipy(self):
        x = np.array([-2.0, 0.0, 1.5])
        out = log_gaussian_density(x, 0.5, 2.0)
        expected = norm.logpdf(x, loc=0.5, scale=math.sqrt(2.0))
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_expit_fixed_point(self):
        assert expit(math.log(91.0 / 11.0)) == pytest.approx(91.0 / 102.0, rel=1e-15)


class TestExpit:
    """The numpy logistic against scipy's, which it replaced."""

    def test_matches_scipy_on_seeded_grid(self):
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308,
                 np.inf, -np.inf]
        x = np.concatenate([
            edges,
            rng.normal(0.0, 5.0, 5000),
            rng.uniform(-800.0, 800.0, 5000),
        ])
        np.testing.assert_allclose(expit(x), scipy_expit(x), rtol=1e-15, atol=0)

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expit(-1000.0) == 0.0
            assert expit(1000.0) == 1.0
            out = expit(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_input_array_unchanged(self):
        x = np.linspace(-50.0, 50.0, 101)
        before = x.copy()
        out = expit(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)

    def test_scalar_in_scalar_out(self):
        out = expit(0.25)
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
        assert out == scipy_expit(0.25)
