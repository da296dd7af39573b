"""Metric definitions, stratified CV mechanics, consistency curves."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbda import (
    CVReport,
    DataValidationError,
    Dataset,
    EvalReport,
    Hyperparameters,
    SimSetting,
    classification_error,
    consistency_experiment,
    fit_vlda,
    fit_vqda,
    kfold_cv,
    mcc,
    predict,
    selection_confusion,
    setting_from_index,
    stratified_folds,
)
from vbda import core, evalharness, rcvb
from vbda.evalharness import _fold_stats
from vbda.simgen import MEAN_SPECS, derive_seed

from conftest import make_balanced, numpy_stats, read_logged, tiled_data, traced_peak


class TestClassificationError:
    def test_exact_fractions(self):
        assert classification_error([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0
        assert classification_error([1, 0], [0, 1]) == 1.0
        pred = np.zeros(1000, dtype=int)
        true = np.zeros(1000, dtype=int)
        true[:37] = 1
        assert classification_error(pred, true) == 0.037

    def test_bool_and_int_labels_mix(self):
        assert classification_error([True, False], [1, 0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DataValidationError):
            classification_error([0, 1], [0, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            classification_error([], [])

    def test_two_dimensional_rejected(self):
        with pytest.raises(DataValidationError):
            classification_error(np.zeros((2, 2)), np.zeros((2, 2)))


class TestSelectionMetrics:
    def test_confusion_counts(self):
        truth = [True, False, True, False]
        assert selection_confusion([0, 1], truth) == (1, 1, 1, 1)
        assert selection_confusion([], truth) == (0, 2, 0, 2)
        assert selection_confusion([0, 2], truth) == (2, 2, 0, 0)

    def test_confusion_accepts_boolean_mask(self):
        truth = [True, False, True, False]
        mask = np.array([True, True, False, False])
        assert selection_confusion(mask, truth) == (1, 1, 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(DataValidationError):
            selection_confusion([4], [True, False, True, False])

    def test_mask_shape_checked(self):
        with pytest.raises(DataValidationError):
            selection_confusion(np.array([True, False]), [True, False, True])

    def test_mcc_reference_value(self):
        # TP=40 TN=440 FP=10 FN=10: (40*440 - 100) / sqrt(50*50*450*450) = 7/9
        truth = np.zeros(500, dtype=bool)
        truth[:50] = True
        selected = list(range(40)) + list(range(50, 60))
        assert mcc(selected, truth) == pytest.approx(7.0 / 9.0, rel=1e-12)

    def test_mcc_extremes(self):
        truth = np.array([True, True, False, False])
        assert mcc([0, 1], truth) == pytest.approx(1.0)
        assert mcc([2, 3], truth) == pytest.approx(-1.0)

    def test_mcc_zero_when_degenerate(self):
        truth = np.array([False, False, False])
        assert mcc([], truth) == 0.0
        assert mcc([0, 1, 2], truth) == 0.0
        assert mcc([], np.array([True, True, True])) == 0.0

    def test_mcc_index_and_mask_agree(self):
        truth = np.array([True, False, True, False, False])
        mask = np.array([True, True, False, False, False])
        assert mcc(mask, truth) == mcc([0, 1], truth)

    @pytest.mark.invariant
    @given(
        st.lists(st.booleans(), min_size=2, max_size=10),
        st.data(),
    )
    def test_mcc_complement_symmetry(self, truth, data):
        p = len(truth)
        sel = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
        truth = np.array(truth)
        sel = np.array(sel)
        assert mcc(sel, truth) == pytest.approx(mcc(~sel, ~truth), abs=1e-12)


class TestStratifiedFolds:
    def test_every_fold_balanced(self):
        y = np.array([0, 1] * 10)
        folds = stratified_folds(y, 5, np.random.default_rng(0))
        assert folds.shape == (20,)
        for fold in range(5):
            mask = folds == fold
            assert mask.sum() == 4
            assert y[mask].sum() == 2  # two per group in every fold

    def test_all_folds_used(self):
        y = np.array([0] * 9 + [1] * 6)
        folds = stratified_folds(y, 3, np.random.default_rng(1))
        assert set(folds) == {0, 1, 2}
        sizes = np.bincount(folds, minlength=3)
        assert sizes.sum() == 15 and sizes.max() - sizes.min() <= 1

    def test_leave_one_out(self):
        y = np.array([0, 1] * 10)
        folds = stratified_folds(y, 20, np.random.default_rng(2))
        assert sorted(folds) == list(range(20))

    def test_deterministic_given_rng_seed(self):
        y = np.array([0, 1] * 15)
        a = stratified_folds(y, 4, np.random.default_rng(7))
        b = stratified_folds(y, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_fold_vector_pinned(self):
        # Literal output of the per-observation round-robin loop this
        # function replaced: the vectorised form draws the same permutations.
        y = np.array([0] * 7 + [1] * 6 + [0] * 4 + [1] * 3)
        folds = stratified_folds(y, 4, np.random.default_rng(2024))
        assert folds.tolist() == [2, 3, 3, 0, 0, 0, 1, 2, 0, 2,
                                  3, 0, 1, 1, 2, 2, 1, 1, 3, 3]

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.integers(2, 9), st.integers(2, 12), st.integers(2, 12))
    def test_matches_per_observation_loop(self, seed, k, n0, n1):
        y = np.random.default_rng(seed).permutation(np.repeat([0, 1], [n0, n1]))
        k = min(k, y.size)
        rng = np.random.default_rng(seed)
        expected = np.empty(y.size, dtype=int)
        counter = 0
        for group in (0, 1):
            for i in rng.permutation(np.flatnonzero(y == group)):
                expected[i] = counter % k
                counter += 1
        got = stratified_folds(y, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("k", [0, 1, 21])
    def test_k_bounds(self, k):
        with pytest.raises(DataValidationError):
            stratified_folds(np.array([0, 1] * 10), k, np.random.default_rng(0))

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_training_side_keeps_both_groups(self, seed, k):
        y = np.array([0] * 10 + [1] * 9)
        folds = stratified_folds(y, k, np.random.default_rng(seed))
        for fold in range(k):
            train_y = y[folds != fold]
            assert 0 < train_y.sum() < train_y.size


class TestKFoldCV:
    def test_separated_data_scores_zero(self):
        d = make_balanced(40, 5, seed=0, shift=6.0, k=2)
        rep = kfold_cv(d, k=4, reps=2, model="vlda", seed=3)
        assert rep.misclassified.tolist() == [0, 0]
        assert rep.errors.tolist() == [0.0, 0.0]
        assert rep.model == "vlda" and rep.k == 4

    def test_deterministic(self):
        d = make_balanced(30, 4, seed=5, shift=1.0, k=1)
        a = kfold_cv(d, k=3, reps=3, seed=11)
        b = kfold_cv(d, k=3, reps=3, seed=11)
        assert a.misclassified.tolist() == b.misclassified.tolist()
        assert a == b

    def test_rep_count_and_error_ratio(self):
        d = make_balanced(24, 3, seed=2, shift=1.5, k=1)
        rep = kfold_cv(d, k=4, reps=5, seed=0)
        assert len(rep.reps) == 5
        for r in rep.reps:
            assert r.m == 24
            assert r.error == r.misclassified / 24

    def test_vqda_route_and_coupled_flag(self):
        d = make_balanced(40, 4, seed=9, shift=4.0, k=1)
        rep = kfold_cv(d, k=4, model="vqda", seed=1)
        assert rep.model == "vqda"
        coupled = kfold_cv(d, k=4, model="vlda", seed=1, coupled=True)
        assert coupled.reps[0].error <= 0.1

    def test_bad_arguments(self):
        d = make_balanced(20, 3, seed=0)
        with pytest.raises(DataValidationError):
            kfold_cv(d, k=4, model="lda")
        with pytest.raises(DataValidationError):
            kfold_cv(d, k=4, reps=0)
        with pytest.raises(DataValidationError, match="vlda only"):
            kfold_cv(d, k=4, model="vqda", coupled=True)

    @pytest.mark.parametrize("model, coupled",
                             [("vlda", False), ("vqda", False), ("vlda", True)])
    def test_held_out_rows_scored_like_predict(self, model, coupled, monkeypatch):
        # kfold_cv scores each fold's rows in place inside d.X; with tiles of
        # 8 rows by 8 columns, its counts must equal predict on a copy of the
        # rows.
        monkeypatch.setattr(core, "_BLOCK", 64)
        d = make_balanced(40, 500, seed=2, shift=0.6, k=40)
        h = Hyperparameters()
        want = []
        for rep in range(2):
            folds = stratified_folds(d.y, 4, np.random.default_rng(derive_seed(5, rep)))
            wrong = 0
            for fold, stats in enumerate(_fold_stats(d.X, d.y, folds, 4)):
                test = np.flatnonzero(folds == fold)
                pred = predict(rcvb._fit(stats, h, model), d.X[test], h, coupled=coupled)
                wrong += int(np.sum(pred.labels != d.y[test]))
            want.append(wrong)
        got = kfold_cv(d, k=4, reps=2, model=model, seed=5, coupled=coupled).misclassified
        assert got.tolist() == want
        assert 0 < sum(want) < 2 * d.n


def _per_fold_refit_cv(d, k, reps=1, model="vlda", h=None, seed=0, coupled=False):
    """Reference CV: a fresh Dataset and a full fit for every training fold."""
    h = h or Hyperparameters()
    fitter = {"vlda": fit_vlda, "vqda": fit_vqda}[model]
    reports = []
    for rep in range(reps):
        folds = stratified_folds(d.y, k, np.random.default_rng(derive_seed(seed, rep)))
        wrong = 0
        for fold in range(k):
            test, train = folds == fold, folds != fold
            f = fitter(Dataset(d.X[train], d.y[train], columns=d.columns), h)
            pred = predict(f, d.X[test], h, coupled=coupled)
            wrong += int(np.sum(pred.labels != d.y[test].astype(bool)))
        reports.append(EvalReport(m=d.n, misclassified=wrong, error=wrong / d.n))
    return CVReport(model=model, k=k, reps=tuple(reports))


# Non-default prior, penalty, threshold and cycle cap: each reaches either the
# fold fits or the scoring of the held-out rows.
_CV_HYPER = Hyperparameters(a_y=0.0, b_y=2.0, kappa=0.05, c_y=0.4, eps=1e-3, max_cycles=3)


def _assert_fold_stats_match_numpy(X, y, k, seed):
    """Every fold of ``_fold_stats`` against ``numpy_stats`` on its training
    rows: equal counts and flags, values within 1e-12 relative to
    max(1, |value|)."""
    folds = stratified_folds(y, k, np.random.default_rng(seed))
    for fold, s in enumerate(_fold_stats(X, y, folds, k)):
        train = folds != fold
        counts, floored, ref = numpy_stats(X[train], y[train], 1e-12)
        assert (s.n, s.n1, s.n0) == counts
        np.testing.assert_array_equal(s.floored, floored)
        for field, want in ref.items():
            got = getattr(s, field)
            rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert rel.max() <= 1e-12, (field, rel.max())


def _cv_data(degenerate: bool) -> Dataset:
    """24 x 12, weak signal in columns 0-2; optionally column 5 constant and
    column 6 constant within group 1, so some variances hit the floor."""
    d = make_balanced(24, 12, seed=4, shift=1.0, k=3)
    if not degenerate:
        return d
    X = d.X.copy()
    X[:, 5] = 2.5
    X[d.y == 1, 6] = 0.7
    return Dataset(X, d.y)


class TestFoldMoments:
    """kfold_cv takes every fold's statistics from one pass of cell moments;
    it must score exactly like refitting each training fold from scratch."""

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("k, reps", [(4, 3), (24, 1)])
    @pytest.mark.parametrize("custom_h", [False, True])
    @pytest.mark.parametrize("model, coupled",
                             [("vlda", False), ("vqda", False), ("vlda", True)])
    def test_matches_per_fold_refit(self, model, coupled, custom_h, k, reps, degenerate):
        d = _cv_data(degenerate)
        h = _CV_HYPER if custom_h else Hyperparameters()
        args = dict(k=k, reps=reps, model=model, h=h, seed=7, coupled=coupled)
        assert kfold_cv(d, **args) == _per_fold_refit_cv(d, **args)

    @pytest.mark.parametrize("k", [4, 24])
    def test_floored_flags_match_direct_stats(self, k):
        d = _cv_data(degenerate=True)
        folds = stratified_folds(d.y, k, np.random.default_rng(3))
        for fold, s in enumerate(_fold_stats(d.X, d.y, folds, k)):
            train = folds != fold
            _, floored, _ = numpy_stats(d.X[train], d.y[train], 1e-12)
            np.testing.assert_array_equal(s.floored, floored)
            assert s.floored[5] and s.floored[6] and not s.floored[0]

    def test_peak_memory_two_folds(self):
        # In p-vectors: the centers (2), one fold's training moments (4)
        # while the other fold's are built into statistics (8), then the
        # fit and the scoring of one fold beside them.  Each held-out cell
        # becomes its training moments in place, and each fold's moments
        # and statistics are freed before the next fold's are built.
        n, p = 20, 100_000
        d = Dataset(*tiled_data(n, p, 0.0))
        assert traced_peak(lambda: kfold_cv(d, 2)) <= 22 * p * 8

    def test_no_per_fold_dataset_or_direct_stats(self, monkeypatch):
        # One pass per repetition: every row enters exactly one cell's
        # moments, each fold's statistics are built once from them, and no
        # fold gets a Dataset of its own.
        d = _cv_data(degenerate=False)
        rows, builds, datasets = [], [], []
        original_moments = evalharness._moments
        original_build = evalharness._stats_from_moments
        original_init = Dataset.__post_init__

        def counting_moments(X, cells):
            rows.extend(len(idx) for idx, _ in cells)
            return original_moments(X, cells)

        def counting_build(*args):
            builds.append(1)
            return original_build(*args)

        def counting_init(self):
            datasets.append(1)
            original_init(self)

        monkeypatch.setattr(evalharness, "_moments", counting_moments)
        monkeypatch.setattr(evalharness, "_stats_from_moments", counting_build)
        monkeypatch.setattr(Dataset, "__post_init__", counting_init)
        kfold_cv(d, k=4, reps=2, model="vqda", seed=1)
        assert sum(rows) == 2 * d.n
        assert len(builds) == 2 * 4
        assert datasets == []

    def test_undersized_training_fold_message(self):
        # Folds 1 and 2 each hold one of the two group-1 rows, so training
        # fold 1 keeps one group-1 row and seven group-0 rows.
        rng = np.random.default_rng(0)
        d = Dataset(rng.standard_normal((12, 3)), [0] * 10 + [1] * 2)
        message = "each group needs >= 2 observations, got n1=1, n0=7"
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            kfold_cv(d, k=3)
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            _per_fold_refit_cv(d, k=3)

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_fold_stats_match_numpy_at_offset(self, offset):
        rng = np.random.default_rng(11)
        y = np.repeat([0, 1], 50)
        X = offset + rng.standard_normal((100, 2000))
        X[y == 1, :20] += 1.5
        X[y == 1, 20:40] *= 2.0
        _assert_fold_stats_match_numpy(X, y, 5, seed=5)

    @pytest.mark.parametrize("n, p, k", [(60, 50, 5), (60, 50, 60), (300, 12, 2)])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_small_tiles_match_numpy(self, n, p, k, offset, monkeypatch):
        # With 64-element tiles every cell spans several column tiles; k = n
        # makes one-row cells (leave-one-out), and at 300 x 12 with k = 2
        # each cell of 75 rows spans 10 row blocks of 8 rows.
        monkeypatch.setattr(core, "_BLOCK", 64)
        _assert_fold_stats_match_numpy(*tiled_data(n, p, offset), k, seed=5)

    def test_folds_without_a_group(self):
        # 5 + 3 rows in 5 folds: the group-1 rows land in folds 0-2, so folds
        # 3 and 4 hold no group-1 row and their cells are empty.
        X, _ = tiled_data(8, 12, 0.0)
        y = np.array([0] * 5 + [1] * 3)
        folds = stratified_folds(y, 5, np.random.default_rng(5))
        assert set(folds[y == 1]) == {0, 1, 2}
        _assert_fold_stats_match_numpy(X, y, 5, seed=5)

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("n, p, k", [(60, 50, 5), (300, 12, 2)])
    def test_data_read_once_per_repetition(self, n, p, k, block, gathered, monkeypatch):
        # Each repetition gathers every element into exactly one tile, and
        # no numpy operation takes the whole matrix: the group centers come
        # from the cells.  Scoring reads the held-out rows apart from this.
        if block:
            monkeypatch.setattr(core, "_BLOCK", block)
        X, y = tiled_data(n, p, 1e3)
        folds = stratified_folds(y, k, np.random.default_rng(5))
        logged = read_logged(X)
        list(_fold_stats(logged, y, folds, k))
        assert sum(a * b for a, b in gathered) == n * p
        assert logged.ops == []
        gathered.clear()
        kfold_cv(Dataset(X, y), k, reps=3)
        assert sum(a * b for a, b in gathered) == 3 * n * p

    def test_small_block_splits_cells_into_tiles(self, einsum_shapes, monkeypatch):
        # One einsum per tile: 4 cells of 75 x 12 are one tile each at the
        # default block, and 10 row blocks by 2 column tiles at 64 elements.
        X, y = tiled_data(300, 12, 0.0)
        folds = stratified_folds(y, 2, np.random.default_rng(5))
        list(_fold_stats(X, y, folds, 2))
        assert einsum_shapes == [(75, 12)] * 4
        einsum_shapes.clear()
        monkeypatch.setattr(core, "_BLOCK", 64)
        list(_fold_stats(X, y, folds, 2))
        assert len(einsum_shapes) == 4 * 10 * 2
        assert {a * b for a, b in einsum_shapes} <= set(range(1, 65))


def test_negative_seed_rejected():
    d = make_balanced(20, 3, seed=0)
    with pytest.raises(DataValidationError, match="seed must be nonnegative, got -1"):
        kfold_cv(d, k=4, seed=-1)
    with pytest.raises(DataValidationError, match="seed must be nonnegative, got -1"):
        consistency_experiment(setting_from_index(1, p=60), (20,), 1, seed=-1)


@pytest.fixture(scope="module")
def small_result():
    s = SimSetting(
        mean_spec="custom",
        cov_spec="independence",
        signal_count=2,
        signal_mean=2.0,
        p=10,
        n_train=20,
    )
    return consistency_experiment(s, ns=(20, 60), reps=3, seed=5)


class TestConsistencyExperiment:
    def test_curve_shapes(self, small_result):
        for curve in (small_result.at_tau1, small_result.at_convergence):
            assert curve.ns == (20, 60)
            for field in ("E", "e0", "e1", "fp", "fn"):
                assert getattr(curve, field).shape == (2, 3)
            assert curve.median("E").shape == (2,)

    def test_soft_errors_decompose(self, small_result):
        for curve in (small_result.at_tau1, small_result.at_convergence):
            np.testing.assert_allclose(curve.E, curve.e0 + curve.e1, rtol=1e-12)

    def test_error_bounds(self, small_result):
        p, p1 = 10, 2
        for curve in (small_result.at_tau1, small_result.at_convergence):
            assert np.all(curve.e0 >= 0) and np.all(curve.e0 <= p - p1)
            assert np.all(curve.e1 >= 0) and np.all(curve.e1 <= p1)
            assert np.all(curve.fp <= p - p1) and np.all(curve.fn <= p1)

    def test_strong_signal_found_at_larger_n(self, small_result):
        # 3 reps is too few to assert monotone medians; bound them instead
        conv = small_result.at_convergence
        assert conv.median("fn")[-1] == 0.0
        assert conv.median("E")[-1] < 1.0

    def test_ns_validation(self):
        s = SimSetting(mean_spec="custom", cov_spec="independence",
                       signal_count=1, signal_mean=1.0, p=4)
        with pytest.raises(DataValidationError):
            consistency_experiment(s, ns=(), reps=2)
        with pytest.raises(DataValidationError):
            consistency_experiment(s, ns=(40, 40), reps=2)
        with pytest.raises(DataValidationError):
            consistency_experiment(s, ns=(60, 20), reps=2)
        with pytest.raises(DataValidationError):
            consistency_experiment(s, ns=(20, 40), reps=0)
        with pytest.raises(DataValidationError):
            consistency_experiment(s, ns=(20, 40), reps=2, model="ridge")

    def test_result_metadata(self, small_result):
        assert small_result.model == "vlda"
        assert small_result.reps == 3
        assert small_result.setting.signal_count == 2

    def test_stats_computed_once_per_replicate(self, monkeypatch):
        calls = []
        original = core._stats_from_moments

        def counting(path):
            def count(*args):
                calls.append(path)
                return original(*args)
            return count

        # Every setting's statistics are built from drawn moments in
        # evalharness; statistics of data would be built in core.
        monkeypatch.setattr(core, "_stats_from_moments", counting("data"))
        monkeypatch.setattr(evalharness, "_stats_from_moments", counting("moments"))
        for index in (1, 5):
            calls.clear()
            consistency_experiment(setting_from_index(index, p=200), (20, 40), 3)
            assert calls == ["moments"] * 6  # 2 training sizes x 3 replicates

    def test_hyper_threshold_respected(self):
        s = SimSetting(mean_spec="custom", cov_spec="independence",
                       signal_count=2, signal_mean=3.0, p=6, n_train=30)
        h = Hyperparameters(c_w=0.999999)
        res = consistency_experiment(s, ns=(30,), reps=2, h=h, seed=1)
        conv = res.at_convergence
        assert np.all(conv.fp == 0)  # nothing clears an absurd threshold


class TestConsistencyAtLargeN:
    """Replicates are drawn as statistics, so a cell costs O(p) at any n,
    and n reaches the regime where log b_gamma grows."""

    def test_memory_flat_in_n(self):
        # A data draw would hold an n-by-p matrix: 80 MB at n = 10**4, so the
        # first assertion stops a regression before a larger one is drawn.
        s = setting_from_index(1, p=1000)
        consistency_experiment(s, (20,), 1)  # first-call allocations
        peaks = []
        for n in (10**4, 10**5, 10**6):
            tracemalloc.start()
            try:
                consistency_experiment(s, (n,), 1, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] < min(1.1 * peaks[0], 10**4 * s.p * 8 / 10)

    def test_errors_vanish(self):
        res = consistency_experiment(setting_from_index(1, p=1000),
                                     (10**4, 10**5, 10**6), 5, seed=0)
        conv = res.at_convergence
        med = conv.median("E")
        assert med[0] > med[1] > med[2]
        assert np.all(conv.fp[-1] == 0) and np.all(conv.fn[-1] == 0)


def _standard_moments_plain(s, n0, n1, rng):
    """Two correlated normal rows and each group's Wishart diagonal, drawn
    the plain way: the rows by ``ar1_sample``'s column recursion or the
    one-factor form, the diagonals of AR(1) by the chain of squared norms
    and of uniform correlation by a noncentral chi-square given the factor."""
    p = s.p
    if s.cov_spec == "independence":
        return rng.standard_normal((2, p)), rng.chisquare([[n0 - 1], [n1 - 1]], size=(2, p))
    rho = {"block_ar1": 0.6, "global_ar1": 0.9, "uniform": 0.8}[s.cov_spec]
    if s.cov_spec == "uniform":
        g = rng.standard_normal((2, 1))
        a = np.sqrt(rho) * g + np.sqrt(1.0 - rho) * rng.standard_normal((2, p))
        W = []
        for m in (n0 - 1, n1 - 1):
            G = rng.chisquare(m)
            W.append((1.0 - rho) * rng.noncentral_chisquare(m, rho * G / (1.0 - rho), size=p))
        return a, np.array(W)
    block = 100 if s.cov_spec == "block_ar1" else p
    c2 = 1.0 - rho * rho
    a = rng.standard_normal((2, p))
    for j in range(1, p):
        if j % block:
            a[:, j] = rho * a[:, j - 1] + np.sqrt(c2) * a[:, j]
    chains = p // block
    W = np.zeros((2, chains, block))
    for g, m in enumerate((n0 - 1, n1 - 1)):
        W[g, :, 0] = rng.chisquare(m, size=chains)
        z = rng.standard_normal((chains, block - 1))
        v = rng.chisquare(m - 1, size=(chains, block - 1)) if m > 1 else np.zeros(z.shape)
        for i in range(1, block):
            h = rho * np.sqrt(W[g, :, i - 1]) + np.sqrt(c2) * z[:, i - 1]
            W[g, :, i] = h * h + c2 * v[:, i - 1]
    return a, W.reshape(2, p)


def _drawn_moment_stats(s, h):
    """Statistics and truth of a replicate, drawn the plain way from the
    exact laws of its group means and sums of squares."""
    rng = np.random.default_rng(s.seed)
    mu1, sigma0 = np.zeros(s.p), np.ones(s.p)
    if s.mean_spec == "s4":
        mu1[: s.p1] = rng.normal(0.5, 0.3, size=s.p1)
    else:
        mu1[: s.p1] = s.signal_mean if s.mean_spec == "custom" else MEAN_SPECS[s.mean_spec][1]
    sigma0[: s.p1] = 1.0 + s.delta_sigma
    n = s.n_train
    n1 = int(rng.binomial(n, 0.5))
    while not 2 <= n1 <= n - 2:
        n1 = int(rng.binomial(n, 0.5))
    n0 = n - n1
    z, chi2 = _standard_moments_plain(s, n0, n1, rng)
    mu0_hat = sigma0 * z[0] / np.sqrt(n0)
    mu1_hat = mu1 + z[1] / np.sqrt(n1)
    var0, var1 = sigma0 ** 2 * chi2[0] / n0, chi2[1] / n1
    var_pooled = (n1 * var1 + n0 * var0) / n
    diff = mu1_hat - mu0_hat
    var_total = var_pooled + (n1 * n0 / (n * n)) * diff * diff
    floor = core._VARIANCE_FLOOR
    floored = (var1 < floor) | (var0 < floor) | (var_pooled < floor)
    stats = core.VariableStats(
        (n1 * mu1_hat + n0 * mu0_hat) / n, mu1_hat, mu0_hat,
        *(np.maximum(v, floor) for v in (var_total, var_pooled, var1, var0)),
        floored, n, n1, n0)
    return stats, np.arange(s.p) < s.p1


def _reference_consistency(setting, ns, reps, h, seed, model, stats_of):
    """The experiment the plain way: each replicate's statistics from
    ``stats_of``, then a single-cycle fit and a converged fit, each started
    afresh from w = 1/2."""
    fields = ("E", "e0", "e1", "fp", "fn")
    out = {tag: {f: np.zeros((len(ns), reps)) for f in fields} for tag in ("tau1", "conv")}
    for i, n in enumerate(ns):
        for rep in range(reps):
            stats, truth = stats_of(replace(setting, n_train=n, n_valid=0, n_test=0,
                                            seed=derive_seed(seed, i, rep)), h)
            for tag, hp in (("tau1", replace(h, max_cycles=1)), ("conv", h)):
                w = rcvb._fit(stats, hp, model).w
                e0, e1 = float(w[~truth].sum()), float((1.0 - w[truth]).sum())
                sel = w > h.c_w
                out[tag]["e0"][i, rep], out[tag]["e1"][i, rep] = e0, e1
                out[tag]["E"][i, rep] = e0 + e1
                out[tag]["fp"][i, rep] = int(sel[~truth].sum())
                out[tag]["fn"][i, rep] = int((~sel[truth]).sum())
    return out


def _assert_curves_equal(res, ref, ns, reps):
    for tag, curve in (("tau1", res.at_tau1), ("conv", res.at_convergence)):
        assert curve.ns == ns
        for field in ("E", "e0", "e1", "fp", "fn"):
            got = getattr(curve, field)
            assert got.dtype == np.float64 and got.shape == (len(ns), reps)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          ref[tag][field].view(np.uint64))


_CUSTOM_HETERO = SimSetting(mean_spec="custom", signal_count=3, signal_mean=1.5, p=50,
                            delta_sigma=0.5)


class TestConsistencyParity:
    """``consistency_experiment`` draws each replicate's statistics and
    continues the converged fit from the single-cycle iterate; its curves
    must equal, bit for bit, those of the same draws made the plain way and
    fitted twice from scratch."""

    @pytest.mark.parametrize("model", ["vlda", "vqda"])
    @pytest.mark.parametrize("setting, ns, reps, h", [
        (setting_from_index(1, p=200), (20, 40), 2, Hyperparameters()),
        (setting_from_index(4, p=200), (20, 4000), 2, Hyperparameters()),
        (setting_from_index(5, p=200), (20, 40), 2, Hyperparameters()),
        (setting_from_index(8, p=200), (20, 60), 2, Hyperparameters()),
        (setting_from_index(11, p=200), (30,), 3, Hyperparameters()),
        (setting_from_index(16, p=200), (20, 40), 1, Hyperparameters(r=0.5)),
        (_CUSTOM_HETERO, (20, 80), 2, Hyperparameters()),
        (replace(_CUSTOM_HETERO, cov_spec="block_ar1", p=100), (20, 80), 2,
         Hyperparameters()),
        (_CUSTOM_HETERO, (4, 5), 3, Hyperparameters()),
        # the first step already meets eps, so there is no second run
        (setting_from_index(1, p=200), (20, 40), 2, Hyperparameters(eps=1e6)),
        (setting_from_index(5, p=200), (20, 40), 2, Hyperparameters(eps=1e6)),
        (setting_from_index(1, p=200), (20, 40), 2, Hyperparameters(max_cycles=1)),
        (setting_from_index(5, p=200), (20, 40), 2, Hyperparameters(max_cycles=1)),
        (setting_from_index(1, p=200), (20, 40), 2, Hyperparameters(max_cycles=2)),
        (setting_from_index(5, p=200), (20, 40), 2, Hyperparameters(max_cycles=2)),
        # n = 4 and 5: a group of two rows, whose sums of squares have m = 1
        (setting_from_index(9, p=200), (4, 5), 3, Hyperparameters()),
        (setting_from_index(13, p=200), (4, 5), 3, Hyperparameters()),
    ], ids=["s1", "s4_large_n", "s5", "s8", "s11", "s16_r", "custom_hetero",
            "custom_hetero_ar1", "label_redraws", "eps_met_at_once",
            "eps_met_at_once_s5", "max_cycles_1", "max_cycles_1_s5", "max_cycles_2",
            "max_cycles_2_s5", "ar1_two_rows", "uniform_two_rows"])
    def test_matches_drawn_statistics(self, setting, ns, reps, h, model):
        res = consistency_experiment(setting, ns, reps, h=h, seed=4, model=model)
        ref = _reference_consistency(setting, ns, reps, h, 4, model, _drawn_moment_stats)
        _assert_curves_equal(res, ref, ns, reps)

    def test_one_cycle_when_first_step_meets_eps(self, monkeypatch):
        cycles = []
        original = rcvb._batch_fixed_point

        def counting(x0, offset, a, log_b, h):
            out = original(x0, offset, a, log_b, h)
            cycles.append(out[1])
            return out

        monkeypatch.setattr(rcvb, "_batch_fixed_point", counting)
        consistency_experiment(setting_from_index(1, p=200), (20,), 2,
                               h=Hyperparameters(eps=1e6))
        assert cycles == [1, 1]

    def test_peak_memory_one_cell(self):
        # In p-vectors: the drawn moments (5) while the statistics are built
        # (8), then the statistics (7) beside the fixed point's vectors.
        s = SimSetting(mean_spec="custom", signal_count=20, signal_mean=4.0, p=100_000)
        peak = traced_peak(lambda: consistency_experiment(s, (50,), 1))
        assert peak <= 16 * s.p * 8

    def test_peak_memory_one_replicate(self):
        # tracemalloc sees numpy's buffers and Python's floats.  A replicate
        # is drawn as statistics, with no data, so at n = 10**5 the peak is a
        # small multiple of one p-vector: about 26 of them, for the AR(1)
        # chains' float lists and then the statistics and the fit.  Holding
        # the n = 50000 replicate while drawing the next would add about 8,
        # and a data draw 10**5 of them.
        s = SimSetting(mean_spec="custom", cov_spec="block_ar1", signal_count=20,
                       signal_mean=4.0, p=5000)
        consistency_experiment(s, (10, 20), 1)  # first-call allocations
        tracemalloc.start()
        try:
            consistency_experiment(s, (50000, 100000), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * (s.p * 8)
