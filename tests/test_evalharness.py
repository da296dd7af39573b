"""Metric definitions, stratified CV mechanics, consistency curves."""

import re

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
    select_variables,
    selection_confusion,
    setting_from_index,
    stratified_folds,
)
from vbda import core, evalharness, rcvb
from vbda.evalharness import _fold_stats, _mcc_from_counts
from vbda.simgen import derive_seed

from conftest import make_balanced, numpy_stats, tiled_data


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
            assert r.mcc is None and r.tp is None

    def test_truth_mask_fills_selection_fields(self):
        d = make_balanced(40, 6, seed=1, shift=5.0, k=2)
        truth = np.array([True, True, False, False, False, False])
        rep = kfold_cv(d, k=4, reps=1, gamma_true=truth, seed=0)
        r = rep.reps[0]
        assert r.mcc is not None and r.mcc > 0.9
        assert r.tp == pytest.approx(2.0)
        assert r.fn == pytest.approx(0.0)

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
            for fold, stats in enumerate(_fold_stats(d.X, d.y, folds, 4, h.variance_floor)):
                test = np.flatnonzero(folds == fold)
                pred = predict(rcvb._fit(stats, h, model), d.X[test], h, coupled=coupled)
                wrong += int(np.sum(pred.labels != d.y[test]))
            want.append(wrong)
        got = kfold_cv(d, k=4, reps=2, model=model, seed=5, coupled=coupled).misclassified
        assert got.tolist() == want
        assert 0 < sum(want) < 2 * d.n


def _per_fold_refit_cv(d, k, reps=1, model="vlda", seed=0, gamma_true=None,
                       coupled=False):
    """Reference CV: a fresh Dataset and a full fit for every training fold."""
    h = Hyperparameters()
    fitter = {"vlda": fit_vlda, "vqda": fit_vqda}[model]
    truth = None if gamma_true is None else np.asarray(gamma_true, dtype=bool)
    reports = []
    for rep in range(reps):
        folds = stratified_folds(d.y, k, np.random.default_rng(derive_seed(seed, rep)))
        wrong = 0
        confusion = np.zeros(4)
        for fold in range(k):
            test, train = folds == fold, folds != fold
            f = fitter(Dataset(d.X[train], d.y[train], columns=d.columns), h)
            pred = predict(f, d.X[test], h, coupled=coupled)
            wrong += int(np.sum(pred.labels != d.y[test].astype(bool)))
            if truth is not None:
                confusion += selection_confusion(select_variables(f, h.c_w), truth)
        sel = dict.fromkeys(("mcc", "tp", "tn", "fp", "fn"))
        if truth is not None:
            counts = (confusion / k).tolist()
            sel = dict(zip(("tp", "tn", "fp", "fn"), counts), mcc=_mcc_from_counts(*counts))
        reports.append(EvalReport(m=d.n, misclassified=wrong, error=wrong / d.n, **sel))
    return CVReport(model=model, k=k, reps=tuple(reports))


def _assert_fold_stats_match_numpy(X, y, k, seed):
    """Every fold of ``_fold_stats`` against ``numpy_stats`` on its training
    rows: equal counts and flags, values within 1e-12 relative to
    max(1, |value|)."""
    folds = stratified_folds(y, k, np.random.default_rng(seed))
    for fold, s in enumerate(_fold_stats(X, y, folds, k, 1e-12)):
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
    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("model, coupled",
                             [("vlda", False), ("vqda", False), ("vlda", True)])
    def test_matches_per_fold_refit(self, model, coupled, with_truth, k, reps, degenerate):
        d = _cv_data(degenerate)
        truth = np.arange(12) < 3 if with_truth else None
        args = dict(k=k, reps=reps, model=model, seed=7, gamma_true=truth, coupled=coupled)
        assert kfold_cv(d, **args) == _per_fold_refit_cv(d, **args)

    @pytest.mark.parametrize("k", [4, 24])
    def test_floored_flags_match_direct_stats(self, k):
        d = _cv_data(degenerate=True)
        folds = stratified_folds(d.y, k, np.random.default_rng(3))
        for fold, s in enumerate(_fold_stats(d.X, d.y, folds, k, 1e-12)):
            train = folds != fold
            _, floored, _ = numpy_stats(d.X[train], d.y[train], 1e-12)
            np.testing.assert_array_equal(s.floored, floored)
            assert s.floored[5] and s.floored[6] and not s.floored[0]

    def test_no_per_fold_dataset_or_direct_stats(self, monkeypatch):
        # One pass per repetition: every row enters exactly one cell's
        # moments, each fold's statistics are built once from them, and no
        # fold gets a Dataset of its own.
        d = _cv_data(degenerate=False)
        rows, builds, datasets = [], [], []
        original_moments = evalharness._moments
        original_build = evalharness._stats_from_moments
        original_init = Dataset.__post_init__

        def counting_moments(X, cells, centers):
            rows.extend(len(idx) for idx, _ in cells)
            return original_moments(X, cells, centers)

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

    def test_small_block_splits_cells_into_tiles(self, einsum_shapes, monkeypatch):
        # One einsum per tile: 4 cells of 75 x 12 are one tile each at the
        # default block, and 10 row blocks by 2 column tiles at 64 elements.
        X, y = tiled_data(300, 12, 0.0)
        folds = stratified_folds(y, 2, np.random.default_rng(5))
        list(_fold_stats(X, y, folds, 2, 1e-12))
        assert einsum_shapes == [(75, 12)] * 4
        einsum_shapes.clear()
        monkeypatch.setattr(core, "_BLOCK", 64)
        list(_fold_stats(X, y, folds, 2, 1e-12))
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

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(core, "_stats_from_moments", counting)
        consistency_experiment(setting_from_index(1, p=200), (20, 40), 3)
        assert len(calls) == 6  # 2 training sizes x 3 replicates

    def test_hyper_threshold_respected(self):
        s = SimSetting(mean_spec="custom", cov_spec="independence",
                       signal_count=2, signal_mean=3.0, p=6, n_train=30)
        h = Hyperparameters(c_w=0.999999)
        res = consistency_experiment(s, ns=(30,), reps=2, h=h, seed=1)
        conv = res.at_convergence
        assert np.all(conv.fp == 0)  # nothing clears an absurd threshold
