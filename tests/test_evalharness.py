"""Metric definitions, stratified CV mechanics, consistency curves."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbda import (
    DataValidationError,
    Hyperparameters,
    SimSetting,
    classification_error,
    consistency_experiment,
    kfold_cv,
    mcc,
    selection_confusion,
    setting_from_index,
    stratified_folds,
)
from vbda import core

from conftest import make_balanced


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
        original = core._stats_from_arrays

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(core, "_stats_from_arrays", counting)
        consistency_experiment(setting_from_index(1, p=200), (20, 40), 3)
        assert len(calls) == 6  # 2 training sizes x 3 replicates

    def test_hyper_threshold_respected(self):
        s = SimSetting(mean_spec="custom", cov_spec="independence",
                       signal_count=2, signal_mean=3.0, p=6, n_train=30)
        h = Hyperparameters(c_w=0.999999)
        res = consistency_experiment(s, ns=(30,), reps=2, h=h, seed=1)
        conv = res.at_convergence
        assert np.all(conv.fp == 0)  # nothing clears an absurd threshold
