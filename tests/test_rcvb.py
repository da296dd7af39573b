"""Selection-probability updates and the three prediction rules."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vbda
from vbda import (
    DataValidationError,
    Dataset,
    FitState,
    Hyperparameters,
    compute_stats,
    expit,
    fit_vlda,
    fit_vqda,
    predict,
    predict_coupled_vlda,
    predict_vlda,
    predict_vqda,
    select_variables,
)
from vbda import core

from conftest import log_gaussian_density, make_balanced

# A block size that splits 40 new rows of p = 500 into tiles of 16 rows by
# 16 columns (3 row blocks, the last of 8 rows, by 32 column blocks, the last
# of 4 columns), so every tiled path runs many times.
SMALL_BLOCK = 256


def state_with_w(d: Dataset, w, model="vlda", h=None) -> FitState:
    """Hand-built state: pins w without running any update cycles."""
    h = h or Hyperparameters()
    return FitState(
        model=model,
        w=np.asarray(w, dtype=float),
        cycles_run=0,
        converged=True,
        final_delta=0.0,
        stats=compute_stats(d, h.variance_floor),
        hyper=h,
        columns=d.columns,
    )


class TestFit:
    def test_strong_signals_selected(self, toy_dataset):
        f = fit_vlda(toy_dataset)
        assert f.converged
        assert set(select_variables(f).tolist()) == {0, 1, 2}
        assert np.all(f.w[:3] > 0.9) and np.all(f.w[3:] < 0.5)

    def test_deterministic(self, toy_dataset):
        f1 = fit_vlda(toy_dataset)
        f2 = fit_vlda(toy_dataset)
        assert np.array_equal(f1.w, f2.w)
        assert f1.cycles_run == f2.cycles_run

    def test_single_cycle_cap(self, toy_dataset):
        f = fit_vlda(toy_dataset, Hyperparameters(max_cycles=1))
        assert f.cycles_run == 1

    def test_huge_eps_converges_immediately(self, toy_dataset):
        f = fit_vlda(toy_dataset, Hyperparameters(eps=1e6))
        assert f.cycles_run == 1 and f.converged

    def test_not_converged_flag(self, toy_dataset):
        # near-boundary weights keep drifting past a one-cycle budget
        f = fit_vlda(toy_dataset, Hyperparameters(max_cycles=1, eps=1e-30))
        assert not f.converged
        assert f.final_delta > 1e-30

    def test_vqda_differs_on_heteroskedastic_data(self, rng):
        y = np.array([0, 1] * 30)
        X = rng.standard_normal((60, 6))
        X[y == 0, :2] *= 4.0  # variance signal, no mean signal
        d = Dataset(X, y)
        wl = fit_vlda(d).w
        wq = fit_vqda(d).w
        assert np.all(wq[:2] > 0.9)
        assert not np.allclose(wl[:2], wq[:2])

    def test_requires_trainable_dataset(self):
        d = Dataset(np.ones((4, 2)), np.array([1, 1, 1, 0]))
        with pytest.raises(DataValidationError):
            fit_vlda(d)

    def test_carries_columns(self, rng):
        d = make_balanced(20, 3, seed=5)
        d = Dataset(d.X, d.y, columns=("a", "b", "c"))
        assert fit_vlda(d).columns == ("a", "b", "c")

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_weights_stay_in_unit_interval(self, seed):
        d = make_balanced(12, 5, seed=seed, shift=1.0, k=2)
        for fitter in (fit_vlda, fit_vqda):
            f = fitter(d)
            assert np.all(f.w >= 0.0) and np.all(f.w <= 1.0)
            assert f.cycles_run >= 1

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_column_permutation_equivariance(self, seed):
        d = make_balanced(16, 6, seed=seed, shift=1.5, k=2)
        perm = np.random.default_rng(seed).permutation(6)
        f = fit_vlda(d)
        f_perm = fit_vlda(Dataset(d.X[:, perm], d.y))
        np.testing.assert_allclose(f_perm.w, f.w[perm], rtol=1e-10, atol=1e-12)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_row_order_irrelevant(self, seed):
        d = make_balanced(16, 4, seed=seed, shift=1.0, k=1)
        perm = np.random.default_rng(seed + 1).permutation(d.n)
        f1 = fit_vlda(d)
        f2 = fit_vlda(Dataset(d.X[perm], d.y[perm]))
        np.testing.assert_allclose(f2.w, f1.w, rtol=1e-10, atol=1e-12)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 20.0))
    def test_vlda_selection_scale_invariant(self, seed, c):
        d = make_balanced(16, 5, seed=seed, shift=1.2, k=2)
        f1 = fit_vlda(d)
        f2 = fit_vlda(Dataset(c * d.X, d.y))
        np.testing.assert_allclose(f2.w, f1.w, rtol=1e-6, atol=1e-9)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_label_swap_leaves_w_unchanged(self, seed):
        d = make_balanced(14, 4, seed=seed, shift=1.0, k=2)
        for fitter in (fit_vlda, fit_vqda):
            f1 = fitter(d)
            f2 = fitter(Dataset(d.X, 1 - d.y))
            np.testing.assert_allclose(f2.w, f1.w, rtol=1e-10, atol=1e-12)


class TestFitState:
    def test_validation(self, toy_dataset):
        s = compute_stats(toy_dataset)
        with pytest.raises(DataValidationError):
            FitState(model="nope", w=np.full(8, 0.5), cycles_run=1, converged=True,
                     final_delta=0.0, stats=s, hyper=Hyperparameters())
        with pytest.raises(DataValidationError):
            FitState(model="vlda", w=np.full(8, 1.5), cycles_run=1, converged=True,
                     final_delta=0.0, stats=s, hyper=Hyperparameters())
        with pytest.raises(DataValidationError):
            FitState(model="vlda", w=np.full(3, 0.5), cycles_run=1, converged=True,
                     final_delta=0.0, stats=s, hyper=Hyperparameters())


class TestSelectVariables:
    def test_threshold_is_strict(self, toy_dataset):
        f = state_with_w(toy_dataset, [0.5, 0.5001, 0.4999, 1.0, 0.0, 0.5, 0.5, 0.5])
        assert select_variables(f).tolist() == [1, 3]

    def test_custom_threshold(self, toy_dataset):
        f = state_with_w(toy_dataset, np.linspace(0.0, 1.0, 8))
        assert select_variables(f, 0.9).tolist() == [7]


class TestPredictVlda:
    def test_orientation_toward_group_one(self, rng):
        # single separating column: far-right points belong to group 1
        d = make_balanced(40, 1, seed=3, shift=3.0, k=1)
        f = state_with_w(d, [1.0])
        s = f.stats
        hi = np.array([[s.mu1_hat[0] + 1.0]])
        lo = np.array([[s.mu0_hat[0] - 1.0]])
        assert predict_vlda(f, hi).labels[0]
        assert not predict_vlda(f, lo).labels[0]

    def test_midpoint_balanced_is_half(self):
        d = make_balanced(20, 2, seed=11, shift=2.0, k=2)
        f = state_with_w(d, [1.0, 1.0])
        mid = 0.5 * (f.stats.mu0_hat + f.stats.mu1_hat)
        p = predict_vlda(f, mid[None, :])
        assert p.y_tilde[0] == pytest.approx(0.5, abs=1e-12)
        assert not p.labels[0]  # threshold is strict

    def test_prior_only_when_w_zero(self):
        # 90 vs 10 labels, unit pseudo-counts: y_tilde = 91/102 everywhere
        rng = np.random.default_rng(4)
        y = np.array([1] * 90 + [0] * 10)
        d = Dataset(rng.standard_normal((100, 3)), y)
        f = state_with_w(d, np.zeros(3))
        p = predict_vlda(f, rng.standard_normal((5, 3)))
        np.testing.assert_allclose(p.y_tilde, 91.0 / 102.0, rtol=1e-14)

    def test_zero_pseudocounts_give_frequentist_logit(self):
        d = make_balanced(30, 2, seed=9, shift=1.0, k=1)
        h0 = Hyperparameters(a_y=0.0, b_y=0.0)
        f = state_with_w(d, [1.0, 1.0], h=h0)
        s = f.stats
        x = np.array([[0.3, -0.2]])
        diff = (s.mu1_hat - s.mu0_hat) / s.var_pooled
        disc = float((x[0] - 0.5 * (s.mu0_hat + s.mu1_hat)) @ diff)
        logit = math.log(s.n1 / s.n0) + (1.0 + 1.0 / s.n) * disc
        assert predict_vlda(f, x).y_tilde[0] == pytest.approx(expit(logit), rel=1e-13)

    def test_rejects_wrong_width(self, toy_dataset):
        f = fit_vlda(toy_dataset)
        with pytest.raises(DataValidationError):
            predict_vlda(f, np.zeros((2, 5)))

    def test_accepts_single_row_vector(self, toy_dataset):
        f = fit_vlda(toy_dataset)
        p = predict_vlda(f, np.zeros(8))
        assert p.y_tilde.shape == (1,)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_label_swap_flips_scores(self, seed):
        # relabeling groups maps y_tilde to 1 - y_tilde under symmetric priors
        d = make_balanced(16, 3, seed=seed, shift=1.0, k=1)
        x = np.random.default_rng(seed + 7).standard_normal((4, 3))
        f1 = fit_vlda(d)
        f2 = fit_vlda(Dataset(d.X, 1 - d.y))
        p1 = predict_vlda(f1, x)
        p2 = predict_vlda(f2, x)
        np.testing.assert_allclose(p2.y_tilde, 1.0 - p1.y_tilde, rtol=1e-9, atol=1e-12)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 20.0))
    def test_scale_invariant_scores(self, seed, c):
        d = make_balanced(16, 3, seed=seed, shift=1.5, k=2)
        x = np.random.default_rng(seed + 1).standard_normal((3, 3))
        p1 = predict_vlda(fit_vlda(d), x)
        p2 = predict_vlda(fit_vlda(Dataset(c * d.X, d.y)), c * x)
        np.testing.assert_allclose(p2.y_tilde, p1.y_tilde, rtol=1e-5, atol=1e-8)


class TestPredictVqda:
    def test_midpoint_balanced_equal_variance_is_half(self):
        # symmetric construction: mirrored samples around 0
        base = np.array([0.2, 0.9, 1.7, 2.1])
        col = np.concatenate([base, -base])
        y = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        d = Dataset(col[:, None], y)
        f = state_with_w(d, [1.0], model="vqda")
        p = predict_vqda(f, np.array([[0.0]]))
        assert p.y_tilde[0] == pytest.approx(0.5, abs=1e-12)

    def test_group_count_term(self):
        # zero weights leave the prior log(n1/n0) only
        rng = np.random.default_rng(8)
        y = np.array([1] * 30 + [0] * 10)
        d = Dataset(rng.standard_normal((40, 2)), y)
        f = state_with_w(d, np.zeros(2), model="vqda")
        p = predict_vqda(f, np.zeros((1, 2)))
        assert p.y_tilde[0] == pytest.approx(expit(math.log(3.0)), rel=1e-13)

    def test_variance_signal_classifies(self, rng):
        y = np.array([0, 1] * 40)
        X = rng.standard_normal((80, 4))
        X[y == 0, :2] *= 5.0
        d = Dataset(X, y)
        f = fit_vqda(d)
        wide = np.array([[8.0, -7.0, 0.0, 0.0]])
        narrow = np.array([[0.1, -0.1, 0.0, 0.0]])
        assert not predict_vqda(f, wide).labels[0]
        assert predict_vqda(f, narrow).labels[0]

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_score_matches_density_form(self, offset, monkeypatch):
        # Reference: the rule as written in the docstring, one Gaussian log
        # density per group and element.  Scored in one block and in many.
        rng = np.random.default_rng(12)
        y = np.repeat([0, 1], 30)
        X = offset + rng.standard_normal((60, 500))
        X[y == 1, :20] += 1.0
        X[y == 0, 20:40] *= 3.0
        f = fit_vqda(Dataset(X, y))
        x = offset + rng.standard_normal((40, 500))
        s = f.stats
        g1 = math.lgamma((s.n1 + 1) / 2.0) - math.lgamma(s.n1 / 2.0)
        g0 = math.lgamma((s.n0 + 1) / 2.0) - math.lgamma(s.n0 / 2.0)
        loglik_diff = (log_gaussian_density(x, s.mu1_hat, s.var1)
                       - log_gaussian_density(x, s.mu0_hat, s.var0))
        want = math.log(s.n1 / s.n0) + f.w.sum() * (g1 - g0) + 0.5 * (loglik_diff @ f.w)
        for block in (core._BLOCK, SMALL_BLOCK):
            monkeypatch.setattr(core, "_BLOCK", block)
            got = predict_vqda(f, x).score
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_label_swap_flips_scores(self, seed):
        d = make_balanced(16, 3, seed=seed, shift=1.0, k=1)
        x = np.random.default_rng(seed + 7).standard_normal((4, 3))
        p1 = predict_vqda(fit_vqda(d), x)
        p2 = predict_vqda(fit_vqda(Dataset(d.X, 1 - d.y)), x)
        np.testing.assert_allclose(p2.y_tilde, 1.0 - p1.y_tilde, rtol=1e-9, atol=1e-12)


class TestPredictCoupled:
    def test_single_point_equals_decoupled(self, toy_dataset):
        f = fit_vlda(toy_dataset)
        x = np.array([[0.4, -1.0, 2.0, 0.0, 0.1, 0.0, 0.3, -0.2]])
        solo = predict_vlda(f, x)
        coupled = predict_coupled_vlda(f, x)
        assert coupled.converged
        assert coupled.y_tilde[0] == pytest.approx(solo.y_tilde[0], abs=1e-10)

    def test_prior_fixed_point_value(self):
        # 90/10 labels, zero weights, one point: expit(log(91/11)) = 91/102
        rng = np.random.default_rng(4)
        y = np.array([1] * 90 + [0] * 10)
        d = Dataset(rng.standard_normal((100, 2)), y)
        f = state_with_w(d, np.zeros(2))
        p = predict_coupled_vlda(f, np.zeros((1, 2)))
        assert p.y_tilde[0] == pytest.approx(91.0 / 102.0, abs=1e-10)

    def test_batch_coupling_shifts_scores(self):
        # a one-sided batch drags the shared label frequency upward
        d = make_balanced(30, 1, seed=21, shift=3.0, k=1)
        f = fit_vlda(d)
        high = np.full((40, 1), f.stats.mu1_hat[0])
        solo = predict_vlda(f, high[:1])
        batch = predict_coupled_vlda(f, high)
        assert batch.y_tilde[0] > solo.y_tilde[0]

    def test_small_batch_close_to_decoupled_at_large_n(self):
        # m = 10 rows against n = 10^4: the count perturbation is at most
        # (m-1)/n on the logit, so scores match the decoupled rule to 1e-3
        d = make_balanced(10000, 2, seed=2, shift=2.0, k=2)
        f = fit_vlda(d)
        x = np.random.default_rng(3).standard_normal((10, 2))
        np.testing.assert_allclose(
            predict_coupled_vlda(f, x).y_tilde,
            predict_vlda(f, x).y_tilde,
            atol=1e-3,
        )

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1))
    def test_batch_permutation_equivariance(self, seed):
        d = make_balanced(20, 3, seed=seed, shift=1.5, k=1)
        f = fit_vlda(d)
        x = np.random.default_rng(seed + 13).standard_normal((8, 3))
        perm = np.random.default_rng(seed + 14).permutation(8)
        p_all = predict_coupled_vlda(f, x)
        p_perm = predict_coupled_vlda(f, x[perm])
        np.testing.assert_allclose(p_perm.y_tilde, p_all.y_tilde[perm],
                                   rtol=1e-9, atol=1e-12)


class TestPredictDispatcher:
    def test_routes_by_model(self, toy_dataset):
        x = np.zeros((2, 8))
        fl = fit_vlda(toy_dataset)
        fq = fit_vqda(toy_dataset)
        assert predict(fl, x).y_tilde == pytest.approx(predict_vlda(fl, x).y_tilde)
        assert predict(fq, x).y_tilde == pytest.approx(predict_vqda(fq, x).y_tilde)

    def test_coupled_only_for_linear_model(self, toy_dataset):
        fq = fit_vqda(toy_dataset)
        with pytest.raises(DataValidationError):
            predict(fq, np.zeros((1, 8)), coupled=True)

    def test_labels_use_cy_threshold(self, toy_dataset):
        f = fit_vlda(toy_dataset)
        # probe close to the decision surface so y_tilde is interior
        mid = 0.5 * (f.stats.mu0_hat + f.stats.mu1_hat)
        x = (mid - 0.02 * (f.stats.mu1_hat - f.stats.mu0_hat))[None, :]
        y_tilde = predict(f, x).y_tilde[0]
        assert 0.001 < y_tilde < 0.999
        lo = predict(f, x, replace(f.hyper, c_y=0.001))
        hi = predict(f, x, replace(f.hyper, c_y=0.999))
        assert lo.labels[0] and not hi.labels[0]


def _wide_fit(offset: float, model: str = "vlda"):
    """60 x 500 training rows at a common column offset, with mean signal in
    columns 0-19 and variance signal in 20-39, and 40 new rows."""
    rng = np.random.default_rng(21)
    y = np.repeat([0, 1], 30)
    X = offset + rng.standard_normal((60, 500))
    X[y == 1, :20] += 1.0
    X[y == 0, 20:40] *= 3.0
    fit = fit_vlda if model == "vlda" else fit_vqda
    return fit(Dataset(X, y)), offset + rng.standard_normal((40, 500))


def _whole_matrix_lda(f: FitState, x: np.ndarray) -> np.ndarray:
    # The whole-matrix form of (1 + 1/n) LDA(x): one m-by-p array X - mid.
    s = f.stats
    mid = 0.5 * (s.mu1_hat + s.mu0_hat)
    return (1.0 + 1.0 / s.n) * ((x - mid) @ (f.w * (s.mu1_hat - s.mu0_hat) / s.var_pooled))


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


class TestBlockedScorer:
    """predict works through the rows in tiles of at most core._BLOCK
    elements; shrinking the tiles must not change what it computes."""

    def test_small_block_splits_into_tiles(self, monkeypatch):
        # Each tile is checked once for non-finite values: 40 x 500 new rows
        # make 3 row blocks by 32 column blocks under SMALL_BLOCK, and one
        # tile at the default block.
        f, x = _wide_fit(0.0)
        calls = []
        isfinite = np.isfinite

        def counting_isfinite(tile):
            calls.append(tile.shape)
            return isfinite(tile)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        predict_vlda(f, x)
        assert calls == [(40, 500)]
        calls.clear()
        monkeypatch.setattr(core, "_BLOCK", SMALL_BLOCK)
        predict_vlda(f, x)
        assert len(calls) == 3 * 32 and calls[0] == (16, 16) and calls[-1] == (8, 4)

    @pytest.mark.parametrize("block", [SMALL_BLOCK, 16])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_vlda_matches_whole_matrix_form(self, offset, block, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", block)
        f, x = _wide_fit(offset)
        s, h = f.stats, f.hyper
        want = math.log((s.n1 + h.a_y) / (s.n0 + h.b_y)) + _whole_matrix_lda(f, x)
        assert _rel_err(predict_vlda(f, x).score, want) <= 1e-13

    @pytest.mark.parametrize("block", [SMALL_BLOCK, 16])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_coupled_matches_whole_matrix_form(self, offset, block, monkeypatch):
        # At the returned labels, each score is the batch log-odds term plus
        # the whole-matrix discriminant.
        monkeypatch.setattr(core, "_BLOCK", block)
        f, x = _wide_fit(offset)
        s, h = f.stats, f.hyper
        p = predict_coupled_vlda(f, x)
        assert p.converged
        others = p.y_tilde.sum() - p.y_tilde
        want = (np.log(h.a_y + s.n1 + others) - np.log(h.b_y + s.n0 + x.shape[0] - 1 - others)
                + _whole_matrix_lda(f, x))
        assert _rel_err(p.score, want) <= 1e-13

    @pytest.mark.parametrize("rule", [predict_vlda, predict_vqda, predict_coupled_vlda])
    @pytest.mark.parametrize("where, bad", [((0, 0), np.inf), ((-1, -1), np.nan)])
    def test_non_finite_rejected_in_any_block(self, rule, where, bad, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", SMALL_BLOCK)
        f, x = _wide_fit(0.0)
        x[where] = bad
        with pytest.raises(DataValidationError, match="new observations contain non-finite values"):
            rule(f, x)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [core._BLOCK, SMALL_BLOCK])
    @pytest.mark.parametrize("cells, big", [
        ((-1, -1), 1e160),
        ((-1, slice(None)), 1e160),  # squared terms of both signs: inf - inf
        ((0, 0), 1.5e308),
    ], ids=["last_cell", "whole_row", "near_max"])
    def test_vqda_rejects_values_too_large_to_square(self, cells, big, block, monkeypatch):
        # Training rejects such values; VQDA scoring does too, with no numpy
        # warning, in whichever tile the value falls.
        monkeypatch.setattr(core, "_BLOCK", block)
        f, x = _wide_fit(0.0, "vqda")
        x[cells] = big
        with pytest.raises(DataValidationError,
                           match="^new observations contain values too large to square$"):
            predict_vqda(f, x)

    @pytest.mark.filterwarnings("error")
    def test_vlda_scores_a_value_vqda_cannot_square(self):
        # The linear rule never squares a cell, so it still scores the row.
        f, x = _wide_fit(0.0)
        x[-1, -1] = 1e160
        assert np.isfinite(predict_vlda(f, x).score).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coupled", [False, True], ids=["vlda", "coupled"])
    @pytest.mark.parametrize("big", [(1.5e308,), (1.5e308, -1.5e308), (3.55e307,)],
                             ids=["inf", "inf_minus_inf", "scaled_past_max"])
    def test_linear_rules_reject_values_too_large_to_score(self, big, coupled):
        # Columns 0-1 carry linear weights of about 5 and 3, so a cell near the
        # float maximum overflows the matvec; at 3.55e307 the matvec is finite
        # (1.78e308) and only its (1 + 1/n) scaling overflows.
        f = fit_vlda(make_balanced(40, 5, seed=0, shift=3.0, k=2))
        x = np.random.default_rng(1).standard_normal((3, 5))
        x[-1, :len(big)] = big
        with pytest.raises(DataValidationError,
                           match="^new observations contain values too large to score$"):
            predict(f, x, coupled=coupled)

    @pytest.mark.parametrize("m", [1, 300])
    def test_row_blocks_match_whole_matrix_form(self, m, monkeypatch):
        # 300 rows of 500 columns make 19 row blocks; a single row one tile
        # row of 256 columns, then a last one of 244.
        monkeypatch.setattr(core, "_BLOCK", SMALL_BLOCK)
        f, _ = _wide_fit(1e3)
        x = 1e3 + np.random.default_rng(4).standard_normal((m, 500))
        s, h = f.stats, f.hyper
        want = math.log((s.n1 + h.a_y) / (s.n0 + h.b_y)) + _whole_matrix_lda(f, x)
        assert _rel_err(predict_vlda(f, x).score, want) <= 1e-13

    def test_dataset_values_checked_when_scored(self, monkeypatch):
        # Dataset.X is a read-only view; the caller's array stays writable.
        monkeypatch.setattr(core, "_BLOCK", SMALL_BLOCK)
        f, x = _wide_fit(0.0)
        d = Dataset(x)
        x[-1, -1] = np.nan
        with pytest.raises(DataValidationError, match="new observations contain non-finite values"):
            predict(f, d)

    @pytest.mark.parametrize("model, coupled", [("vlda", False), ("vqda", False), ("vlda", True)])
    def test_dataset_and_array_score_alike(self, model, coupled, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", SMALL_BLOCK)
        f, x = _wide_fit(1e3, model)
        a = predict(f, x, coupled=coupled)
        b = predict(f, Dataset(x), coupled=coupled)
        np.testing.assert_array_equal(a.score, b.score)
        np.testing.assert_array_equal(a.labels, b.labels)
