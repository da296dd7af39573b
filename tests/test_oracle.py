"""Exact enumeration and numeric-maximization oracles.

The brute-force reference below recomputes the enumeration with plain
Python loops, scalar math, and an explicit two-sided sum, sharing no code
with the vectorized implementation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vbda
from vbda import (
    CapacityError,
    Dataset,
    Hyperparameters,
    compute_stats,
    exact_posterior,
    lambda_lrt_lda,
    lambda_lrt_qda,
)
from vbda.oracle import _lambda_bayes, _stats_with_new

from conftest import make_balanced
from numeric_mle import numeric_lambda_lrt, numeric_mle_check

X_HAND = np.array([[1.0], [2.0], [3.0], [4.0], [6.0], [8.0]])
Y_HAND = np.array([1, 1, 1, 0, 0, 0])


def log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def brute_force_posterior(d, x_new, h, model="vlda"):
    """Independent enumeration over (gamma, y_new) with scalar arithmetic."""
    n, p = d.n, d.p
    b_gamma = math.exp(vbda.log_b_gamma(n, p, h.r, h.kappa))
    lam = {y_new: _lambda_bayes(model, s, n).tolist()
           for y_new, s in enumerate(_stats_with_new(d, x_new))}
    weights = {}
    for gamma in itertools.product((0, 1), repeat=p):
        k = sum(gamma)
        log_beta_gamma = log_beta(h.a_gamma + k, b_gamma + p - k)
        for y_new in (0, 1):
            n1 = d.n1 + y_new
            n0 = d.n0 + 1 - y_new
            log_beta_y = log_beta(h.a_y + n1, h.b_y + n0)
            s = sum(g * l for g, l in zip(gamma, lam[y_new]))
            weights[(gamma, y_new)] = log_beta_y + log_beta_gamma + 0.5 * s
    top = max(weights.values())
    total = sum(math.exp(v - top) for v in weights.values())
    marg_gamma = [0.0] * p
    marg_y = 0.0
    for (gamma, y_new), lw in weights.items():
        prob = math.exp(lw - top) / total
        if y_new == 1:
            marg_y += prob
        for j in range(p):
            if gamma[j]:
                marg_gamma[j] += prob
    return np.array(marg_gamma), marg_y


class TestLambdaBayes:
    def test_lda_hand_value(self):
        d = Dataset(X_HAND, Y_HAND)
        # with-new ratio statistic 7 log(976/469), minus log(n+1)
        lam = _lambda_bayes("vlda", _stats_with_new(d, np.array([5.0]))[1], d.n)
        assert lam[0] == pytest.approx(3.184108576712379, rel=1e-12)

    def test_qda_hand_value(self):
        d = Dataset(X_HAND, Y_HAND)
        lam = _lambda_bayes("vqda", _stats_with_new(d, np.array([5.0]))[1], d.n)
        assert lam[0] == pytest.approx(1.416907382835751, rel=1e-11)

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.integers(0, 1))
    def test_lda_is_shifted_with_new_ratio(self, seed, y_new):
        d = make_balanced(12, 3, seed=seed, shift=1.0, k=1)
        x_new = np.random.default_rng(seed + 5).standard_normal(3)
        s = _stats_with_new(d, x_new)[y_new]
        expected = lambda_lrt_lda(s, d.n) - math.log(d.n + 1.0)
        np.testing.assert_allclose(
            _lambda_bayes("vlda", s, d.n), expected, rtol=1e-12
        )

    @pytest.mark.invariant
    @given(st.integers(0, 2**31 - 1), st.integers(0, 1))
    def test_qda_close_to_ratio_minus_two_logs(self, seed, y_new):
        # large-n behavior: lambda_bayes ~ lambda_lrt - 2 log(n+1)
        d = make_balanced(400, 2, seed=seed, shift=1.0, k=1)
        x_new = np.random.default_rng(seed + 5).standard_normal(2)
        s = _stats_with_new(d, x_new)[y_new]
        lam_ratio = lambda_lrt_qda(s, d.n, s.n1, s.n0)
        lam_bayes = _lambda_bayes("vqda", s, d.n)
        gap = lam_bayes - (lam_ratio - 2.0 * math.log(d.n + 1.0))
        assert np.all(np.abs(gap) < 0.05)


class TestExactPosterior:
    def test_matches_brute_force_vlda(self):
        h = Hyperparameters()
        d = make_balanced(20, 4, seed=3, shift=2.0, k=2)
        x_new = np.array([0.5, -0.1, 0.3, 0.0])
        ep = exact_posterior(d, x_new, h)
        marg, y_marg = brute_force_posterior(d, x_new, h)
        np.testing.assert_allclose(ep.gamma_marginals, marg, rtol=1e-9, atol=1e-12)
        assert ep.y_marginal == pytest.approx(y_marg, rel=1e-9)

    def test_matches_brute_force_vqda(self):
        h = Hyperparameters()
        rng = np.random.default_rng(9)
        y = np.array([0, 1] * 10)
        X = rng.standard_normal((20, 3))
        X[y == 0, 0] *= 3.0
        d = Dataset(X, y)
        x_new = rng.standard_normal(3)
        ep = exact_posterior(d, x_new, h, model="vqda")
        marg, y_marg = brute_force_posterior(d, x_new, h, model="vqda")
        np.testing.assert_allclose(ep.gamma_marginals, marg, rtol=1e-9, atol=1e-12)
        assert ep.y_marginal == pytest.approx(y_marg, rel=1e-9)

    def test_weights_normalized_by_log_marginal(self, toy_dataset):
        ep = exact_posterior(toy_dataset, np.zeros(8))
        total = np.exp(ep.log_weights - ep.log_marginal).sum()
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_configuration_bit_order(self, toy_dataset):
        ep = exact_posterior(toy_dataset, np.zeros(8))
        # row index i encodes gamma_j = bit j of i
        assert ep.gammas.shape == (256, 8)
        assert ep.gammas[0].tolist() == [0] * 8
        assert ep.gammas[1].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
        assert ep.gammas[5].tolist() == [1, 0, 1, 0, 0, 0, 0, 0]

    def test_marginals_consistent_with_weights(self, toy_dataset):
        ep = exact_posterior(toy_dataset, np.zeros(8))
        probs = np.exp(ep.log_weights - ep.log_marginal)
        np.testing.assert_allclose(
            ep.gamma_marginals, probs.sum(axis=1) @ ep.gammas, rtol=1e-10, atol=1e-13
        )
        assert ep.y_marginal == pytest.approx(probs[:, 1].sum(), rel=1e-12)

    def test_capacity_limit(self):
        d = make_balanced(20, 16, seed=1)
        with pytest.raises(CapacityError):
            exact_posterior(d, np.zeros(16))

    def test_at_capacity_boundary_runs(self):
        d = make_balanced(12, 15, seed=1, shift=2.0, k=1)
        ep = exact_posterior(d, np.zeros(15))
        assert ep.gammas.shape == (2**15, 15)

    def test_deterministic(self, toy_dataset):
        x = np.full(8, 0.25)
        a = exact_posterior(toy_dataset, x)
        b = exact_posterior(toy_dataset, x)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)

    @pytest.mark.parametrize("x_new, match", [
        (np.zeros(3), "x_new has 3 entries, expected p=4"),
        (np.array([0.0, np.nan, 0.0, 0.0]), "x_new contains non-finite values"),
        (np.array([0.0, 0.0, -np.inf, 0.0]), "x_new contains non-finite values"),
        (np.array([0.0, 1e200, 0.0, 0.0]), "values too large to square"),
    ], ids=["short", "nan", "inf", "overflow"])
    def test_rejects_bad_new_row(self, x_new, match):
        d = make_balanced(20, 4, seed=3, shift=2.0, k=2)
        with pytest.raises(vbda.DataValidationError, match=match):
            exact_posterior(d, x_new)

    def test_strong_signal_marginal_near_one(self):
        d = make_balanced(40, 4, seed=8, shift=3.0, k=1)
        ep = exact_posterior(d, np.zeros(4))
        assert ep.gamma_marginals[0] > 0.99
        assert np.all(ep.gamma_marginals[1:] < 0.5)


class TestNumericOracles:
    @pytest.mark.parametrize("model", ["lda", "qda"])
    def test_alternative_dominates_null(self, model, rng):
        col = rng.standard_normal(30)
        y = np.array([0, 1] * 15)
        assert numeric_mle_check(col, y, model=model) >= -1e-9

    def test_lda_ratio_identity(self, rng):
        # lambda = 2 (n+1)/n * (ll_alt - ll_null) for the shared-variance pair
        col = rng.standard_normal(24) + np.array([0, 1] * 12) * 1.5
        y = np.array([0, 1] * 12)
        delta = numeric_mle_check(col, y, model="lda")
        lam = numeric_lambda_lrt(col, y, model="lda")
        assert lam == pytest.approx(2.0 * 25.0 / 24.0 * delta, rel=1e-9)

    @pytest.mark.parametrize("n", [10, 50, 200])
    @pytest.mark.parametrize("model", ["lda", "qda"])
    def test_closed_form_matches_numeric(self, n, model, rng):
        y = np.array([0, 1] * (n // 2))
        col = rng.standard_normal(n) + y * 0.8
        d = Dataset(col[:, None], y)
        s = compute_stats(d)
        closed = (
            lambda_lrt_lda(s, n)[0]
            if model == "lda"
            else lambda_lrt_qda(s, n, d.n1, d.n0)[0]
        )
        numeric = numeric_lambda_lrt(col, y, model=model)
        assert numeric == pytest.approx(closed, abs=1e-6)

    def test_constant_column(self):
        col = np.full(12, 3.14)
        y = np.array([0, 1] * 6)
        assert numeric_lambda_lrt(col, y, model="lda") == pytest.approx(0.0, abs=1e-9)
        d = Dataset(col[:, None], y)
        s = compute_stats(d)
        closed = lambda_lrt_qda(s, 12, 6, 6)[0]
        assert numeric_lambda_lrt(col, y, model="qda") == pytest.approx(
            closed, rel=1e-9
        )

    def test_unknown_model_rejected(self, rng):
        with pytest.raises(vbda.DataValidationError):
            numeric_mle_check(rng.standard_normal(10), np.array([0, 1] * 5), model="x")
