"""The exact posterior and the numeric-maximization oracles.

The brute-force reference below enumerates every configuration with plain
Python loops, scalar math, and an explicit two-sided sum, sharing no code
with the count chain of ``exact_posterior``.  The log-beta functions that
replace scipy's are checked against 50-digit mpmath values.
"""

import itertools
import math
import tracemalloc

import mpmath

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
from vbda.oracle import (
    CHAIN_MAX_P,
    _log_beta,
    _log_beta_shifted,
    _lambda_bayes,
    _stats_with_new,
)

from conftest import make_balanced, traced_peak
from numeric_mle import numeric_lambda_lrt, numeric_mle_check

X_HAND = np.array([[1.0], [2.0], [3.0], [4.0], [6.0], [8.0]])
Y_HAND = np.array([1, 1, 1, 0, 0, 0])


def log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def brute_force_posterior(d, x_new, h, model="vlda"):
    """Independent enumeration over (gamma, y_new) with scalar arithmetic:
    the gamma marginals, the new label's marginal, and the log-sum-exp of
    all the weights."""
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
    return np.array(marg_gamma), marg_y, top + math.log(total)


def mp_log_beta(a, b):
    """log B(a, b) to 50 digits for mpf a and b, b however large: log Gamma(b)
    cancels against log Gamma(a+b), so the precision grows with b's digits."""
    with mpmath.workdps(50 + max(0, int(mpmath.log10(b)))):
        return mpmath.loggamma(a) - mpmath.log(mpmath.rf(b, a))


class TestLogBeta:
    """The oracle's scipy-free log B against mpmath, as error over
    max(1, |log B|), for a in [0.5, 20].  Over 12000 draws of each function
    (four seeded sets of 3000) the worst was 2.9e-13 for ``_log_beta`` (b
    from 0.5 to 1e7, worst with the larger argument near 10, where ``xi``
    switches to its series), 1.2e-13 for the direct branch of
    ``_log_beta_shifted`` and 2.2e-16 for its asymptotic branch; scipy's
    ``betaln`` was off by up to 4.0e-10."""

    def test_log_beta(self):
        rng = np.random.default_rng(0)
        bs = np.exp(rng.uniform(math.log(0.5), math.log(1e7), 600))
        draws = zip(rng.uniform(0.5, 20.0, 600), bs)
        # The label prior of a large group 1 and a small group 0: taken in
        # the given order, lgamma(a) - lgamma(a + b) cancels (4e-11 at 1e6).
        errors = []
        for a, b in [*draws, (100001.0, 3.0), (1000002.0, 4.0)]:
            a, b = float(a), float(b)
            ref = mp_log_beta(mpmath.mpf(a), mpmath.mpf(b))
            errors.append(abs(float(_log_beta(a, b) - ref)) / max(1.0, abs(float(ref))))
        assert max(errors) < 1e-12

    @pytest.mark.parametrize("low, high, bound", [
        (-1.0, 25.0, 1e-12), (25.0, 709.0, 1e-14), (709.0, 1000.0, 1e-14),
    ], ids=["direct", "asymptotic", "past-overflow"])
    def test_log_beta_shifted(self, low, high, bound):
        # b = exp(log_b) overflows a float past log_b = 709.78.
        rng = np.random.default_rng(1)
        errors = []
        for a, log_b, shift in zip(rng.uniform(0.5, 20.0, 200), rng.uniform(low, high, 200),
                                   rng.choice([0.0, 1.0, 17.0, 4096.0], 200)):
            with mpmath.workdps(500):
                b = mpmath.exp(mpmath.mpf(log_b)) + shift
            ref = mp_log_beta(mpmath.mpf(a), b)
            got = _log_beta_shifted(a, log_b, shift)
            errors.append(abs(float(got - ref)) / max(1.0, abs(float(ref))))
        assert max(errors) < bound


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
        marg, y_marg, log_marg = brute_force_posterior(d, x_new, h)
        np.testing.assert_allclose(ep.gamma_marginals, marg, rtol=1e-9, atol=1e-12)
        assert ep.y_marginal == pytest.approx(y_marg, rel=1e-9)
        assert ep.log_marginal == pytest.approx(log_marg, rel=1e-9)

    def test_matches_brute_force_vqda(self):
        h = Hyperparameters()
        rng = np.random.default_rng(9)
        y = np.array([0, 1] * 10)
        X = rng.standard_normal((20, 3))
        X[y == 0, 0] *= 3.0
        d = Dataset(X, y)
        x_new = rng.standard_normal(3)
        ep = exact_posterior(d, x_new, h, model="vqda")
        marg, y_marg, log_marg = brute_force_posterior(d, x_new, h, model="vqda")
        np.testing.assert_allclose(ep.gamma_marginals, marg, rtol=1e-9, atol=1e-12)
        assert ep.y_marginal == pytest.approx(y_marg, rel=1e-9)
        assert ep.log_marginal == pytest.approx(log_marg, rel=1e-9)

    @pytest.mark.parametrize("model", ["vlda", "vqda"])
    @pytest.mark.parametrize("a_y, offset", [(0.0, 0.0), (1.0, 1e3), (0.0, 1e3)],
                             ids=["flat-label-prior", "offset", "both"])
    def test_matches_brute_force_edge_cases(self, model, a_y, offset):
        # a_y = b_y = 0 drops the label prior's pseudo-counts; a column
        # offset of 1e3 tests the with-new moments' centering.
        h = Hyperparameters(a_y=a_y, b_y=a_y)
        base = make_balanced(24, 6, seed=11, shift=1.5, k=2)
        d = Dataset(base.X + offset, base.y)
        x_new = d.X.mean(axis=0) + np.linspace(-2.0, 2.0, 6) * d.X.std(axis=0)
        ep = exact_posterior(d, x_new, h, model=model)
        marg, y_marg, log_marg = brute_force_posterior(d, x_new, h, model=model)
        np.testing.assert_allclose(ep.gamma_marginals, marg, rtol=1e-9, atol=1e-12)
        assert ep.y_marginal == pytest.approx(y_marg, rel=1e-9)
        assert ep.log_marginal == pytest.approx(log_marg, rel=1e-9)

    @pytest.mark.parametrize("model", ["vlda", "vqda"])
    def test_column_permutation_at_p_200(self, model):
        # Far past any enumeration, permuting the columns of d and x_new
        # permutes the marginals and leaves log_marginal as it is.  Over 40
        # seeded cases of this shape the worst gaps were 3.0e-14 absolute on
        # a marginal and 2.4e-15 relative on log_marginal.
        rng = np.random.default_rng(4)
        y = np.array([0, 1] * 20)
        X = rng.standard_normal((40, 200)) + 1e3
        X[y == 1, :10] += 1.5
        x_new = X.mean(axis=0) + rng.standard_normal(200) * X.std(axis=0)
        perm = rng.permutation(200)
        a = exact_posterior(Dataset(X, y), x_new, model=model)
        b = exact_posterior(Dataset(X[:, perm], y), x_new[perm], model=model)
        assert np.any((a.gamma_marginals > 0.05) & (a.gamma_marginals < 0.95))
        np.testing.assert_allclose(b.gamma_marginals, a.gamma_marginals[perm],
                                   rtol=0, atol=1e-12)
        assert b.y_marginal == pytest.approx(a.y_marginal, rel=0, abs=1e-12)
        assert b.log_marginal == pytest.approx(a.log_marginal, rel=1e-12)

    def test_capacity_limit(self):
        # Refused before any table is built: at p = CHAIN_MAX_P + 1 the
        # table would take 128 MiB.  The call and its refusal take 35 KB.
        p = CHAIN_MAX_P + 1
        d = make_balanced(8, p, seed=1)

        def call():
            with pytest.raises(CapacityError, match=f"limited to p <= {CHAIN_MAX_P}"):
                exact_posterior(d, np.zeros(p))

        assert traced_peak(call) < 2**20

    def test_at_capacity_boundary_runs(self):
        # The chain holds one (p+1)^2 table of float64 at a time.
        p = CHAIN_MAX_P
        d = make_balanced(12, p, seed=1, shift=2.0, k=1)
        tracemalloc.start()
        try:
            ep = exact_posterior(d, np.zeros(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ep.gamma_marginals.shape == (p,)
        assert np.all((ep.gamma_marginals >= 0.0) & (ep.gamma_marginals <= 1.0))
        assert math.isfinite(ep.log_marginal)
        assert peak < 1.05 * (p + 1) ** 2 * 8

    def test_deterministic(self, toy_dataset):
        x = np.full(8, 0.25)
        a = exact_posterior(toy_dataset, x)
        b = exact_posterior(toy_dataset, x)
        np.testing.assert_array_equal(a.gamma_marginals, b.gamma_marginals)
        assert (a.y_marginal, a.log_marginal) == (b.y_marginal, b.log_marginal)

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

    def test_marginals_are_probabilities(self):
        # A new row about 30 SD out at column offset 1e3 makes the summed
        # weights of v1 round a few ulps past 1 (1.000000000000006), so its
        # marginal is clipped to 1.
        rng = np.random.default_rng(18)
        y = np.array([0, 1] * 15)
        X = rng.standard_normal((30, 6)) + 1e3
        X[y == 1, :3] += 4
        x_new = X.mean(axis=0) + rng.uniform(0, 30) * X.std(axis=0)
        ep = exact_posterior(Dataset(X, y), x_new, model="vqda")
        assert ep.gamma_marginals[0] == 1.0
        assert np.all((ep.gamma_marginals >= 0.0) & (ep.gamma_marginals <= 1.0))
        assert 0.0 <= ep.y_marginal <= 1.0

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
