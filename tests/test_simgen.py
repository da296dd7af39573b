"""Generator checks: determinism, split handling, and Monte Carlo shape
of the injected correlation structures."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from vbda import (
    COV_SPECS,
    DataValidationError,
    Dataset,
    SimSetting,
    ar1_sample,
    compute_stats,
    derive_seed,
    generate,
    lambda_lrt_lda,
    setting_from_index,
    uniform_corr_sample,
)
from vbda import simgen
from vbda.core import _stats_from_moments
from vbda.simgen import _draw, _draw_moments


def custom(**kw):
    base = dict(
        mean_spec="custom",
        cov_spec="independence",
        signal_count=2,
        signal_mean=1.0,
        p=6,
        n_train=40,
        n_valid=0,
        n_test=0,
        seed=0,
    )
    base.update(kw)
    return SimSetting(**base)


class TestSimSetting:
    def test_signal_counts_per_mean_spec(self):
        assert SimSetting(mean_spec="s1").p1 == 50
        assert SimSetting(mean_spec="s2").p1 == 100
        assert SimSetting(mean_spec="s3").p1 == 200
        assert SimSetting(mean_spec="s4").p1 == 10
        assert custom(signal_count=3).p1 == 3

    def test_default_correlations(self):
        assert simgen._RHO == {"independence": 0.0, "block_ar1": 0.6, "global_ar1": 0.9,
                               "uniform": 0.8}

    def test_custom_requires_signal_fields(self):
        with pytest.raises(DataValidationError):
            SimSetting(mean_spec="custom", signal_count=2)
        with pytest.raises(DataValidationError):
            SimSetting(mean_spec="custom", signal_mean=1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mean_spec="s9"),
            dict(cov_spec="toeplitz"),
            dict(mean_spec="s2", p=50),  # needs 100 signal columns
            dict(n_train=3),
            dict(n_valid=-1),
            dict(delta_sigma=-0.5),
            dict(delta_sigma=math.nan),
            dict(mean_spec="custom", signal_count=2, signal_mean=math.inf),
            dict(cov_spec="block_ar1", p=150),  # blocks of 100 must tile p
            dict(seed=-1),
            dict(delta_sigma=math.inf),
            dict(mean_spec="custom", signal_count=2, signal_mean=math.nan),
        ],
    )
    def test_invalid_settings_rejected(self, kw):
        with pytest.raises(DataValidationError):
            SimSetting(**kw)

    def test_index_grid_layout(self):
        s1 = setting_from_index(1)
        assert (s1.mean_spec, s1.cov_spec) == ("s1", "independence")
        s4 = setting_from_index(4)
        assert (s4.mean_spec, s4.cov_spec) == ("s4", "independence")
        s5 = setting_from_index(5)
        assert (s5.mean_spec, s5.cov_spec) == ("s1", "block_ar1")
        s16 = setting_from_index(16)
        assert (s16.mean_spec, s16.cov_spec) == ("s4", "uniform")
        covs = {setting_from_index(i).cov_spec for i in range(1, 17)}
        assert covs == set(COV_SPECS)

    @pytest.mark.parametrize("index", [0, 17, -3])
    def test_index_out_of_range(self, index):
        with pytest.raises(DataValidationError):
            setting_from_index(index)

    def test_index_overrides_forwarded(self):
        s = setting_from_index(2, p=300, n_train=60, delta_sigma=1.5)
        assert (s.p, s.n_train, s.delta_sigma) == (300, 60, 1.5)


class TestGenerate:
    def test_deterministic_given_seed(self):
        s = setting_from_index(1, p=100, n_train=20, n_valid=10, n_test=10, seed=11)
        a, b = generate(s), generate(s)
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.train.y, b.train.y)
        np.testing.assert_array_equal(a.test.X, b.test.X)
        c = generate(setting_from_index(1, p=100, n_train=20, n_valid=10, n_test=10, seed=12))
        assert not np.array_equal(a.train.X, c.train.X)

    def test_split_shapes_and_columns(self):
        s = custom(p=7, signal_count=2, n_train=12, n_valid=5, n_test=9)
        rep = generate(s)
        assert rep.train.X.shape == (12, 7)
        assert rep.valid.X.shape == (5, 7)
        assert rep.test.X.shape == (9, 7)
        assert rep.train.columns == tuple(f"v{j}" for j in range(1, 8))
        assert rep.train.columns == rep.test.columns

    def test_empty_splits_are_none(self):
        rep = generate(custom(n_valid=0, n_test=0))
        assert rep.valid is None
        assert rep.test is None
        assert rep.train is not None

    def test_truth_mask_is_leading_block(self):
        rep = generate(setting_from_index(1, p=120, n_train=10, n_valid=0, n_test=0))
        assert rep.gamma_true.dtype == np.bool_
        assert rep.gamma_true[:50].all()
        assert not rep.gamma_true[50:].any()

    def test_fixed_mean_specs(self):
        rep = generate(setting_from_index(1, p=60, n_train=10, n_valid=0, n_test=0))
        np.testing.assert_array_equal(rep.mu1[:50], 0.7)
        np.testing.assert_array_equal(rep.mu1[50:], 0.0)
        rep2 = generate(
            setting_from_index(2, p=150, n_train=10, n_valid=0, n_test=0)
        )
        np.testing.assert_array_equal(rep2.mu1[:100], 0.3)

    def test_random_means_redrawn_per_replicate(self):
        s = setting_from_index(4, p=20, n_train=10, n_valid=0, n_test=0)
        a = generate(s)
        b = generate(replace(s, seed=1))
        assert not np.array_equal(a.mu1[:10], b.mu1[:10])
        # per-signal draws differ within one replicate too
        assert np.std(a.mu1[:10]) > 0.0
        np.testing.assert_array_equal(a.mu1[10:], 0.0)

    @pytest.mark.invariant
    def test_random_mean_distribution(self):
        draws = np.concatenate(
            [
                generate(
                    setting_from_index(4, p=10, n_train=10, n_valid=0, n_test=0, seed=s)
                ).mu1
                for s in range(60)
            ]
        )
        assert draws.mean() == pytest.approx(0.5, abs=0.05)
        assert draws.std() == pytest.approx(0.3, abs=0.05)

    def test_group_means_shifted(self):
        rep = generate(custom(signal_mean=2.0, n_train=4000, seed=3))
        d = rep.train
        on1 = d.X[d.y == 1]
        on0 = d.X[d.y == 0]
        assert on1[:, 0].mean() == pytest.approx(2.0, abs=0.1)
        assert on0[:, 0].mean() == pytest.approx(0.0, abs=0.1)
        assert on1[:, 5].mean() == pytest.approx(0.0, abs=0.1)

    def test_delta_sigma_scales_group0_signals_only(self):
        rep = generate(custom(signal_mean=0.0, delta_sigma=1.0, n_train=4000, seed=5))
        d = rep.train
        sd0 = d.X[d.y == 0].std(axis=0, ddof=1)
        sd1 = d.X[d.y == 1].std(axis=0, ddof=1)
        np.testing.assert_allclose(sd0[:2], 2.0, atol=0.15)
        np.testing.assert_allclose(sd0[2:], 1.0, atol=0.1)
        np.testing.assert_allclose(sd1, 1.0, atol=0.1)
        np.testing.assert_array_equal(rep.sigma0[:2], 2.0)
        np.testing.assert_array_equal(rep.sigma0[2:], 1.0)

    def test_minimum_group_occupancy(self):
        for seed in range(50):
            d = generate(custom(n_train=4, seed=seed)).train
            assert d.n1 >= 2 and d.n0 >= 2

    @pytest.mark.invariant
    def test_noise_columns_standard_normal(self):
        rep = generate(custom(p=3, signal_count=1, n_train=2000, seed=17))
        for j in (1, 2):
            _, pval = stats.kstest(rep.train.X[:, j], "norm")
            assert pval > 0.001

    @pytest.mark.invariant
    def test_labels_balanced(self):
        ys = np.concatenate(
            [generate(custom(n_train=200, seed=s)).train.y for s in range(20)]
        )
        assert abs(ys.mean() - 0.5) < 0.03


class TestCorrelationStructures:
    @pytest.mark.invariant
    def test_ar1_lag_profile(self):
        z = ar1_sample(4, 0.9, 200_000, seed=0)
        c = np.corrcoef(z, rowvar=False)
        assert c[0, 1] == pytest.approx(0.9, abs=0.01)
        assert c[1, 2] == pytest.approx(0.9, abs=0.01)
        assert c[0, 2] == pytest.approx(0.81, abs=0.01)
        assert c[0, 3] == pytest.approx(0.729, abs=0.01)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=0.02)

    def test_ar1_zero_rho_independent(self):
        z = ar1_sample(3, 0.0, 50_000, seed=1)
        c = np.corrcoef(z, rowvar=False)
        assert abs(c[0, 1]) < 0.02 and abs(c[0, 2]) < 0.02

    @pytest.mark.invariant
    def test_block_boundaries_break_the_chain(self):
        z = ar1_sample(4, 0.9, 100_000, seed=2, block_size=2)
        c = np.corrcoef(z, rowvar=False)
        assert c[0, 1] == pytest.approx(0.9, abs=0.01)
        assert c[2, 3] == pytest.approx(0.9, abs=0.01)
        assert abs(c[1, 2]) < 0.02
        assert abs(c[0, 3]) < 0.02

    @pytest.mark.invariant
    def test_uniform_offdiagonal(self):
        z = uniform_corr_sample(5, 0.8, 100_000, seed=3)
        c = np.corrcoef(z, rowvar=False)
        off = c[~np.eye(5, dtype=bool)]
        np.testing.assert_allclose(off, 0.8, atol=0.01)
        np.testing.assert_allclose(z.var(axis=0), 1.0, atol=0.02)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8, 0.999])
    def test_uniform_values_and_peak(self, rho):
        # The in-place scale and shift keep every bit of the two-term formula
        # on the same draws, and hold one n-by-p matrix instead of three.
        rng = np.random.default_rng(11)
        g, e = rng.standard_normal((40, 1)), rng.standard_normal((40, 30))
        want = np.sqrt(rho) * g + np.sqrt(1.0 - rho) * e
        got = uniform_corr_sample(30, rho, 40, np.random.default_rng(11))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        uniform_corr_sample(20000, rho, 5, seed=0)  # first-call allocations
        tracemalloc.start()
        try:
            uniform_corr_sample(20000, rho, 50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (50 * 20000 * 8)

    def test_sampler_domain_errors(self):
        with pytest.raises(DataValidationError):
            ar1_sample(3, 1.0, 10, seed=0)
        with pytest.raises(DataValidationError):
            uniform_corr_sample(3, -0.2, 10, seed=0)
        with pytest.raises(DataValidationError):
            uniform_corr_sample(3, 1.0, 10, seed=0)

    def test_generate_applies_structure(self):
        s = setting_from_index(
            9, p=200, n_train=5000, n_valid=0, n_test=0, delta_sigma=0.0, seed=9
        )
        rep = generate(s)  # s1 mean spec under global AR(1), rho 0.9
        noise = rep.train.X[:, 200 - 2 :]
        c = np.corrcoef(noise, rowvar=False)
        assert c[0, 1] == pytest.approx(0.9, abs=0.05)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)

    def test_distinct_across_indices(self):
        seen = {derive_seed(42, i, j) for i in range(10) for j in range(10)}
        assert len(seen) == 100

    def test_depends_on_base(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_arity_matters(self):
        assert derive_seed(5) != derive_seed(5, 0)

    def test_negative_base_or_index_rejected(self):
        with pytest.raises(DataValidationError, match="seed must be nonnegative, got -1"):
            derive_seed(-1, 0)
        with pytest.raises(DataValidationError, match="indices must be nonnegative"):
            derive_seed(0, -1)


class TestDraw:
    """``generate`` is ``_draw`` plus its split into named Datasets."""

    @pytest.mark.parametrize("s", [
        setting_from_index(4, p=200, n_train=30, n_valid=10, n_test=5, seed=3),
        setting_from_index(6, p=200, n_train=20, n_valid=0, n_test=7, seed=1),
        setting_from_index(11, p=200, n_train=25, n_valid=4, n_test=0, seed=2),
        setting_from_index(13, p=200, n_train=12, n_valid=0, n_test=0, seed=5),
        custom(delta_sigma=0.5, n_valid=3, n_test=2),
    ], ids=["s4_three_splits", "block_ar1_no_valid", "global_ar1_no_test",
            "uniform_train_only", "custom_hetero"])
    def test_same_draws_as_generate(self, s):
        X, y, mu1, sigma0 = _draw(s)
        r = generate(s)
        splits = [d for d in (r.train, r.valid, r.test) if d is not None]
        np.testing.assert_array_equal(X, np.concatenate([d.X for d in splits]))
        np.testing.assert_array_equal(y, np.concatenate([d.y for d in splits]))
        np.testing.assert_array_equal(mu1, r.mu1)
        np.testing.assert_array_equal(sigma0, r.sigma0)
        assert X.flags.writeable and X.shape == (s.n_train + s.n_valid + s.n_test, s.p)
        assert all(d.columns == tuple(f"v{j + 1}" for j in range(s.p)) for d in splits)


def _lag1(x):
    return np.corrcoef(x[:-1], x[1:])[0, 1]


def _replicate_summaries(st, signal):
    """Summaries of one replicate's statistics, each over many columns.
    Values are not pooled across columns: under uniform correlation the
    shared factor makes pooled columns far from independent."""
    var0, gap = st.var0[~signal], (st.mu1_hat - st.mu0_hat)[~signal]
    return (var0.mean(), _lag1(var0), gap.std(), _lag1(gap), gap.mean(),
            st.var1[~signal].mean(), st.var0[signal].mean(),
            (st.mu1_hat - st.mu0_hat)[signal].mean())


class TestDrawMoments:
    """``_draw_moments`` draws a setting's training statistics from their
    exact laws: the law of the statistics of ``_draw``'s data."""

    @pytest.mark.parametrize("index", [1, 4])
    def test_same_law_as_statistics_of_data(self, index):
        # Seed 0, 30 replicates at p = 500 and n = 100, pooled per path: the
        # noise variables' LRT statistics (13500 values), and the signal
        # variables' group-0 variances and mean gaps (1500 at setting 1, 300
        # at setting 4).  Each two-sample KS test must give p > 1e-3.
        base = setting_from_index(index, p=500, n_train=100, n_valid=0, n_test=0)
        signal = np.arange(base.p) < base.p1
        samples = {"data": [], "moments": []}
        for rep in range(30):
            s = replace(base, seed=derive_seed(0, rep))
            X, y, _, _ = _draw(s)
            for path, st in (("data", compute_stats(Dataset(X, y))),
                             ("moments", _stats_from_moments(*_draw_moments(s)))):
                samples[path].append((lambda_lrt_lda(st, st.n)[~signal], st.var0[signal],
                                      (st.mu1_hat - st.mu0_hat)[signal]))
        for k, name in enumerate(("noise lambda", "signal var0", "signal mean gap")):
            a, b = (np.concatenate([r[k] for r in samples[path]]) for path in samples)
            assert stats.ks_2samp(a, b).pvalue > 1e-3, name

    @pytest.mark.parametrize("base", [
        setting_from_index(5, p=200),
        setting_from_index(9, p=200),
        setting_from_index(13, p=200),
        SimSetting(mean_spec="custom", cov_spec="block_ar1", signal_count=20,
                   signal_mean=1.0, delta_sigma=0.5, p=200),
        # n = 5 puts two rows in one group: its sums of squares have m = 1
        setting_from_index(9, p=200, n_train=5),
    ], ids=["block_ar1", "global_ar1", "uniform", "block_ar1_hetero", "two_rows"])
    def test_correlated_summaries_same_law(self, base):
        # 200 replicates per path, seed 0.  Per replicate: the mean and lag-1
        # autocorrelation of var0 over the noise columns, the SD, lag-1
        # autocorrelation and mean of their mean gaps, the mean of their
        # var1, and the means of the signal columns' var0 and mean gaps.
        # Each two-sample KS test must give p > 1e-3.
        base = replace(base, n_valid=0, n_test=0)
        signal = np.arange(base.p) < base.p1
        samples = {"data": [], "moments": []}
        for rep in range(200):
            s = replace(base, seed=derive_seed(0, rep))
            X, y, _, _ = _draw(s)
            samples["data"].append(_replicate_summaries(compute_stats(Dataset(X, y)), signal))
            samples["moments"].append(
                _replicate_summaries(_stats_from_moments(*_draw_moments(s)), signal))
        data, moments = np.array(samples["data"]), np.array(samples["moments"])
        for k, name in enumerate(("noise var0 mean", "noise var0 lag-1", "noise gap SD",
                                  "noise gap lag-1", "noise gap mean", "noise var1 mean",
                                  "signal var0 mean", "signal gap mean")):
            assert stats.ks_2samp(data[:, k], moments[:, k]).pvalue > 1e-3, name

    def test_block_ar1_chains_restart_at_block_boundaries(self):
        # Columns 98, 99 | 100 of setting 5 are noise, with a block boundary
        # between 99 and 100.  Over 1000 replicates the mean gaps correlate
        # by about rho = 0.6 within a block and var0 by rho^2 = 0.36, and
        # both by about 0 across the boundary (standard error about 0.03).
        base = setting_from_index(5, p=200, n_valid=0, n_test=0)
        gaps, var0s = [], []
        for rep in range(1000):
            st = _stats_from_moments(*_draw_moments(replace(base, seed=derive_seed(1, rep))))
            gaps.append((st.mu1_hat - st.mu0_hat)[98:101])
            var0s.append(st.var0[98:101])
        for x, within in ((np.array(gaps), 0.45), (np.array(var0s), 0.25)):
            assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] > within
            assert abs(np.corrcoef(x[:, 1], x[:, 2])[0, 1]) < 0.1
