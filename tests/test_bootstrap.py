"""Autoregressive wild bootstrap: multiplier law, residuals, quantiles.

The distributional checks run large draws once; the KS comparison against
a direct Monte Carlo of the same statistic is the slowest test here
(a couple of seconds).
"""

import os
import threading

import numpy as np
import pytest
from scipy import stats as sps

from hdcoint import (AwbConfig, DataError, NumericalError, ParameterError,
                     awb_draw, bootstrap, bootstrap_union_distribution,
                     from_values, left_tail_quantile, residual_panel)
from hdcoint.panel import ols_detrend
from hdcoint.unitroot import four_stats, select_lags


class TestMultiplier:
    def test_gamma_zero_is_iid_standard_normal(self):
        xi = awb_draw(200_000, 0.0, 5)
        assert abs(xi.mean()) < 0.01
        assert abs(xi.var() - 1.0) < 0.01
        lag1 = np.corrcoef(xi[1:], xi[:-1])[0, 1]
        assert abs(lag1) < 0.01

    def test_stationary_ar_law_at_target_gamma(self):
        xi = awb_draw(1_000_000, 0.85, 11)
        assert abs(xi.var() - 1.0) < 0.01
        lag1 = np.corrcoef(xi[1:], xi[:-1])[0, 1]
        assert abs(lag1 - 0.85) < 0.01

    def test_gamma_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                awb_draw(100, bad, 0)

    def test_seed_reproducibility(self):
        assert np.array_equal(awb_draw(500, 0.85, 42), awb_draw(500, 0.85, 42))


class TestResidualPanel:
    def test_unity_rho_on_pure_trend(self):
        t = np.arange(120.0)
        z = np.column_stack([2.0 + 0.3 * t, -1.0 + 0.1 * t])
        res = residual_panel(from_values(z), rho_mode="unity")
        # unit-rho residuals difference out the detrended series entirely
        assert np.nanmax(np.abs(res.values)) < 1e-8

    def test_estimated_rho_near_zero_for_white_noise(self, rng):
        # recover the scalar rho from the exact identity
        # zeta_t - u_t = rho * zeta_{t-1}, then average over MC draws
        rhos, corrs = [], []
        for _ in range(20):
            p = from_values(rng.standard_normal((300, 1)))
            u = residual_panel(p, rho_mode="estimated").values[:, 0]
            zeta = ols_detrend(p)[0].values[:, 0]
            t = np.where(~np.isnan(u))[0]
            rho, = np.linalg.lstsq(zeta[t - 1][:, None], zeta[t] - u[t],
                                   rcond=None)[0]
            rhos.append(rho)
            corrs.append(np.corrcoef(u[t], zeta[t])[0, 1])
        assert abs(np.mean(rhos)) < 0.15
        assert np.mean(corrs) > 0.95       # u stays close to detrended data

    def test_nan_layout_is_preserved(self, rng):
        z = rng.standard_normal((80, 2)).cumsum(axis=0)
        z[:7, 1] = np.nan
        res = residual_panel(from_values(z))
        assert np.isnan(res.values[:7, 1]).all()
        assert np.isfinite(res.values[7:, 1]).all()


class TestLeftTailQuantile:
    def test_matches_order_statistic_oracle(self, rng):
        draws = rng.standard_normal((999, 3))
        alpha = 0.05
        got = left_tail_quantile(draws, alpha)
        k = int(np.ceil(alpha * (999 + 1)))     # k-th smallest
        expect = np.sort(draws, axis=0)[k - 1]
        assert np.array_equal(got, expect)

    def test_small_draw_clamps_to_first_order_statistic(self, rng):
        draws = rng.standard_normal((50, 2))
        got = left_tail_quantile(draws, 0.001)
        assert np.array_equal(got, draws.min(axis=0))

    def test_tiny_tail_mass_rejected_in_config(self):
        with pytest.raises(ParameterError):
            AwbConfig(reps=199, alpha=0.01)    # reps*alpha = 1.99 < 5


def _rw_panel(n, T, seed):
    rng = np.random.default_rng(seed)
    return from_values(rng.standard_normal((T, n)).cumsum(axis=0))


class TestUnionBootstrap:
    def test_same_seed_is_bit_identical(self):
        panel = _rw_panel(3, 150, 0)
        cfg = AwbConfig(reps=199, seed=9)
        a = bootstrap_union_distribution(panel, cfg)
        b = bootstrap_union_distribution(panel, cfg)
        assert np.array_equal(a.ur, b.ur)
        assert np.array_equal(a.boot_ur, b.boot_ur)

    def test_duplicated_series_share_the_multiplier(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(150).cumsum()
        panel = from_values(np.column_stack([x, x]), names=["a", "b"])
        out = bootstrap_union_distribution(panel, AwbConfig(reps=199, seed=2))
        # one multiplier path per replication: identical series give
        # identical bootstrap columns
        assert np.array_equal(out.boot_ur[:, 0], out.boot_ur[:, 1])
        assert out.ur[0] == out.ur[1]

    def test_lags_selected_once_and_reused(self):
        panel = _rw_panel(2, 180, 7)
        out = bootstrap_union_distribution(panel, AwbConfig(reps=199, seed=1))
        expect = [select_lags(panel.values[:, i]) for i in range(2)]
        assert out.lags.tolist() == expect

    def test_critical_value_shape_and_alpha(self):
        panel = _rw_panel(2, 150, 3)
        out = bootstrap_union_distribution(
            panel, AwbConfig(reps=199, alpha=0.05, seed=5))
        cv = out.union_critical_values()
        assert cv.shape == (2,)
        assert np.all(cv < 0)
        assert len(out.critvals) == 2
        assert out.critvals[0].alpha == 0.05

    def test_reps_floor_enforced(self):
        with pytest.raises(ParameterError):
            AwbConfig(reps=99)

    def test_workers_leave_the_bits_alone(self, monkeypatch):
        # 599 replications are three row blocks of four_stats; the default
        # count also works where the OS has no CPU affinity call
        panel = _rw_panel(3, 150, 0)
        threads = threading.active_count()
        runs = [bootstrap_union_distribution(
            panel, AwbConfig(reps=599, seed=9, workers=w)) for w in (1, 2, 3)]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        runs.append(bootstrap_union_distribution(
            panel, AwbConfig(reps=599, seed=9)))
        for out in runs[1:]:
            assert np.array_equal(out.boot_ur, runs[0].boot_ur)
            assert np.array_equal(out.ur, runs[0].ur)
        assert threading.active_count() == threads
        with pytest.raises(ParameterError):
            AwbConfig(workers=0)

    def test_failing_round_shuts_its_pool_down(self, monkeypatch):
        # unit multipliers on constant residuals: every replication is a
        # pure trend, an exact fit that four_stats rejects
        panel = _rw_panel(2, 150, 3)
        monkeypatch.setattr(bootstrap, "_multiplier_matrix",
                            lambda B, T, gamma, seed: np.ones((B, T)))
        monkeypatch.setattr(bootstrap, "residual_panel",
                            lambda panel, *a, **k: panel.with_values(
                                np.ones_like(panel.values)))
        threads = threading.active_count()
        errors = []
        for w in (1, 2):
            with pytest.raises(NumericalError) as info:
                bootstrap_union_distribution(
                    panel, AwbConfig(reps=599, seed=1, workers=w))
            errors.append((info.type, str(info.value)))
            assert threading.active_count() == threads
        assert errors[0] == errors[1]

    def test_degenerate_inputs(self, rng):
        short = from_values(rng.standard_normal((4, 1)).cumsum()[:, None])
        with pytest.raises(DataError):
            bootstrap_union_distribution(short, AwbConfig(reps=199))
        blank = np.column_stack([rng.standard_normal(50).cumsum(),
                                 np.full(50, np.nan)])
        with pytest.raises(DataError):
            bootstrap_union_distribution(from_values(blank),
                                         AwbConfig(reps=199))


@pytest.mark.slow
class TestNullDistribution:
    def test_ks_against_direct_monte_carlo(self):
        """Bootstrap ADF-mean draws track the true null distribution.

        One homoskedastic random walk, gamma=0 (iid multipliers), unity
        rho (strict null), B=2000, compared by a two-sample KS distance
        against independent random walks evaluated with the same lag.
        """
        rng = np.random.default_rng(21)
        T = 800
        panel = from_values(rng.standard_normal((T, 1)).cumsum()[:, None])
        cfg = AwbConfig(gamma=0.0, reps=2000, seed=8, rho_mode="unity")
        out = bootstrap_union_distribution(panel, cfg)
        lag = int(out.lags[0])
        boot_adf = out.boot_stats[:, 0, 0]

        walks = rng.standard_normal((4000, T)).cumsum(axis=1)
        direct = four_stats(walks, lag)[:, 0]
        d = sps.ks_2samp(boot_adf, direct)
        assert d.statistic < 0.05
