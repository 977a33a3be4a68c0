"""Autoregressive wild bootstrap: multiplier law, residuals, quantiles.

The distributional checks run large draws once; the KS comparison against
a direct Monte Carlo of the same statistic is the slowest test here
(a couple of seconds).
"""

import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from hdcoint import (AwbConfig, DataError, NumericalError, ParameterError,
                     awb_draw, bootstrap, bootstrap_union_distribution,
                     from_values, left_tail_quantile, residual_panel)
from hdcoint.panel import ols_detrend
from hdcoint.unitroot import adf_rho, four_stats, select_lags


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

    @pytest.mark.parametrize("B, T, gamma", [(999, 300, 0.85),
                                              (199, 150, 0.5), (599, 301, 0.0)])
    def test_multiplier_matrix_holds_one_array(self, B, T, gamma):
        # the (B, T) draws become the paths in place, so the peak is one
        # array of B * T floats
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bootstrap._multiplier_matrix(B, T, gamma, 3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * B * T * 8


class TestResidualPanel:
    def test_unity_rho_on_pure_trend(self):
        t = np.arange(120.0)
        z = np.column_stack([2.0 + 0.3 * t, -1.0 + 0.1 * t])
        res = residual_panel(from_values(z), "unity", [0, 0])
        # unit-rho residuals difference out the detrended series entirely
        assert np.nanmax(np.abs(res.values)) < 1e-8

    def test_estimated_rho_near_zero_for_white_noise(self, rng):
        # recover the scalar rho from the exact identity
        # zeta_t - u_t = rho * zeta_{t-1}, then average over MC draws
        rhos, corrs = [], []
        for _ in range(20):
            p = from_values(rng.standard_normal((300, 1)))
            lags = [select_lags(p.values[:, 0])]
            u = residual_panel(p, "estimated", lags).values[:, 0]
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
        res = residual_panel(from_values(z), "estimated", [1, 1])
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


def _ragged_panel():
    """Six random walks with AR(j) increments, each with its own start;
    their lag choices are 0, 2, 3, 4, 5 and 7."""
    rng = np.random.default_rng(2)
    T, burn = 300, 50
    cols = []
    for j in range(6):
        dx = rng.standard_normal(T + burn)
        for t in range(j + 1, T + burn):
            dx[t] += 0.5 * dx[t - j - 1] if j else 0.0
        cols.append(np.cumsum(dx)[burn:])
    vals = np.column_stack(cols)
    for j, lead in enumerate((0, 31, 7, 58, 15, 44)):
        vals[:lead, j] = np.nan
    return from_values(vals, names=[f"s{j}" for j in range(6)])


def _grouped_panel():
    """Nine random walks on three starts, three per start, with AR(3),
    AR(2) or white-noise increments: their lag choices are 0, 0, 3 | 0,
    0, 3 | 2, 2, 0, so each start holds a shared (start, lag) group and a
    single one."""
    rng = np.random.default_rng(0)
    T, burn = 240, 50
    cols = []
    for k in (0, 0, 3, 0, 0, 3, 2, 2, 0):
        dx = rng.standard_normal(T + burn)
        for t in range(k, T + burn):
            dx[t] += 0.6 * dx[t - k] if k else 0.0
        cols.append(np.cumsum(dx)[burn:])
    vals = np.column_stack(cols)
    for j, lead in enumerate((0, 0, 0, 23, 23, 23, 41, 41, 41)):
        vals[:lead, j] = np.nan
    return from_values(vals, names=[f"s{j}" for j in range(9)])


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

    @pytest.mark.worker_processes
    def test_workers_leave_the_bits_alone(self, monkeypatch):
        # 599 replications are three row blocks of four_stats; the default
        # count also works where the OS has no CPU affinity call.  The
        # ragged panel's series differ in start and in lag choice
        ragged = _ragged_panel()
        threads = threading.active_count()
        for panel in (_rw_panel(3, 150, 0), ragged):
            runs = [bootstrap_union_distribution(
                panel, AwbConfig(reps=599, seed=9, workers=w))
                for w in (None, 1, 2, 3)]
            with monkeypatch.context() as m:
                m.delattr(os, "sched_getaffinity", raising=False)
                runs.append(bootstrap_union_distribution(
                    panel, AwbConfig(reps=599, seed=9)))
            for out in runs[1:]:
                assert out.boot_stats.tobytes() == runs[0].boot_stats.tobytes()
                assert np.array_equal(out.boot_ur, runs[0].boot_ur)
                assert np.array_equal(out.ur, runs[0].ur)
        assert len(set(ragged.leads)) == len(set(runs[0].lags.tolist())) == 6
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        with pytest.raises(ParameterError):
            AwbConfig(workers=0)

    @pytest.mark.worker_processes
    def test_failing_round_shuts_its_pool_down(self, monkeypatch):
        # unit multipliers on constant residuals make every replication a
        # pure trend, an exact fit that four_stats rejects.  The error names
        # the first such series in panel order for any number of workers:
        # the first series when all are constant, s3 when s3 and s5 of the
        # ragged panel are
        real = bootstrap.residual_panel
        constant = []

        def residuals(panel, *args, **kwargs):
            out = real(panel, *args, **kwargs).values.copy()
            for j in constant:
                out[panel.leads[j]:, j] = 0.4
            return panel.with_values(out)

        monkeypatch.setattr(bootstrap, "residual_panel", residuals)
        monkeypatch.setattr(bootstrap, "_multiplier_matrix",
                            lambda B, T, gamma, seed: np.ones((B, T)))
        threads = threading.active_count()
        for panel, cols in ((_rw_panel(2, 150, 3), [0, 1]),
                            (_ragged_panel(), [3, 5])):
            constant[:] = cols
            for w in (None, 1, 2, 3):
                with pytest.raises(NumericalError) as info:
                    bootstrap_union_distribution(
                        panel, AwbConfig(reps=599, seed=1, workers=w))
                assert str(info.value) == (
                    f"series '{panel.names[cols[0]]}': singular ADF "
                    "regression (zero residual variance)")
                assert threading.active_count() == threads
                assert multiprocessing.active_children() == []

    def test_a_constant_series_is_named(self):
        panel = _ragged_panel()
        vals = panel.values.copy()
        vals[panel.leads[2]:, 2] = 1.5
        with pytest.raises(NumericalError, match="^series 's2': singular"):
            bootstrap_union_distribution(panel.with_values(vals),
                                         AwbConfig(reps=199, seed=9))

    def test_a_short_series_is_fitted_or_named(self):
        # a series of the last 20 rows: the lag choice once left its trend
        # ADF regression a row short, a DataError that named no series (at
        # 3 of these 40 seeds); a series of 5 rows fits no lag at all, and
        # the error names it
        for seed in range(40):
            vals = np.random.default_rng(seed).standard_normal((200, 3))
            vals[:180, 2] = np.nan
            out = bootstrap_union_distribution(
                from_values(vals), AwbConfig(reps=199, seed=seed))
            assert np.isfinite(out.ur).all()
        vals[:195, 2] = np.nan
        with pytest.raises(DataError, match="^series 's3': series too short"):
            bootstrap_union_distribution(from_values(vals),
                                         AwbConfig(reps=199, seed=9))

    @pytest.mark.worker_processes
    def test_the_grouped_prelude_keeps_each_series_bits(self, monkeypatch):
        # one select_lags call per start, one four_stats call over the
        # (start, lag) groups and one adf_rho call per group; every
        # series' lag, statistics and residuals are those of its own calls
        panel = _grouped_panel()
        calls = {}
        for name in ("select_lags", "four_stats", "adf_rho"):
            def counted(*args, _fn=getattr(bootstrap, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bootstrap, name, counted)
        for workers in (1, 2):
            calls.clear()
            out = bootstrap_union_distribution(
                panel, AwbConfig(reps=199, seed=3, workers=workers))
            assert calls == {"select_lags": 3, "four_stats": 2, "adf_rho": 6}
            res = residual_panel(panel, "estimated", out.lags).values
            zeta = ols_detrend(panel)[0].values
            assert out.lags.tolist() == [0, 0, 3, 0, 0, 3, 2, 2, 0]
            for j, lead in enumerate(panel.leads):
                col, z = panel.values[lead:, j], zeta[lead:, j]
                lag = select_lags(col)
                assert out.lags[j] == lag
                one = four_stats(col, lag)[0]
                assert out.stats[j].tobytes() == one.tobytes()
                rho = adf_rho(z, lags=lag)
                want = np.r_[z[0], z[1:] - rho * z[:-1]]
                assert res[lead:, j].tobytes() == want.tobytes()

    @pytest.mark.worker_processes
    def test_the_first_failing_series_in_panel_order_is_named(self):
        # s1 and s2 are constant, an exact fit, in the groups of starts 10
        # and 0; the group of start 0 comes first and fails first, but the
        # error names s1, the earlier series
        vals = np.random.default_rng(1).standard_normal((150, 3)).cumsum(0)
        vals[:10, 1] = np.nan
        vals[10:, 1] = 0.5
        vals[:, 2] = -2.0
        panel = from_values(vals, names=["s0", "s1", "s2"])
        for workers in (1, 2):
            with pytest.raises(NumericalError, match="^series 's1': singular"):
                bootstrap_union_distribution(
                    panel, AwbConfig(reps=199, max_lags=0, workers=workers))

    @pytest.mark.worker_processes
    def test_a_failing_round_chooses_the_lags_once(self, monkeypatch):
        # s2 and s3 are constant, an exact fit, both of lag 0 in the group
        # of start 0; the round fails in the observed fit, after one
        # select_lags call per start, and names s2, the earlier series
        vals = np.random.default_rng(2).standard_normal((150, 4)).cumsum(0)
        vals[:10, 1] = np.nan
        vals[:, 2] = 0.5
        vals[:, 3] = -2.0
        panel = from_values(vals, names=["s0", "s1", "s2", "s3"])
        calls = []

        def counted(*args, _fn=bootstrap.select_lags, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(bootstrap, "select_lags", counted)
        for workers in (1, 2):
            calls.clear()
            with pytest.raises(NumericalError, match="^series 's2': singular"):
                bootstrap_union_distribution(
                    panel, AwbConfig(reps=199, workers=workers))
            assert len(calls) == 2
            assert calls[0][1:].tolist() == [0, 0]
            assert multiprocessing.active_children() == []

    @pytest.mark.worker_processes
    def test_a_round_holds_a_few_blocks_of_paths(self, monkeypatch):
        # the paths are built block by block inside the fits, so from the
        # multipliers on a round's memory peak stays below one series'
        # (B, T) paths, not growing with the series: about 0.85 of them on
        # one worker, which fits one block of 256 replications at a time.
        # Building a series' whole paths before its fits held 2 to 3.  With
        # two workers the blocks are built in the forked workers, whose
        # memory tracemalloc in this process does not measure: the bound
        # then holds this process alone (about 0.43 here)
        panel, reps = _ragged_panel(), 999
        real, start = bootstrap._multiplier_matrix, []

        def multipliers(*args):
            out = real(*args)
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(bootstrap, "_multiplier_matrix", multipliers)
        for workers in (1, 2):
            start.clear()
            tracemalloc.start()
            try:
                bootstrap_union_distribution(
                    panel, AwbConfig(reps=reps, seed=9, workers=workers))
                peak = tracemalloc.get_traced_memory()[1] - start[0]
            finally:
                tracemalloc.stop()
            assert peak < reps * panel.n_obs * 8

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
