"""Unit-root statistics against hand-rolled normal-equation oracles.

The oracles below build each test regression explicitly and solve the
normal equations directly, sharing no code with the implementation.
"""

import numpy as np
import pytest

from hdcoint import (CriticalValueSet, ParameterError, adf_stat, dfgls_stat,
                     four_stats, select_lags, union_stat)
from hdcoint.unitroot import _CHUNK, adf_rho, default_max_lags


def oracle_adf(y, det, lags):
    """t-statistic on y_{t-1} in the ADF regression, solved directly.

    det: 0 none, 1 constant, 2 constant+trend.
    """
    y = np.asarray(y, dtype=float)
    dy = np.diff(y)
    rows = np.arange(lags, dy.shape[0])
    cols = [y[rows]]                       # level lag: y_{t-1}
    for j in range(1, lags + 1):
        cols.append(dy[rows - j])
    if det >= 1:
        cols.append(np.ones(rows.shape[0]))
    if det == 2:
        cols.append(rows + 1.0)
    X = np.column_stack(cols)
    resp = dy[rows]
    XtX = X.T @ X
    beta = np.linalg.solve(XtX, X.T @ resp)
    resid = resp - X @ beta
    dof = X.shape[0] - X.shape[1]
    s2 = resid @ resid / dof
    se = np.sqrt(s2 * np.linalg.inv(XtX)[0, 0])
    return beta[0] / se


def oracle_dfgls(y, trend, lags):
    """DF-GLS: quasi-difference GLS detrend, then ADF with no terms."""
    y = np.asarray(y, dtype=float)
    T = y.shape[0]
    cbar = -13.5 if trend else -7.0
    rho = 1.0 + cbar / T
    ya = np.concatenate([[y[0]], y[1:] - rho * y[:-1]])
    if trend:
        t = np.arange(1.0, T + 1.0)
        Z = np.column_stack([np.ones(T), t])
    else:
        Z = np.ones((T, 1))
    Za = np.concatenate([Z[:1], Z[1:] - rho * Z[:-1]])
    psi = np.linalg.solve(Za.T @ Za, Za.T @ ya)
    yd = y - Z @ psi
    return oracle_adf(yd, 0, lags)


class TestOracleEquivalence:
    def test_adf_matches_normal_equations(self, rng):
        for i in range(60):
            y = rng.standard_normal(50).cumsum()
            lags = int(rng.integers(0, 4))
            got_mu = adf_stat(y, "mean", lags=lags)
            got_tau = adf_stat(y, "trend", lags=lags)
            assert abs(got_mu - oracle_adf(y, 1, lags)) < 1e-10
            assert abs(got_tau - oracle_adf(y, 2, lags)) < 1e-10

    def test_dfgls_matches_stepwise_oracle(self, rng):
        for i in range(60):
            y = rng.standard_normal(50).cumsum()
            lags = int(rng.integers(0, 4))
            got_mu = dfgls_stat(y, "mean", lags=lags)
            got_tau = dfgls_stat(y, "trend", lags=lags)
            assert abs(got_mu - oracle_dfgls(y, False, lags)) < 1e-10
            assert abs(got_tau - oracle_dfgls(y, True, lags)) < 1e-10

    def test_four_stats_bundles_the_variants(self, rng):
        y = rng.standard_normal(80).cumsum()
        got = four_stats(y[None, :], 2)[0]
        expect = [adf_stat(y, "mean", lags=2), adf_stat(y, "trend", lags=2),
                  dfgls_stat(y, "mean", lags=2),
                  dfgls_stat(y, "trend", lags=2)]
        assert np.allclose(got, expect, atol=1e-12)


def lstsq_level_fit(z, det, lags):
    """Level coefficient and t-statistic of one ADF regression by lstsq/QR."""
    dz = np.diff(z)
    rows = np.arange(lags, dz.shape[0])
    cols = [z[rows]] + [dz[rows - j] for j in range(1, lags + 1)]
    cols += [np.ones(rows.shape[0]), rows + 2.0][:det]
    X = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(X, dz[rows], rcond=None)
    resid = dz[rows] - X @ beta
    s2 = resid @ resid / (X.shape[0] - X.shape[1])
    r_inv = np.linalg.inv(np.linalg.qr(X, mode="r"))
    return beta[0], beta[0] / np.sqrt(s2 * (r_inv[0] @ r_inv[0]))


def lstsq_four(y, lags):
    """The four union components, each regression solved by lstsq."""
    T = y.shape[0]
    out = [lstsq_level_fit(y, 1, lags)[1], lstsq_level_fit(y, 2, lags)[1]]
    for cbar, Z in ((-7.0, np.ones((T, 1))),
                    (-13.5, np.column_stack([np.ones(T), np.arange(1.0, T + 1)]))):
        rho = 1.0 + cbar / T
        ya = np.concatenate([y[:1], y[1:] - rho * y[:-1]])
        Za = np.concatenate([Z[:1], Z[1:] - rho * Z[:-1]])
        psi, *_ = np.linalg.lstsq(Za, ya, rcond=None)
        out.append(lstsq_level_fit(y - Z @ psi, 0, lags)[1])
    return np.array(out)


class TestGramKernel:
    """The shared-Gram kernel against per-series lstsq regressions."""

    T = 200

    def _batch(self, rng, order):
        # one more than a chunk, so the last chunk holds a single series
        e = rng.standard_normal((_CHUNK + 1, self.T))
        return np.cumsum(e, axis=1) if order == 1 else np.cumsum(
            np.cumsum(e, axis=1), axis=1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_four_stats_match_lstsq(self, rng, order):
        y = self._batch(rng, order)
        for lags in (0, 1, default_max_lags(self.T)):
            got = four_stats(y, lags)
            want = np.array([lstsq_four(row, lags) for row in y])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10,
                                       err_msg=f"lags={lags}")

    def test_adf_rho_and_no_deterministics(self, rng):
        for _ in range(10):
            y = rng.standard_normal(self.T).cumsum()
            for lags in (0, 1, default_max_lags(self.T)):
                b_none, t_none = lstsq_level_fit(y, 0, lags)
                assert abs(adf_stat(y, "none", lags=lags) - t_none) < 1e-10
                assert abs(adf_rho(y, lags, "none") - (1.0 + b_none)) < 1e-10
                b_trend = lstsq_level_fit(y, 2, lags)[0]
                assert abs(adf_rho(y, lags) - (1.0 + b_trend)) < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_four_stats_invariant_to_scale_and_shift(self, rng, scale):
        y = self._batch(rng, 1)[:20]
        for lags in (0, 3):
            base = four_stats(y, lags)
            np.testing.assert_allclose(four_stats(scale * y, lags), base,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(four_stats(scale * (y + 250.0), lags),
                                       base, rtol=0, atol=1e-9)


class TestStatisticBehavior:
    def test_pure_trend_strongly_rejects(self):
        # deterministic trend is "stationary around trend"; residuals vanish
        assert adf_stat(np.arange(1.0, 41.0), "trend", lags=0) < -1e6
        rng = np.random.default_rng(3)
        y = np.arange(1.0, 201.0) + 0.01 * rng.standard_normal(200)
        assert adf_stat(y, "trend", lags=0) < -10

    def test_random_walk_null_range(self, rng):
        stats = [adf_stat(rng.standard_normal(500).cumsum(), "mean", lags=0)
                 for _ in range(40)]
        stats = np.array(stats)
        assert np.mean(stats < 0) > 0.8
        assert np.mean(stats > -3.0) > 0.8

    def test_adf_location_invariance(self, rng):
        y = rng.standard_normal(60).cumsum()
        assert abs(adf_stat(y, "mean", lags=1) -
                   adf_stat(y + 7.0, "mean", lags=1)) < 1e-8
        t = np.arange(60.0)
        assert abs(adf_stat(y, "trend", lags=1) -
                   adf_stat(y + 3.0 + 0.5 * t, "trend", lags=1)) < 1e-8

    def test_dfgls_constant_invariance(self, rng):
        y = rng.standard_normal(60).cumsum()
        assert abs(dfgls_stat(y, "mean", lags=0) -
                   dfgls_stat(y + 11.0, "mean", lags=0)) < 1e-8


class TestLagSelection:
    def test_max_lags_zero(self, rng):
        assert select_lags(rng.standard_normal(100), max_lags=0) == 0

    def test_default_cap_rule(self):
        assert default_max_lags(100) == 12
        assert default_max_lags(50) == int(12 * (0.5 ** 0.25))

    def test_white_noise_differences_prefer_zero(self, rng):
        # random walk: the differences entering MAIC are white noise
        picks = [select_lags(rng.standard_normal(200).cumsum())
                 for _ in range(30)]
        assert np.mean(np.array(picks) == 0) > 0.5

    def test_ar_in_differences_prefers_positive(self, rng):
        picks = []
        for _ in range(30):
            e = rng.standard_normal(300)
            d = np.zeros(300)
            for t in range(1, 300):
                d[t] = 0.6 * d[t - 1] + e[t]
            picks.append(select_lags(np.cumsum(d)))
        assert np.mean(np.array(picks) >= 1) > 0.8


class TestUnionStat:
    def _cv(self):
        return CriticalValueSet(-2.8, -3.4, -1.9, -2.8, 0.05)

    def test_stats_at_critical_values_give_minus_one(self):
        cv = self._cv()
        assert abs(union_stat(cv.as_array(), cv, x=-1.0) + 1.0) < 1e-12

    def test_min_attained_by_deep_rejection(self):
        cv = self._cv()
        stats = np.array([-2.8, -3.4, -10.0, -2.8])
        expect = (-1.0 / -1.9) * (-10.0)
        assert abs(union_stat(stats, cv) - expect) < 1e-12

    def test_brute_force_over_random_inputs(self, rng):
        for _ in range(50):
            cvals = -np.abs(rng.normal(3, 0.5, size=4))
            cv = CriticalValueSet(*cvals, 0.05)
            stats = rng.normal(-2, 2, size=4)
            brute = np.min((-1.0 / cvals) * stats)
            assert abs(union_stat(stats, cv) - brute) < 1e-12

    def test_scaling_sign_guard(self):
        with pytest.raises(ParameterError):
            union_stat(np.zeros(4), self._cv(), x=0.5)
        # alpha > 0.10 skips the left-tail sign check, reaching union_stat's
        # own zero-divisor guard
        loose = CriticalValueSet(0.0, -3.4, -1.9, -2.8, 0.5)
        with pytest.raises(ParameterError):
            union_stat(np.zeros(4), loose)
