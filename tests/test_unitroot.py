"""Unit-root statistics against hand-rolled normal-equation oracles.

The oracles below build each test regression explicitly and solve the
normal equations directly, sharing no code with the implementation.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hdcoint import (CriticalValueSet, NumericalError, ParameterError, adf_stat,
                     dfgls_stat, four_stats, select_lags, union_stat)
from hdcoint import unitroot
from hdcoint.unitroot import _BLOCK_BYTES, adf_rho, default_max_lags


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

    def _batch(self, rng, order, lags):
        # one more series than a design block holds: the last block has one
        B = _BLOCK_BYTES // (8 * (lags + 4) * (self.T - lags - 1)) + 1
        e = rng.standard_normal((B, self.T))
        return np.cumsum(e, axis=1) if order == 1 else np.cumsum(
            np.cumsum(e, axis=1), axis=1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_four_stats_match_lstsq(self, rng, order):
        for lags in (0, 1, default_max_lags(self.T)):
            y = self._batch(rng, order, lags)
            got = four_stats(y, lags)
            want = np.array([lstsq_four(row, lags) for row in y])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10,
                                       err_msg=f"lags={lags}")

    @pytest.mark.parametrize("order", [1, 2])
    def test_rows_do_not_depend_on_the_batch(self, rng, order):
        for lags in (0, default_max_lags(self.T)):
            y = self._batch(rng, order, lags)
            got = four_stats(y, lags)
            for i, row in enumerate(y):
                np.testing.assert_allclose(got[i], four_stats(row, lags)[0],
                                           rtol=0, atol=1e-12,
                                           err_msg=f"lags={lags}, row {i}")

    def test_singular_gram_falls_back_per_regression(self, rng, monkeypatch):
        # the last series is zero up to its final two values, so the
        # second lagged difference is a zero row of its Gram: the shared
        # factorization fails and each regression takes the pseudo-inverse
        lags = 2
        y = self._batch(rng, 1, lags)[:5]
        zeros = np.zeros(self.T)
        zeros[-2:] = [1.5, -0.7]
        calls = []
        fit = unitroot._level_fit

        def counted(S, n):
            calls.append(S.shape)
            return fit(S, n)

        monkeypatch.setattr(unitroot, "_level_fit", counted)
        got = four_stats(np.vstack([y, zeros]), lags)
        assert len(calls) == 4                   # one per regression
        assert np.all(np.isfinite(got[-1]))
        want = np.array([lstsq_four(row, lags) for row in y])
        np.testing.assert_allclose(got[:-1], want, rtol=0, atol=1e-10)
        calls.clear()
        np.testing.assert_allclose(four_stats(y, lags), got[:-1], rtol=0,
                                   atol=1e-10)
        assert len(calls) == 1                   # DF-GLS trend alone

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
        y = self._batch(rng, 1, 0)[:20]
        for lags in (0, 3):
            base = four_stats(y, lags)
            np.testing.assert_allclose(four_stats(scale * y, lags), base,
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(four_stats(scale * (y + 250.0), lags),
                                       base, rtol=0, atol=1e-9)


class TestRowBlocks:
    """``four_stats`` fits fixed row blocks; the bits do not depend on the
    block split or on the number of worker threads."""

    T = 150

    def _fits(self, y, lags):
        """Results with no pool and with a two-thread pool."""
        with ThreadPoolExecutor(2) as pool:
            return four_stats(y, lags), four_stats(y, lags, pool)

    @pytest.mark.parametrize("B", [1, 255, 256, 257, 999])
    @pytest.mark.parametrize("lags", [0, 13])
    def test_blocks_match_one_block(self, rng, monkeypatch, B, lags):
        y = np.cumsum(rng.standard_normal((B, self.T)), axis=1)
        with monkeypatch.context() as m:
            m.setattr(unitroot, "_ROW_BLOCK", B)
            whole = four_stats(y, lags)
        for got in self._fits(y, lags):
            np.testing.assert_array_equal(got, whole)

    def test_a_singular_gram_falls_back_in_its_block_alone(self, rng,
                                                           monkeypatch):
        # the zero-but-last-two series makes its Gram singular (see
        # TestGramKernel); only its block takes the per-regression fallback
        lags, bad = 2, 300
        block = slice(256, 512)
        y = np.cumsum(rng.standard_normal((999, self.T)), axis=1)
        regular = four_stats(y, lags)
        y[bad] = 0.0
        y[bad, -2:] = [1.5, -0.7]
        with monkeypatch.context() as m:
            m.setattr(unitroot, "_ROW_BLOCK", 999)
            whole = four_stats(y, lags)
        others = np.ones(999, dtype=bool)
        others[block] = False
        for got in self._fits(y, lags):
            np.testing.assert_array_equal(got[block], whole[block])
            np.testing.assert_array_equal(got[others], regular[others])
            np.testing.assert_allclose(got[others], whole[others], rtol=0,
                                       atol=1e-10)

    def test_exact_fit_raises_alike_on_any_pool(self, rng):
        y = np.cumsum(rng.standard_normal((600, self.T)), axis=1)
        y[400] = 0.5 * np.arange(self.T)        # constant increments
        threads = threading.active_count()
        errors = []
        for pool in (None, ThreadPoolExecutor(1), ThreadPoolExecutor(2)):
            with pytest.raises(NumericalError) as info:
                four_stats(y, 3, pool)
            errors.append((info.type, str(info.value)))
            if pool is not None:
                pool.shutdown()
        assert errors[1:] == errors[:1] * 2
        assert threading.active_count() == threads


class TestStatisticBehavior:
    def test_pure_trend_strongly_rejects(self):
        # an exact trend leaves no residual variance, a noisy one rejects
        with pytest.raises(NumericalError):
            adf_stat(np.arange(1.0, 41.0), "trend", lags=0)
        with pytest.raises(NumericalError):     # offset far above the slope
            adf_stat(np.arange(1.0, 301.0) * 2.5 + 1e6, "mean", lags=0)
        for T in (40, 100):     # GLS detrending leaves only rounding noise
            with pytest.raises(NumericalError):
                dfgls_stat(np.arange(1.0, T + 1.0), "trend", lags=0)
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
        # a large offset must not swamp the Gram
        for spec in ("mean", "trend"):
            assert abs(adf_stat(y, spec, lags=1) -
                       adf_stat(y + 1e6, spec, lags=1)) < 1e-8

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

    @pytest.mark.parametrize("spec", ["trend", "mean", "none"])
    def test_degenerate_inputs_give_a_lag(self, spec):
        # exact fits: every candidate reads the same Gram, whose singular
        # sub-Grams fall back to the pseudo-inverse instead of raising
        t = np.arange(1.0, 301.0)
        noise = 1e-9 * np.random.default_rng(0).standard_normal(300)
        for y in (t, 2.5 * t + 1e6, np.full(300, 3.0),
                  np.where(t > 150, 5.0, 1.0), 0.5 * t + noise):
            lag = select_lags(y, spec)
            assert isinstance(lag, int)
            assert 0 <= lag <= default_max_lags(300)

    @pytest.mark.xfail(strict=True, reason=(
        "MAIC defect: the tau term b0^2 sum(y_{t-1}^2) / sigma^2 is O(T) on "
        "a stationary series and falls as lags absorb the mean reversion, "
        "so the criterion picks 9-15 lags (median 12 of 15) here"))
    def test_white_noise_levels_prefer_few_lags(self):
        rng = np.random.default_rng(5)
        picks = [select_lags(rng.standard_normal(300)) for _ in range(20)]
        assert np.median(picks) <= 2

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
