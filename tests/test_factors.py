"""Factor extraction, counting, and factor-based forecasting."""

import numpy as np
import pytest

from hdcoint import (DataError, FactorDgpParams, NumericalError,
                     ParameterError, count_factors, extract_factors_diff,
                     extract_factors_levels, fecm_forecast, johansen_ml,
                     ndfm_forecast, random_vecm_params, select_lag_bic,
                     simulate_factor_dgp, simulate_vecm, var_bic_forecast,
                     vecm_iterated_forecast)
from tests.conftest import canonical_correlations, slope_detrend


def _factor_panel(n, T, k, seed, idio=0.5):
    """Simulated I(1)-factor panel; returns (values, true factors)."""
    params = FactorDgpParams(
        lam=np.random.default_rng(seed).normal(size=(n, k)),
        factor_orders=(1,) * k,
        idio_orders=(0,) * n,
        idio_scale=np.full(n, idio))
    panel, f, _ = simulate_factor_dgp(params, T, seed=seed + 1)
    return panel.values, f


class TestDiffExtraction:
    def test_rank_one_exactness(self, rng):
        lam = rng.normal(size=(10, 1))
        f = rng.standard_normal(150).cumsum()[:, None]
        z = f @ lam.T
        model = extract_factors_diff(z, 1)
        fitted = model.factors @ model.loadings.T
        zt = slope_detrend(z)
        assert np.max(np.abs(fitted - zt)) < 1e-6

    def test_loading_normalization(self, rng):
        z = rng.standard_normal((200, 12)).cumsum(axis=0)
        model = extract_factors_diff(z, 3)
        n = z.shape[1]
        # loadings scaled so that (1/N) Lambda' Lambda = I
        gram = model.loadings.T @ model.loadings / n
        assert np.allclose(gram, np.eye(3), atol=1e-8)

    def test_sign_flip_leaves_common_component(self, rng):
        z = rng.standard_normal((150, 8)).cumsum(axis=0)
        model = extract_factors_diff(z, 2)
        flipped = model.factors.copy()
        flipped[:, 0] *= -1.0
        lam = model.loadings.copy()
        lam[:, 0] *= -1.0
        assert np.allclose(flipped @ lam.T,
                           model.factors @ model.loadings.T, atol=1e-12)

    def test_rotation_invariance_of_common_component(self, rng):
        z = rng.standard_normal((150, 8)).cumsum(axis=0)
        model = extract_factors_diff(z, 2)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        rotated = (model.factors @ q) @ (model.loadings @ q).T
        assert np.allclose(rotated, model.factors @ model.loadings.T,
                           atol=1e-8)

    def test_sign_convention_largest_loading_positive(self, rng):
        z = rng.standard_normal((150, 8)).cumsum(axis=0)
        model = extract_factors_diff(z, 2)
        for j in range(2):
            col = model.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_canonical_correlation_with_true_factors(self):
        z, f = _factor_panel(50, 200, 2, seed=1)
        model = extract_factors_diff(z, 2)
        # detrending estimates the factor space only up to its own slope
        cc = canonical_correlations(model.factors, slope_detrend(f))
        assert cc.min() >= 0.95

    def test_k_too_large(self, rng):
        with pytest.raises(ParameterError):
            extract_factors_diff(rng.standard_normal((30, 4)), 5)


class TestLevelsExtraction:
    def test_normalization_identities(self, rng):
        z = rng.standard_normal((180, 10)).cumsum(axis=0)
        model = extract_factors_levels(z, r_ns=3)
        T = z.shape[0]
        f = model.factors
        assert np.allclose(f.T @ f / T ** 2, np.eye(3), atol=1e-8)

    def test_single_walk_factor_recovered(self, rng):
        f = rng.standard_normal(300).cumsum()
        lam = rng.normal(size=6)
        z = np.outer(f, lam) + 0.01 * rng.standard_normal((300, 6))
        model = extract_factors_levels(z, r_ns=1)
        corr = np.corrcoef(model.factors[:, 0], f)[0, 1]
        assert abs(corr) > 0.999

    def test_eigenvalue_ordering(self, rng):
        z = rng.standard_normal((150, 8)).cumsum(axis=0)
        model = extract_factors_levels(z, r_ns=3)
        assert np.all(np.diff(model.eigenvalues[:3]) <= 1e-12)


class TestCounting:
    def test_strong_two_factor_design(self):
        hits = 0
        for seed in range(10):
            z, _ = _factor_panel(50, 200, 2, seed=100 + seed, idio=0.5)
            hits += count_factors(z) == 2
        assert hits >= 9

    def test_pure_noise_counts_zero(self, rng):
        hits = 0
        for _ in range(10):
            z = rng.standard_normal((200, 30))
            hits += count_factors(z) == 0
        assert hits >= 8

    def test_kmax_zero(self, rng):
        z = rng.standard_normal((100, 10))
        assert count_factors(z, kmax=0) == 0


class TestNdfm:
    def test_deterministic_only_dgp(self, rng):
        t = np.arange(120.0)
        noise = 1e-8 * rng.standard_normal((120, 2))
        z = np.column_stack([1.0 + 0.2 * t, -3.0 + 0.05 * t]) + noise
        fc = ndfm_forecast(z, k=1, h=3)
        expect = np.array([1.0 + 0.2 * (t[-1] + 3),
                           -3.0 + 0.05 * (t[-1] + 3)])
        assert np.allclose(fc[-1], expect, atol=1e-5)

    def test_forecast_path_shape_and_finiteness(self):
        z, _ = _factor_panel(15, 200, 2, seed=6)
        fc = ndfm_forecast(z, k=2, h=6)
        assert fc.shape == (6, 15)
        assert np.isfinite(fc).all()

    def test_horizon_below_one_raises(self):
        z, _ = _factor_panel(15, 200, 2, seed=6)
        with pytest.raises(ParameterError, match="horizon"):
            ndfm_forecast(z, k=2, h=0)

    def test_auto_counts_run(self):
        z, _ = _factor_panel(25, 200, 2, seed=7)
        fc = ndfm_forecast(z, h=2)
        assert fc.shape == (2, 25)
        assert np.isfinite(fc).all()


class TestFecm:
    def test_degenerate_fecm_is_plain_johansen(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((200, 3)).cumsum(axis=0)
        fc = fecm_forecast(z, targets=[0, 1, 2], h=4)
        model = johansen_ml(z, None, select_lag_bic(z, p_max=3), det="none")
        expect = vecm_iterated_forecast(model, z, h=4)
        assert np.allclose(fc, expect, atol=1e-8)

    def test_target_equal_to_factor_tracks_it(self, rng):
        f = rng.standard_normal(250).cumsum()
        lam = rng.normal(size=8)
        z = np.outer(f, lam) + 0.05 * rng.standard_normal((250, 8))
        z[:, 0] = f                     # the target is the factor itself
        fc = fecm_forecast(z, targets=[0], r_ns=1, h=1)
        assert abs(fc[-1, 0] - f[-1]) < 1.0

    def test_more_targets_and_factors_than_series_raise(self):
        # targets and levels factors all lie in the span of the N series
        z = simulate_vecm(random_vecm_params(4, 1, p=1, seed=3), 140,
                          seed=4).values
        with pytest.raises(DataError, match="exceed the 4 series"):
            fecm_forecast(z, targets=[0, 1], r_ns=3)
        assert np.isfinite(fecm_forecast(z, targets=[0, 1], r_ns=2)).all()


class TestVarBicForecast:
    def test_series_is_the_one_column_case(self, rng):
        x = rng.standard_normal(150).cumsum() * 0.1 + rng.standard_normal(150)
        for p_min in (0, 1):
            a = var_bic_forecast(x, 5, 3, p_min)
            b = var_bic_forecast(x[:, None], 5, 3, p_min)
            assert a.shape == (5,) and b.shape == (5, 1)
            assert np.array_equal(a, b[:, 0])

    def test_p_min_is_respected(self, rng):
        x = rng.standard_normal(200)
        # white noise: BIC keeps no lag, so the path is the flat mean
        flat = var_bic_forecast(x, 4, 3, 0)
        assert np.all(flat == flat[0])
        assert not np.all(var_bic_forecast(x, 4, 3, 1) == flat[0])
        # with p_min = p_max the lag is fixed: an OLS AR(2) on rows 2..T-1
        X = np.column_stack([np.ones(198), x[1:-1], x[:-2]])
        beta = np.linalg.lstsq(X, x[2:], rcond=None)[0]
        step1 = beta[0] + beta[1] * x[-1] + beta[2] * x[-2]
        step2 = beta[0] + beta[1] * step1 + beta[2] * x[-1]
        np.testing.assert_allclose(var_bic_forecast(x, 2, 2, 2),
                                   [step1, step2], rtol=0, atol=1e-12)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_stack_equals_one_system_calls(self, p, k):
        # white-noise, random-walk and AR(2) systems, so that with
        # p_min = 0 the stack holds systems of different lags; the lags
        # of a stack iterate their forecasts together
        rng = np.random.default_rng(40 + p + k)
        e = rng.standard_normal((9, 90, k))
        zs = e.copy()
        zs[3:6] = e[3:6].cumsum(axis=1)
        for t in range(2, 90):
            zs[6:, t] = 0.5 * zs[6:, t - 1] - 0.4 * zs[6:, t - 2] + e[6:, t]
        for p_min in sorted({0, p}):
            for h in (1, 2, 3):
                got = var_bic_forecast(zs, h, p, p_min)
                assert got.shape == (9, h, k)
                assert got.tobytes() == b"".join(
                    var_bic_forecast(z, h, p, p_min).tobytes() for z in zs)


def _window_stack():
    """Rolling (150, 10) windows of a cointegrated panel, among them an
    exactly collinear window (its last series copies its first), a window
    with a missing value and a window of constant series, whose factor
    paths never move."""
    params = random_vecm_params(10, 2, p=2, seed=12, phi_scale=0.45)
    z = simulate_vecm(params, 400, seed=13).values
    zs = np.stack([z[s:s + 150] for s in range(0, 250, 25)])
    zs[3, :, -1] = zs[3, :, 0]
    zs[5, 50, 2] = np.nan
    zs[7] = 1.0
    return zs


def _outcome(fn, *args, **kwargs):
    """``fn``'s forecasts as bytes, or its error's class and message."""
    try:
        return fn(*args, **kwargs).tobytes()
    except (DataError, NumericalError) as exc:
        return type(exc), str(exc)


@pytest.mark.blas_threads
class TestFactorStack:
    """``fecm_forecast`` and ``ndfm_forecast`` on a (W, T, N) stack give,
    per window, what the window gives alone, bit for bit, or the error it
    raises alone."""

    def test_fecm_equals_single_calls(self):
        zs = _window_stack()
        kw = dict(targets=[0, 9], r_ns=2, h=4, p_max=3)
        got = [f.tobytes() if isinstance(f, np.ndarray) else (type(f), str(f))
               for f in fecm_forecast(zs, **kw)]
        assert got == [_outcome(fecm_forecast, z, **kw) for z in zs]
        assert [type(g) for g in got].count(tuple) == 3
        assert got[5] == (DataError, "estimation window contains missing "
                                     "values")

    def test_fecm_lags_differ_across_the_stack(self, monkeypatch):
        from hdcoint import factors
        seen = []
        choose = factors.select_lag_bic

        def spy(*args, **kwargs):
            seen.append(choose(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(factors, "select_lag_bic", spy)
        fecm_forecast(_window_stack(), targets=[0, 9], r_ns=2)
        assert len({lag for lag in seen[0] if isinstance(lag, int)}) > 1

    @pytest.mark.parametrize("k", [2, None])
    def test_ndfm_equals_single_calls(self, k, monkeypatch):
        from hdcoint import factors
        failed = []
        fit = factors.johansen_ml

        def spy(*args, **kwargs):
            out = fit(*args, **kwargs)
            failed.extend(isinstance(m, Exception) for m in out)
            return out

        monkeypatch.setattr(factors, "johansen_ml", spy)
        zs = _window_stack()
        got = [f.tobytes() if isinstance(f, np.ndarray) else (type(f), str(f))
               for f in ndfm_forecast(zs, k=k, h=3)]
        stacked = list(failed)
        assert got == [_outcome(ndfm_forecast, z, k=k, h=3) for z in zs]
        assert got[5] == (DataError, "estimation window contains missing "
                                     "values")
        assert stacked == failed[len(stacked):]
        # the constant window's factor VECM is singular, so its factors
        # keep their last value; with k=None it counts no factor at all
        assert stacked.count(True) == (k == 2) and False in stacked

    def test_argument_errors_raise_for_the_stack(self):
        zs = _window_stack()[:3]
        with pytest.raises(DataError, match="exceed the 10 series"):
            fecm_forecast(zs, targets=[0, 1], r_ns=9)
        with pytest.raises(ParameterError, match="horizon"):
            ndfm_forecast(zs, k=2, h=0)
        with pytest.raises(ParameterError, match="horizon"):
            fecm_forecast(zs, targets=[0, 1], r_ns=1, h=0)
        with pytest.raises(ParameterError, match="factor count"):
            ndfm_forecast(zs, k=11)
