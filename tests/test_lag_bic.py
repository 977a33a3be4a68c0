"""Lag-by-BIC choices against the per-lag searches they replaced.

``var_bic_forecast`` and ``select_lag_bic`` score every candidate lag
from one QR of the largest design.  The references below are the
per-lag searches they replaced: each candidate refitted by ``lstsq``,
its residual covariance scored by ``slogdet``.  On well-posed inputs the
chosen lags must agree and the forecasts must match bit for bit.
"""

import sys

import numpy as np
import pytest

from hdcoint import (DataError, HarnessConfig, ar_benchmark, fecm_forecast,
                     run_rolling, select_lag_bic, var_bic_forecast)
from hdcoint import factors
from hdcoint.harness import _REGISTRY, _Window
from hdcoint.panel import DeterministicSpec, invert_differences
from hdcoint.vecm import _ec_design


def var_bic_reference(x, h, p_max, p_min):
    """(lag, path) of the per-lag VAR search."""
    v = np.asarray(x, dtype=float)
    z = v.reshape(v.shape[0], -1)
    T, k = z.shape
    p_max = max(p_min, min(p_max, (T - k - 2) // (k + 1)))
    n = T - p_max
    lagged = np.hstack([np.ones((n, 1))] +
                       [z[p_max - j:T - j] for j in range(1, p_max + 1)])
    best = (np.inf, p_min, None)
    for p in range(p_min, p_max + 1):
        X = lagged[:, :1 + k * p]
        beta, *_ = np.linalg.lstsq(X, z[p_max:], rcond=None)
        E = z[p_max:] - X @ beta
        sign, logdet = np.linalg.slogdet(E.T @ E / n + 1e-12 * np.eye(k))
        bic = n * logdet + np.log(n) * k * (k * p + 1) if sign > 0 else -np.inf
        if bic < best[0]:
            best = (bic, p, beta)
        if sign <= 0:
            break
    _, p, beta = best
    hist = [z[-j] for j in range(1, p + 1)]
    path = np.empty((h, k))
    for s in range(h):
        row = beta[0] + sum(hist[j - 1] @ beta[1 + (j - 1) * k: 1 + j * k]
                            for j in range(1, p + 1))
        path[s] = row
        hist = [row] + hist[:-1]
    return p, (path if v.ndim > 1 else path[:, 0])


def select_lag_reference(z, p_max, det):
    """The per-lag VECM search: trimmed design per order, slogdet score."""
    N = z.shape[1]
    best_p, best = 0, np.inf
    for p in range(p_max + 1):
        y0, y1, W, _ = _ec_design(z, p, det)
        trim = p_max - p
        y0, y1, W = y0[trim:], y1[trim:], W[trim:]
        X = np.column_stack([y1, W])
        n = y0.shape[0]
        if n <= X.shape[1] + 1:
            break
        coef, *_ = np.linalg.lstsq(X, y0, rcond=None)
        resid = y0 - X @ coef
        sign, logdet = np.linalg.slogdet(resid.T @ resid / n)
        if sign <= 0:
            continue
        bic = logdet + np.log(n) * N * X.shape[1] / n
        if bic < best:
            best_p, best = p, bic
    return best_p


def _fitted_lags(monkeypatch, x, h, p_max, p_min):
    """``var_bic_forecast``'s output and the lag of every lstsq fit it made."""
    k = 1 if np.ndim(x) == 1 else np.shape(x)[-1]
    widths, lstsq = [], np.linalg.lstsq

    def spy(a, b, rcond=None):
        widths.append(a.shape[1])
        return lstsq(a, b, rcond=rcond)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", spy)
        out = var_bic_forecast(x, h, p_max, p_min)
    return out, [(w - 1) // k for w in widths]


def _series(rng, kind, T, k):
    """White noise, a stable VAR(2), a random walk, or an I(2) path whose
    lags are nearly collinear."""
    e = rng.standard_normal((T, k))
    if kind == 0:
        return e
    if kind == 1:
        a1 = 0.5 * np.eye(k) + 0.1 * rng.standard_normal((k, k)) / k
        x = e.copy()
        for t in range(2, T):
            x[t] += x[t - 1] @ a1.T - 0.3 * x[t - 2]
        return x
    if kind == 2:
        return e.cumsum(axis=0)
    return e.cumsum(axis=0).cumsum(axis=0)


def test_var_bic_matches_per_lag_search(monkeypatch):
    rng = np.random.default_rng(20)
    lags_seen = set()
    for i in range(240):
        k, kind = 1 + i % 6, (i // 6) % 4
        p_max, p_min = i % 5, (i // 5) % 2
        T = int(rng.integers(20, 201))
        x = _series(rng, kind, T, k) * 10.0 ** rng.choice([-6, 0, 6])
        x = x[:, 0] if k == 1 and i % 2 else x
        want_p, want = var_bic_reference(x, 3, p_max, p_min)
        got, fitted = _fitted_lags(monkeypatch, x, 3, p_max, p_min)
        assert fitted == [want_p], (i, k, T, p_max, p_min)
        assert got.shape == want.shape and np.array_equal(got, want), i
        lags_seen.add(want_p)
    assert lags_seen == {0, 1, 2, 3, 4}


def test_var_bic_singular_lag_does_not_depend_on_scale(monkeypatch):
    # two identical columns: every candidate's residual covariance is
    # singular, so the first lag wins at any scale; a sign test on the
    # regularized determinant read rounding noise from scale 1e3 up
    for seed in range(8):
        w = np.random.default_rng(seed).standard_normal(150).cumsum()
        for scale in (1e-3, 1.0, 1e3, 1e6):
            x = np.column_stack([w, w]) * scale
            _, fitted = _fitted_lags(monkeypatch, x, 2, 3, 1)
            assert fitted == [1], (seed, scale)


def test_stack_equals_single_calls(monkeypatch):
    rng = np.random.default_rng(21)
    for k in (1, 2, 3):
        x = np.stack([_series(rng, kind, 90, k) * scale
                      for kind in range(4) for scale in (1e-6, 1.0, 1e6)])
        got, fitted = _fitted_lags(monkeypatch, x, 4, 3, 0)
        assert got.shape == (12, 4, k)
        singles = [_fitted_lags(monkeypatch, s, 4, 3, 0) for s in x]
        assert fitted == [lag for _, (lag,) in singles]
        assert len(set(fitted)) > 1
        for b, (path, _) in enumerate(singles):
            assert np.array_equal(got[b], path), (k, b)


def _levels(rng, kind, T, N):
    """Random walks (kind 0), cumulated VAR(2) differences (1), I(2) paths
    whose lagged differences are nearly collinear (2), or one common trend
    plus noise (3, cointegrated)."""
    if kind == 3:
        return rng.standard_normal((T, 1)).cumsum(axis=0) \
            + rng.standard_normal((T, N))
    return _series(rng, kind, T, N).cumsum(axis=0)


def test_select_lag_bic_matches_per_lag_search():
    rng = np.random.default_rng(22)
    dets = list(DeterministicSpec)
    picks = set()
    for i in range(240):
        N, p_max, det = 1 + i % 6, i % 5, dets[(i // 5) % 3]
        # at least N residual degrees of freedom for every candidate: with
        # fewer its covariance is singular by construction, a case that
        # test_singular_candidates_are_skipped covers
        need = (N + 1) * (p_max + 2) + 4
        T = int(rng.integers(max(20, need), 201))
        z = _levels(rng, (i // 15) % 4, T, N) * 10.0 ** rng.choice([-6, 0, 6])
        got = select_lag_bic(z, p_max=p_max, det=det)
        assert got == select_lag_reference(z, p_max, det), (i, N, T, p_max, det)
        picks.add(got)
    assert {0, 1, 2, 3} <= picks


def test_select_lag_bic_short_windows():
    # one equation is never singular by construction, so every window
    # length down to two rows compares; the last candidates keep exactly
    # two residual degrees of freedom
    rng = np.random.default_rng(26)
    for det in DeterministicSpec:
        for p_max in range(5):
            for T in range(2, 17):
                z = rng.standard_normal((T, 1)).cumsum(axis=0)
                assert select_lag_bic(z, p_max=p_max, det=det) == \
                    select_lag_reference(z, p_max, det), (det, p_max, T)


@pytest.mark.parametrize("det", ["none", "mean", "trend"])
def test_singular_candidates_are_skipped(det):
    rng = np.random.default_rng(23)
    w = rng.standard_normal((120, 2))
    duplicated = np.cumsum(w[:, [0, 1, 0]], axis=0)
    constant = np.column_stack([w.cumsum(axis=0), np.full(120, 3.0)])
    for z in (duplicated, constant):
        assert select_lag_bic(z, p_max=3, det=det) == 0
    # three equations: order 1 keeps two residual degrees of freedom, so
    # its residual covariance is singular and order 0 is the only choice
    T = 12 + ["none", "mean", "trend"].index(det)
    z = rng.standard_normal((T, 3)).cumsum(axis=0)
    assert select_lag_bic(z, p_max=3, det=det) == 0


def test_grouped_ar_lane_equals_single_benchmarks():
    rng = np.random.default_rng(24)
    values = np.column_stack([_series(rng, kind, 80, 1)[:, 0]
                              for kind in (0, 1, 2, 3, 2, 1)])
    orders = np.array([0, 0, 1, 2, 1, 1])
    cfg = HarnessConfig(window=80, horizons=(0, 1, 3), methods=("ar",))
    targets = np.array([0, 1, 2, 3, 4])
    ctx = _Window(values, targets, cfg.horizons, orders, cfg, 0)
    got = _REGISTRY["ar"](ctx)
    assert len(got) == 15
    for ti in targets:
        d = int(orders[ti])
        panel, det = ctx.now_parts(ti)
        assert got[(ti, 0)] == det + ar_benchmark(panel[:, ti], d, 3, 0)
        for h in (1, 3):
            v = ctx.resid[:, ti]
            want = ar_benchmark(v, d, 3, h)
            _, path = var_bic_reference(np.diff(v, n=d), h, 3, 0)
            assert want == float(invert_differences(v, path, d)[-1])
            assert got[(ti, h)] == ctx.deterministic(ti, h) + want


def test_fecm_factors_of_an_all_target_panel_raise():
    rng = np.random.default_rng(25)
    z = rng.standard_normal((150, 3)).cumsum(axis=0)
    with pytest.raises(DataError):
        fecm_forecast(z, r_ns=1, det="none")
    with pytest.raises(DataError):
        fecm_forecast(z, targets=[2, 0, 1], r_ns=1, det="none")
    assert np.isfinite(fecm_forecast(z, targets=[0, 1], r_ns=1,
                                     det="none")).all()
    cfg = HarnessConfig(window=60, horizons=(1,), methods=("ar", "fecm"),
                        factors=1, boot_reps=199)
    report = run_rolling(z[:70], cfg)
    failed = [d for d in report.diagnostics if d[3] == "fecm"]
    assert len(failed) == len(report.window_starts)
    assert all("singular" in d[4] for d in failed)


def test_lag_cap_reaches_the_factor_lanes(monkeypatch):
    # the fecm lane's lag search, the NDFM factor VECM's and the NDFM
    # idiosyncratic ARs all take HarnessConfig.p_max
    seen = set()

    def spy(fn, cap):
        def wrapped(*args, **kwargs):
            p_max = cap(*args, **kwargs)
            seen.add((sys._getframe(1).f_code.co_name, p_max))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(factors, "select_lag_bic", spy(
        factors.select_lag_bic, lambda z, p_max=3, det=None: p_max))
    monkeypatch.setattr(factors, "var_bic_forecast", spy(
        factors.var_bic_forecast, lambda x, h, p_max, p_min: p_max))
    rng = np.random.default_rng(26)
    z = rng.standard_normal((62, 4)).cumsum(axis=0)
    cfg = HarnessConfig(window=60, horizons=(1,), methods=("ar", "fecm",
                        "ndfm"), targets=(0,), factors=1, boot_reps=199,
                        p_max=1)
    report = run_rolling(z, cfg)
    assert not report.diagnostics
    assert seen == {("fecm_forecast", 1), ("_factor_path", 1),
                    ("ndfm_forecast", 1)}
