"""Sparse-group solver, SPECS and PADL selectors, CV tuning.

The solver is checked against a sign-pattern enumeration oracle: with
three predictors every support/sign combination admits a closed-form
stationarity solution, so the global minimizer can be found exhaustively.
"""

import itertools

import numpy as np
import pytest

from hdcoint import (ParameterError, PenaltyConfig, SingleEqDesign,
                     from_values, kkt_residual, padl_fit, random_vecm_params,
                     sgl_solve, simulate_vecm, specs_fit, tscv_tune)
from hdcoint import singleeq


def _design(rng, n=80, nz=1, nw=2, beta=None):
    X = rng.standard_normal((n, nz + nw))
    if beta is None:
        beta = rng.normal(size=nz + nw)
    y = X @ beta + 0.3 * rng.standard_normal(n)
    return SingleEqDesign("y", y, X[:, :nz], X[:, nz:],
                          tuple(f"z{i}" for i in range(nz)),
                          tuple(f"w{j}" for j in range(nw)))


def _brute_force(design, cfg):
    """Global minimizer by enumeration of all 3^k sign patterns.

    Effective L1 strength: the singleton delta group contributes
    lam_group + lam_levels * weight; each pi coordinate lam_w * weight.
    Pattern feasibility follows the stationarity conditions of the
    objective ||y - X theta||^2 + sum pen_i |theta_i|.
    """
    X = np.hstack([design.levels, design.w])
    y = design.response
    init, *_ = np.linalg.lstsq(X, y, rcond=None)
    nz = design.levels.shape[1]
    assert nz == 1, "oracle assumes a singleton levels group"
    pen = np.empty(X.shape[1])
    pen[0] = cfg.lam_group + cfg.lam_levels / abs(init[0])
    pen[1:] = cfg.lam_w / np.abs(init[1:])
    best, best_obj = None, np.inf
    for signs in itertools.product((-1, 0, 1), repeat=X.shape[1]):
        s = np.array(signs, dtype=float)
        active = s != 0
        theta = np.zeros(X.shape[1])
        if active.any():
            Xa = X[:, active]
            rhs = 2.0 * Xa.T @ y - pen[active] * s[active]
            theta[active] = np.linalg.solve(2.0 * Xa.T @ Xa, rhs)
            if not np.all(np.sign(theta[active]) == s[active]):
                continue
        resid = y - X @ theta
        slack = np.abs(2.0 * X[:, ~active].T @ resid) - pen[~active]
        if slack.size and slack.max() > 1e-9:
            continue
        obj = resid @ resid + pen @ np.abs(theta)
        if obj < best_obj:
            best, best_obj = theta, obj
    return best


class TestSolver:
    def test_zero_penalty_is_ols(self, rng):
        design = _design(rng, nz=2, nw=3)
        delta, pi, _ = sgl_solve(design, PenaltyConfig())
        X = np.hstack([design.levels, design.w])
        ols, *_ = np.linalg.lstsq(X, design.response, rcond=None)
        assert np.allclose(np.concatenate([delta, pi]), ols, atol=1e-8)

    def test_huge_group_penalty_zeroes_delta_exactly(self, rng):
        design = _design(rng, nz=3, nw=4)
        delta, pi, _ = sgl_solve(design, PenaltyConfig(lam_group=1e8))
        assert np.all(delta == 0.0)
        assert np.any(pi != 0.0)

    def test_three_predictor_brute_force(self, rng):
        for trial in range(25):
            beta = rng.normal(size=3) * rng.integers(0, 2, size=3)
            design = _design(rng, n=60, nz=1, nw=2, beta=beta)
            cfg = PenaltyConfig(lam_group=rng.uniform(0, 8),
                                lam_levels=rng.uniform(0, 8),
                                lam_w=rng.uniform(0, 8))
            delta, pi, _ = sgl_solve(design, cfg)
            oracle = _brute_force(design, cfg)
            got = np.concatenate([delta, pi])
            assert np.max(np.abs(got - oracle)) < 1e-6

    def test_kkt_residual_bound_random_suite(self, rng):
        for _ in range(40):
            nz = int(rng.integers(1, 4))
            nw = int(rng.integers(1, 6))
            design = _design(rng, n=70, nz=nz, nw=nw)
            cfg = PenaltyConfig(lam_group=rng.uniform(0, 5),
                                lam_levels=rng.uniform(0, 5),
                                lam_w=rng.uniform(0, 5))
            delta, pi, diag = sgl_solve(design, cfg)
            assert diag["kkt"] <= 1e-6
            assert kkt_residual(design, cfg, delta, pi) <= 1e-6

    def test_warm_start_matches_cold_random_suite(self, rng):
        for _ in range(40):
            nz = int(rng.integers(1, 4))
            nw = int(rng.integers(1, 6))
            design = _design(rng, n=70, nz=nz, nw=nw)
            first, second = (PenaltyConfig(lam_group=rng.uniform(0, 5),
                                           lam_levels=rng.uniform(0, 5),
                                           lam_w=rng.uniform(0, 5))
                             for _ in range(2))
            d1, p1, _ = sgl_solve(design, first)
            d2, p2, _ = sgl_solve(design, second)
            dw, pw, diag = sgl_solve(design, second, start=(d1, p1))
            assert diag["kkt"] <= 1e-6
            assert kkt_residual(design, second, dw, pw) <= 1e-6
            assert np.max(np.abs(np.concatenate([dw - d2, pw - p2]))) < 1e-7

    def test_start_on_excluded_coordinates_is_ignored(self, rng):
        # five rows for five columns take the ridge start, where a zero
        # column gets an exactly zero estimate, so infinite weight: the
        # start value there must not leak in
        design = _design(rng, n=5, nz=2, nw=3)
        Z, W = design.levels.copy(), design.w.copy()
        Z[:, 1] = 0.0
        W[:, 0] = 0.0
        design = SingleEqDesign("y", design.response, Z, W,
                                design.level_labels, design.w_labels)
        cfg = PenaltyConfig(lam_group=0.5, lam_levels=0.5, lam_w=0.5)
        d0, p0, diag0 = sgl_solve(design, cfg)
        assert diag0["initializer"] == "ridge"
        start = (np.array([0.0, 3.0]), np.array([-2.0, 0.0, 0.0]))
        d1, p1, diag1 = sgl_solve(design, cfg, start=start)
        assert d0[1] == 0.0 and p0[0] == 0.0
        assert np.array_equal(d0, d1) and np.array_equal(p0, p1)
        assert diag0["sweeps"] == diag1["sweeps"]

    def test_solver_diagnostics(self, rng):
        design = _design(rng, n=70, nz=2, nw=4)
        _, _, diag = sgl_solve(design, PenaltyConfig(lam_levels=2.0,
                                                     lam_w=2.0))
        assert diag["solver"] == "path" and diag["sweeps"] == 0
        assert diag["steps"] >= 1
        _, _, diag = sgl_solve(design, PenaltyConfig(
            lam_group=3.0, lam_levels=2.0, lam_w=2.0))
        # the finish ends the descent with an exact solution
        assert diag["solver"] == "active-set" and diag["kkt"] <= 1e-12
        assert diag["sweeps"] >= 1

    def test_scaling_contract_at_fitted_values(self, rng):
        # rescaling a w column changes coefficients but, with adaptive
        # weights recomputed from the rescaled initializer, not the fit
        design = _design(rng, nz=1, nw=3)
        cfg = PenaltyConfig(lam_group=1.0, lam_levels=1.0, lam_w=1.0)
        d1, p1, _ = sgl_solve(design, cfg)
        w2 = design.w.copy()
        w2[:, 1] *= 50.0
        scaled = SingleEqDesign(design.target, design.response,
                                design.levels, w2, design.level_labels,
                                design.w_labels)
        d2, p2, _ = sgl_solve(scaled, cfg)
        fit1 = design.levels @ d1 + design.w @ p1
        fit2 = scaled.levels @ d2 + scaled.w @ p2
        assert np.allclose(fit1, fit2, atol=1e-8)


def _grid_path(design, lams):
    """Path solutions at ``lams`` and the shared weights and Gram."""
    gram = singleeq._gram(design)
    return singleeq._lasso_path(gram.G, gram.c, gram.weights, lams)[0], gram


def _descent(design, cfg, monkeypatch):
    """Pure block coordinate descent to a stationarity violation below
    1e-13: no path, no active-set finish."""
    with monkeypatch.context() as m:
        m.setattr(singleeq, "_TOL", 1e-13)
        m.setattr(singleeq, "_MAX_SWEEPS", 200_000)
        m.setattr(singleeq, "_lasso_path",
                  lambda G, c, unit, lams: ([None] * len(lams), 0))
        m.setattr(singleeq, "_active_set", lambda *args: None)
        delta, pi, diag = sgl_solve(design, cfg)
    assert diag["solver"] == "cd"
    return np.concatenate([delta, pi])


def _path_kkt(gram, nz, lam, theta):
    pen = singleeq._l1_penalties(gram.weights, nz, PenaltyConfig(
        lam_levels=lam, lam_w=lam))
    raw, scale = singleeq._kkt(gram.c - gram.G @ theta, gram.c, theta, nz,
                               0.0, pen)
    return raw / scale


class TestPath:
    """The weighted-lasso homotopy against enumeration and descent."""

    def _lams(self, design):
        gram = singleeq._gram(design)
        fin = np.isfinite(gram.weights)
        top = np.max(np.abs(2.0 * gram.c[fin]) / gram.weights[fin])
        return list(top * np.array([0.9, 0.3, 0.05, 0.003]))

    def test_matches_brute_force_and_descent(self, rng, monkeypatch):
        for _ in range(10):
            beta = rng.normal(size=3) * rng.integers(0, 2, size=3)
            design = _design(rng, n=60, nz=1, nw=2, beta=beta)
            lams = self._lams(design)
            path, gram = _grid_path(design, lams)
            for lam, theta in zip(lams, path):
                cfg = PenaltyConfig(lam_levels=lam, lam_w=lam)
                assert np.max(np.abs(theta - _brute_force(design, cfg))) < 1e-9
                assert np.max(np.abs(
                    theta - _descent(design, cfg, monkeypatch))) < 1e-9
                assert _path_kkt(gram, 1, lam, theta) <= 1e-12

    def test_drop_and_rejoin_match_brute_force(self):
        # correlated columns: one coordinate leaves the path and later
        # rejoins with the other sign
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 3))
        y = X @ rng.standard_normal(3) + 0.5 * rng.standard_normal(30)
        design = SingleEqDesign("y", y, X[:, :1], X[:, 1:], ("z0",),
                                ("w0", "w1"))
        top = self._lams(design)[0] / 0.9
        lams = list(top * np.geomspace(0.999, 1e-4, 200))
        path, gram = _grid_path(design, lams)
        support = [set(np.flatnonzero(theta)) for theta in path]
        assert any(a - b for a, b in zip(support, support[1:]))   # a drop
        for lam, theta in zip(lams, path):
            cfg = PenaltyConfig(lam_levels=lam, lam_w=lam)
            assert np.max(np.abs(theta - _brute_force(design, cfg))) < 1e-9

    @pytest.mark.parametrize("n, nz, nw, initializer", [
        (80, 2, 8, "ols"), (20, 4, 26, "ridge")])
    def test_matches_descent(self, rng, monkeypatch, n, nz, nw, initializer):
        # more rows than columns start from OLS, else from ridge
        design = _design(rng, n=n, nz=nz, nw=nw,
                         beta=rng.normal(size=nz + nw)
                         * (rng.uniform(size=nz + nw) < 0.3))
        lams = self._lams(design)
        path, gram = _grid_path(design, lams)
        assert gram.tag == initializer
        for lam, theta in zip(lams, path):
            cfg = PenaltyConfig(lam_levels=lam, lam_w=lam)
            assert np.max(np.abs(theta - _descent(design, cfg, monkeypatch))
                          ) < 1e-9
            assert _path_kkt(gram, nz, lam, theta) <= 1e-12

    def test_zero_column_never_enters(self, rng):
        design = _design(rng, n=50, nz=2, nw=4)
        W = design.w.copy()
        W[:, 1] = 0.0
        design = SingleEqDesign("y", design.response, design.levels, W,
                                design.level_labels, design.w_labels)
        lams = self._lams(design) + [0.0]
        path, gram = _grid_path(design, lams)
        for lam, theta in zip(lams, path):
            assert theta[3] == 0.0
            assert _path_kkt(gram, 2, lam, theta) <= 1e-12

    def test_identical_columns_fall_back_without_raising(self, rng):
        design = _design(rng, n=50, nz=1, nw=4)
        W = design.w.copy()
        W[:, 3] = W[:, 2]
        design = SingleEqDesign("y", design.response, design.levels, W,
                                design.level_labels, design.w_labels)
        lams = self._lams(design) + [0.0]
        path, gram = _grid_path(design, lams)
        assert path[-1] is None   # lam = 0 needs both twins: singular
        for lam, theta in zip(lams, path):
            if theta is not None:
                assert _path_kkt(gram, 1, lam, theta) <= 1e-12
            local = PenaltyConfig(lam_levels=lam, lam_w=lam)
            delta, pi, diag = sgl_solve(design, local)
            assert diag["kkt"] <= 1e-6
            assert kkt_residual(design, local, delta, pi) <= 1e-6


class TestCarriedFactor:
    """The path borders one inverse of G[S, S] from event to event and
    refactors it on a drop; the Newton finish builds one support's parts
    once.  Neither may drift from a fresh solve."""

    def test_long_path_equals_a_fresh_solve_on_each_support(self):
        rng = np.random.default_rng(0)
        n, m = 160, 64
        # a common factor makes the columns correlated, so some drop
        X = rng.standard_normal((n, m)) + 0.8 * rng.standard_normal((n, 1))
        beta = rng.standard_normal(m) * (rng.uniform(size=m) < 0.5)
        y = X @ beta + rng.standard_normal(n)
        G, c = X.T @ X, X.T @ y
        unit = rng.uniform(0.5, 2.0, m)
        top = np.max(np.abs(2.0 * c) / unit)
        lams = list(top * np.geomspace(0.99, 1e-6, 40))
        path, events = singleeq._lasso_path(G, c, unit, lams)
        assert events > m   # more events than columns: some dropped
        for lam, theta in zip(lams, path):
            S = np.flatnonzero(theta)
            want = np.linalg.solve(G[np.ix_(S, S)],
                                   c[S] - 0.5 * lam * unit[S]
                                   * np.sign(theta[S]))
            assert np.max(np.abs(theta[S] - want)) \
                <= 1e-10 * np.max(np.abs(want))

    def test_path_stops_when_no_event_is_left(self, rng):
        # orthogonal columns: every coordinate joins once and none drops;
        # at lam = 0 nothing is left to join and the path stops
        Q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        X = Q * np.arange(1.0, 7.0)
        y = rng.standard_normal(40)
        G, c = X.T @ X, X.T @ y
        (theta,), events = singleeq._lasso_path(G, c, np.ones(6), [0.0])
        assert events == 6
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(theta, ols, rtol=0.0, atol=1e-12)

    def test_active_set_through_a_drop_and_an_add_matches_descent(
            self, monkeypatch):
        rng = np.random.default_rng(0)
        nz, nw = 2, 6
        X = rng.standard_normal((80, nz + nw))
        y = X @ np.array([0.8, -0.5, 1.0, 0.0, -0.7, 0.0, 0.4, 0.0]) \
            + 0.5 * rng.standard_normal(80)
        design = SingleEqDesign("y", y, X[:, :nz], X[:, nz:], ("z0", "z1"),
                                tuple(f"w{j}" for j in range(nw)))
        cfg = PenaltyConfig(lam_group=5.0, lam_levels=2.0, lam_w=2.0)
        want = _descent(design, cfg, monkeypatch)
        assert want[:nz].all()   # the group is active
        gram = singleeq._gram(design)
        pen = singleeq._l1_penalties(gram.weights, nz, cfg)
        on = nz + np.flatnonzero(want[nz:])
        off = nz + np.flatnonzero(want[nz:] == 0)
        start = want.copy()
        start[on[0]] = 0.0   # must come back as a KKT violator
        q = gram.c - gram.G @ want
        start[off[0]] = -0.05 * np.sign(q[off[0]])   # must flip and drop
        scale = max(1.0, np.max(np.abs(2.0 * gram.c)))
        theta, steps = singleeq._active_set(gram.G, gram.c, start, nz,
                                            cfg.lam_group, pen, scale)
        # coordinates leave only by a sign flip, enter only as violators
        assert theta[off[0]] == 0.0 and theta[on[0]] != 0.0
        assert steps > 2
        assert np.max(np.abs(theta - want)) < 1e-9


class TestSpecs:
    def _coint_panel(self, T, n_noise, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(T).cumsum()
        y = np.empty(T)
        y[0] = x[0]
        eps = rng.standard_normal(T)
        for t in range(1, T):
            y[t] = y[t - 1] - 0.5 * (y[t - 1] - x[t - 1]) + eps[t]
        noise = rng.standard_normal((T, n_noise)).cumsum(axis=0)
        values = np.column_stack([y, x, noise])
        names = ["y", "x"] + [f"n{i}" for i in range(n_noise)]
        return from_values(values, names=names)

    def test_design_block_dimensions(self):
        panel = self._coint_panel(120, 3, 0)
        fit = specs_fit(panel, "y", p=2, h=1)
        n = 5
        assert len(fit.level_labels) == n
        assert len(fit.w_labels) == n * 3 - 1

    def test_error_correction_pair_selected(self):
        hits = 0
        for seed in range(10):
            panel = self._coint_panel(200, 8, seed)
            fit = specs_fit(panel, "y", p=1, h=1)
            d = dict(zip(fit.level_labels, fit.delta))
            ok = d["y"] != 0 and d["x"] != 0 and np.sign(d["y"]) != np.sign(d["x"])
            hits += ok
        assert hits >= 8

    def test_pure_random_walks_drop_the_group(self, rng):
        hits = 0
        for seed in range(10):
            z = np.random.default_rng(100 + seed).standard_normal(
                (200, 6)).cumsum(axis=0)
            fit = specs_fit(from_values(z), "s1", p=1, h=1)
            hits += np.all(fit.delta == 0.0)
        assert hits >= 6

    def test_nowcast_ignores_final_target_value(self):
        panel = self._coint_panel(150, 2, 3)
        values = panel.values.copy()
        fit_a = specs_fit(from_values(values, names=list(panel.names)),
                          "y", p=1, h=0)
        values[-1, 0] = 1e6            # future value must never be read
        fit_b = specs_fit(from_values(values, names=list(panel.names)),
                          "y", p=1, h=0)
        assert fit_a.forecast == fit_b.forecast
        assert np.array_equal(fit_a.delta, fit_b.delta)

    def test_forecast_assembly_identity(self):
        panel = self._coint_panel(150, 2, 4)
        fit = specs_fit(panel, "y", p=1, h=2)
        # anchor is the last observed target level
        assert fit.anchor == panel.values[-1, 0]
        assert fit.h == 2

    def test_window_too_short(self):
        panel = self._coint_panel(12, 2, 5)
        with pytest.raises(Exception):
            specs_fit(panel, "y", p=3, h=6)

    @pytest.mark.parametrize("p, h", [(-1, 1), (1, -1)])
    def test_negative_lag_or_horizon_rejected(self, p, h):
        # h = -1 would fit on the last target value, p = -1 would index row -1
        panel = self._coint_panel(80, 1, 7)
        with pytest.raises(ParameterError):
            specs_fit(panel, "y", p=p, h=h)
        with pytest.raises(ParameterError):
            padl_fit(panel, "y", [1, 1, 1], p=p, h=h)


class TestHighDimensional:
    def test_specs_converges_at_n20(self):
        # N=20, T=120, p=3: CV folds of up to 103 rows by 99 columns, which
        # coordinate descent alone could not finish within 10,000 sweeps
        panel = simulate_vecm(random_vecm_params(20, 4, p=1, seed=2),
                              T=120, seed=3)
        fit = specs_fit(panel, "s01", p=3, h=1)
        assert fit.diagnostics["kkt"] <= 1e-6
        assert np.isfinite(fit.forecast)

    def test_initializer_runs_once_per_fold(self, monkeypatch):
        calls = []
        real = singleeq._initial_estimates

        def counted(X, y):
            calls.append(X.shape)
            return real(X, y)

        monkeypatch.setattr(singleeq, "_initial_estimates", counted)
        params = random_vecm_params(8, 2, p=1, seed=8)
        specs_fit(simulate_vecm(params, T=121, seed=9), "s2", p=3, h=1)
        # five folds plus the full sample shared by grid scale and final fit
        assert len(calls) <= 6


class TestPinnedSelection:
    """Chosen penalties and supports, recorded before the solver moved to
    Gram form and warm-started cross-validation."""

    def _panel(self):
        params = random_vecm_params(8, 2, p=1, seed=8,
                                    adjust_range=(0.4, 0.8), phi_scale=0.5)
        return simulate_vecm(params, T=150, seed=108)

    def test_specs(self):
        fit = specs_fit(self._panel(), "s2", p=1, h=1)
        lam = (fit.lambdas["group"], fit.lambdas["levels"], fit.lambdas["w"])
        assert lam == pytest.approx(
            (37.534644202531624, 10.027219406682748, 10.027219406682748),
            rel=1e-12)
        assert sorted(fit.nonzero()) == ["d.s1", "d.s6", "d.s7", "s3", "s4"]
        assert fit.forecast == pytest.approx(1.3312792498590407, rel=1e-6)

    def test_padl(self):
        fit = padl_fit(self._panel(), "s2", orders=[1] * 8, p=1, h=1)
        lam = (fit.lambdas["group"], fit.lambdas["levels"], fit.lambdas["w"])
        assert lam == pytest.approx((0.0, 0.0, 11.31117773229144), rel=1e-12)
        assert sorted(fit.nonzero()) == ["t.s1", "t.s7"]
        assert fit.forecast == pytest.approx(1.3986706094839692, rel=1e-6)


class TestPadl:
    def _panel(self, seed, T=180):
        rng = np.random.default_rng(seed)
        i0 = rng.standard_normal(T)
        i1 = rng.standard_normal(T).cumsum()
        i2 = rng.standard_normal(T).cumsum().cumsum()
        return from_values(np.column_stack([i0, i1, i2]),
                           names=["a", "b", "c"])

    def test_response_anchor_by_order(self):
        panel = self._panel(0)
        z = panel.values
        h = 3
        # I(0) target: the forecast is a level, anchored at zero
        f0 = padl_fit(panel, "a", orders=[0, 1, 2], p=2, h=h)
        assert f0.anchor == 0.0
        # I(1): anchored at the last level
        f1 = padl_fit(panel, "b", orders=[0, 1, 2], p=2, h=h)
        assert f1.anchor == z[-1, 1]
        # I(2): the response subtracts one lagged difference, so the
        # anchor adds it back once
        f2 = padl_fit(panel, "c", orders=[0, 1, 2], p=2, h=h)
        assert f2.anchor == pytest.approx(
            z[-1, 2] + (z[-1, 2] - z[-2, 2]), abs=1e-12)

    def test_huge_lambda_gives_anchor_forecast(self):
        panel = self._panel(1)
        fit = padl_fit(panel, "b", orders=[0, 1, 2], p=2, h=2,
                       lambda_grid=[1e9])
        assert np.all(fit.pi == 0.0)
        assert fit.forecast == pytest.approx(fit.anchor + fit.intercept)

    def test_equals_specs_with_group_removed(self, rng):
        # on an all-I(1) panel both selectors see the same w block, so
        # forcing the SPECS group to zero with identical lambda reproduces
        # the PADL coefficients
        z = rng.standard_normal((160, 4)).cumsum(axis=0)
        panel = from_values(z, names=["t", "u", "v", "w"])
        lam = 25.0
        a = specs_fit(panel, "t", p=2, h=1, lambda_grid=[(1e9, 0.0, lam)])
        b = padl_fit(panel, "t", orders=[1, 1, 1, 1], p=2, h=1,
                     lambda_grid=[lam])
        assert np.all(a.delta == 0.0)
        assert np.allclose(a.pi, b.pi, atol=1e-6)
        assert a.forecast == pytest.approx(b.forecast, abs=1e-6)

    def test_i2_needs_no_levels_leak(self):
        panel = self._panel(2)
        values = panel.values.copy()
        values[-1, 2] = values[-1, 2]  # unchanged; fit twice for identity
        f1 = padl_fit(panel, "c", orders=[0, 1, 2], p=1, h=1)
        f2 = padl_fit(from_values(values, names=["a", "b", "c"]), "c",
                      orders=[0, 1, 2], p=1, h=1)
        assert f1.forecast == f2.forecast


class TestGridRule:
    """A grid entry is a scalar lam_w or a triple of finite, non-negative
    levels; PADL, which has no levels block, takes no group or levels
    term."""

    def _panel(self):
        z = np.random.default_rng(7).standard_normal((90, 3)).cumsum(axis=0)
        return from_values(z, names=["t", "u", "v"])

    @pytest.mark.parametrize("entry", [(5.0, 0.3), (1.0, 1.0, 1.0, 1.0),
                                       np.nan, (0.0, np.nan, 1.0), -1.0,
                                       (np.inf, 0.0, 1.0), [[1.0]]])
    def test_bad_entries_raise(self, entry):
        for fit in (lambda g: specs_fit(self._panel(), "t", p=1,
                                        lambda_grid=g),
                    lambda g: padl_fit(self._panel(), "t", [1, 1, 1], p=1,
                                       lambda_grid=g)):
            with pytest.raises(ParameterError):
                fit([1.0, entry])

    @pytest.mark.parametrize("entry", [(1.0, 0.0, 2.0), (0.0, 1.0, 2.0)])
    def test_padl_takes_no_group_or_levels_term(self, entry):
        with pytest.raises(ParameterError, match="levels block"):
            padl_fit(self._panel(), "t", [1, 1, 1], p=1, lambda_grid=[entry])

    def test_a_scalar_is_a_zero_padded_triple(self):
        a = padl_fit(self._panel(), "t", [1, 1, 1], p=1,
                     lambda_grid=[0.5, 50.0])
        b = padl_fit(self._panel(), "t", [1, 1, 1], p=1,
                     lambda_grid=[(0.0, 0.0, 0.5), (0.0, 0.0, 50.0)])
        assert a.lambdas == b.lambdas
        assert a.forecast == b.forecast
        assert a.lambdas["group"] == a.lambdas["levels"] == 0.0

    def test_padl_default_grid_reports_no_group_or_levels(self):
        fit = padl_fit(self._panel(), "t", [1, 1, 1], p=1)
        assert fit.lambdas["group"] == fit.lambdas["levels"] == 0.0
        assert fit.lambdas["w"] > 0.0

    @pytest.mark.parametrize("field", ["lam_group", "lam_levels", "lam_w"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_penalty_config_rejects(self, field, value):
        with pytest.raises(ParameterError, match="finite and non-negative"):
            PenaltyConfig(**{field: value})


class TestTscv:
    def test_single_candidate_short_circuits(self):
        called = []

        def builder(stop):
            called.append(stop)
            return lambda cand, rows: np.zeros(len(rows))

        assert tscv_tune(builder, [3.5], 100) == 3.5
        assert called == []

    def test_ties_prefer_later_entry(self):
        def builder(stop):
            return lambda cand, rows: np.ones(len(rows))

        assert tscv_tune(builder, [0.1, 1.0, 10.0], 60) == 10.0

    def test_noise_response_selects_heavy_shrinkage(self, rng):
        # candidates are shrinkage levels: validation loss of a mean-zero
        # noise response is minimized, on average, by predicting zero
        hits = 0
        for _ in range(10):
            y = rng.standard_normal(120)
            x = rng.standard_normal(120)

            def builder(stop):
                coef, *_ = np.linalg.lstsq(x[:stop, None], y[:stop],
                                           rcond=None)

                def scorer(lam, rows):
                    shrunk = coef[0] / (1.0 + lam)
                    return (y[rows] - shrunk * x[rows]) ** 2

                return scorer

            hits += tscv_tune(builder, [0.0, 1.0, 1e6], 120) == 1e6
        assert hits >= 7

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            tscv_tune(lambda stop: None, [], 50)

    def test_validation_follows_training(self):
        seen = []

        def builder(stop):
            def scorer(cand, rows):
                seen.append((stop, rows.min(), rows.max()))
                return np.zeros(len(rows))

            return scorer

        tscv_tune(builder, [0.1, 1.0], 80)
        for stop, lo, hi in seen:
            assert stop <= lo <= hi

