"""Error-correction estimators: likelihood, rank-penalized QR, PML.

Reduced-rank results are cross-checked against an unrestricted OLS fit
of the error-correction form, computed inline with lstsq.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from hdcoint import (DataError, NumericalError, ParameterError, VecmParams,
                     fecm_forecast, johansen_ml, ndfm_forecast, pml_vecm,
                     qr_vecm, random_vecm_params, select_lag_bic,
                     select_rank_ic, simulate_vecm, tscv_tune,
                     vecm_iterated_forecast)
from hdcoint._numeric import soft_threshold
from hdcoint.panel import DeterministicSpec
from hdcoint.vecm import (_Bases, _ec_design, _ec_factors, _group_bases,
                          _group_lasso, _johansen_solve, _one_step_errors,
                          _pml_init, _pml_objective, _qr_assemble, _qr_stages,
                          default_lambda_grid)
from tests.conftest import canonical_correlations, subspace_angle_deg


def _group_lasso_single(X, y, kappa):
    """Exact minimizer of ||y - Xb||^2 + kappa·||b||_2: one problem, one
    penalty of :func:`_group_lasso`, the last of the nested problems whose
    last target is y."""
    C = np.zeros((X.shape[1],) * 2)
    C[:, -1] = X.T @ y
    last = _Bases(*(a[-1:] for a in _group_bases(X.T @ X, C)))
    return _group_lasso(last, np.array([[kappa]]))[0, :, 0]


def _sim(n, r, T, seed, p=0):
    params = random_vecm_params(n, r, p=p, seed=seed)
    return params, simulate_vecm(params, T, seed=seed + 1).values


def _ols_ec(z, p):
    """Unrestricted OLS of Δz_t on z_{t-1} and p difference lags."""
    dz = np.diff(z, axis=0)
    rows = np.arange(p, dz.shape[0])
    X = [z[rows]]                       # z_{t-1} aligned with dz[rows]
    for j in range(1, p + 1):
        X.append(dz[rows - j])
    X = np.column_stack(X)
    coef, *_ = np.linalg.lstsq(X, dz[rows], rcond=None)
    return coef.T                       # (N, N(p+1)); leading block is Pi


def _assert_same_model(got, want):
    """Two VecmModels agree bit for bit in every field but ``info``."""
    for f in dataclasses.fields(want):
        if f.name == "info":
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "phi":
            assert [m.tobytes() for m in a] == [m.tobytes() for m in b]
        elif isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("fit", [johansen_ml, pml_vecm])
@pytest.mark.parametrize("r", [-1, 4])
def test_a_rank_outside_0_to_n_has_one_check(fit, r):
    # one range rule for both estimators, on a window or a stack
    _, z = _sim(3, 1, 120, 0, p=1)
    for data in (z, np.stack([z, z])):
        with pytest.raises(ParameterError, match=r"^rank must lie in 0\.\.3$"):
            fit(data, r, 1)


class TestJohansen:
    def test_full_rank_equals_ols(self):
        _, z = _sim(3, 1, 300, 0, p=1)
        model = johansen_ml(z, r=3, p=1, det="none")
        pi = model.a @ model.b.T
        ols = _ols_ec(z, 1)
        assert np.allclose(pi, ols[:, :3], atol=1e-8)
        assert np.allclose(model.phi[0], ols[:, 3:6], atol=1e-8)

    def test_rank_zero_is_var_in_differences(self):
        _, z = _sim(3, 1, 250, 1, p=1)
        model = johansen_ml(z, r=0, p=1, det="none")
        assert model.a.shape == (3, 0)
        assert np.allclose(model.a @ model.b.T, 0.0)
        # the lag matrix must equal OLS of dz_t on dz_{t-1} alone
        dz = np.diff(z, axis=0)
        coef, *_ = np.linalg.lstsq(dz[:-1], dz[1:], rcond=None)
        assert np.allclose(model.phi[0], coef.T, atol=1e-8)

    def test_eigenvalues_in_unit_interval_and_loglik_monotone(self):
        _, z = _sim(4, 2, 400, 2)
        logliks = []
        for r in range(5):
            m = johansen_ml(z, r=r, p=1, det="none")
            assert np.all(m.eigenvalues >= 0.0)
            assert np.all(m.eigenvalues < 1.0)
            logliks.append(m.loglik)
        assert np.all(np.diff(logliks) >= -1e-8)

    def test_cointegration_space_recovered(self):
        params, z = _sim(4, 1, 500, 3)
        model = johansen_ml(z, r=1, p=1, det="none")
        assert subspace_angle_deg(model.b, params.b) < 5.0

    def test_window_too_short(self):
        _, z = _sim(4, 1, 500, 4)
        with pytest.raises(DataError):
            johansen_ml(z[:12], r=1, p=2, det="none")

    def test_permutation_equivariance(self):
        _, z = _sim(3, 1, 300, 5)
        perm = [2, 0, 1]
        a = johansen_ml(z, r=1, p=1, det="none")
        b = johansen_ml(z[:, perm], r=1, p=1, det="none")
        pi_a = a.a @ a.b.T
        pi_b = b.a @ b.b.T
        assert np.allclose(pi_b, pi_a[np.ix_(perm, perm)], atol=1e-8)


class TestRankSelection:
    def test_stationary_panel_picks_high_rank(self, rng):
        z = rng.standard_normal((400, 3))
        assert select_rank_ic(z, p=1, det="none") == 3

    def test_random_walks_pick_zero(self, rng):
        hits = 0
        for _ in range(10):
            z = rng.standard_normal((400, 3)).cumsum(axis=0)
            hits += select_rank_ic(z, p=1, det="none") == 0
        assert hits >= 8


class TestOneSolvePerFit:
    """``r=None`` fits at the rank criterion's choice, read off the fit's own
    eigenproblem: the same bits as the two-call form, from one solve."""

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    @pytest.mark.parametrize("seed", [42, 46])
    def test_johansen_auto_rank_equals_two_calls(self, det, seed):
        _, z = _sim(4, 2, 160, seed, p=1)
        r = select_rank_ic(z, p=1, det=det)
        auto = johansen_ml(z, None, 1, det)
        assert auto.rank == r
        _assert_same_model(auto, johansen_ml(z, r, 1, det))

    @pytest.mark.blas_threads
    def test_pml_auto_rank_equals_two_calls(self):
        _, z = _sim(4, 2, 121, 45, p=1)
        zs = z / z.std(axis=0)
        r = select_rank_ic(zs, p=1)
        auto = pml_vecm(zs, None, p=1, lambdas=(0.1, 0.1))
        fixed = pml_vecm(zs, r, p=1, lambdas=(0.1, 0.1))
        assert r >= 1 and auto.rank == r
        _assert_same_model(auto, fixed)
        assert auto.info == fixed.info

    def test_one_solve_per_automatic_fit(self, monkeypatch):
        import hdcoint.vecm as vecm
        calls = []
        solve = vecm._johansen_solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(vecm, "_johansen_solve", counted)
        _, z = _sim(4, 2, 160, 45, p=1)
        fits = [lambda: johansen_ml(z, None, 1, "mean"),
                lambda: pml_vecm(z, None, p=1, lambdas=(0.1, 0.1)),
                lambda: fecm_forecast(z, targets=[0, 1], r_ns=1, h=2),
                lambda: ndfm_forecast(z, k=2, h=2)]
        for fit in fits:
            calls.clear()
            fit()
            assert len(calls) == 1

    @pytest.mark.blas_threads
    def test_one_solve_per_stacked_pml_call_at_any_rank(self, monkeypatch):
        # the Johansen starts of a stack come from one stacked solve for an
        # explicit rank too, bit for bit as each window's own fit
        import hdcoint.vecm as vecm
        calls = []
        solve = vecm._johansen_solve

        def counted(z, *args):
            calls.append(len(z))
            return solve(z, *args)

        monkeypatch.setattr(vecm, "_johansen_solve", counted)
        _, z = _sim(4, 2, 160, 45, p=1)
        zs = np.stack([z[s:s + 121] for s in (0, 13, 39)])
        zs = zs / zs.std(axis=1, keepdims=True)
        for r in (None, 0, 2):
            calls.clear()
            fits = pml_vecm(zs, r, p=1, lambdas=(0.1, 0.1))
            assert calls == [3]
            for zw, fit in zip(zs, fits):
                _assert_same_model(fit, pml_vecm(zw, r, p=1,
                                                 lambdas=(0.1, 0.1)))
        # an explicit rank starts from the Johansen fit at that rank
        a, b, _, _ = _pml_init(zs[:1], 2, 1, solve(zs[:1], 1,
                                                   DeterministicSpec.NONE))[0]
        start = johansen_ml(zs[0], 2, 1)
        assert a.tobytes() == start.a.tobytes()
        assert b.tobytes() == start.b.tobytes()


def _residuals_on_w(z, p, det):
    """(r0, r1): y0 and y1 residualised on W by least squares."""
    y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.parse(det))
    coef, *_ = np.linalg.lstsq(W, np.hstack([y0, y1]), rcond=None)
    r = np.hstack([y0, y1]) - W @ coef
    return r[:, :y0.shape[1]], r[:, y0.shape[1]:]


@pytest.mark.blas_threads
class TestJohansenFactor:
    """The eigenproblem read off one QR of [W, y1, y0] against the squared
    canonical correlations of the residuals, computed apart from it."""

    @pytest.mark.parametrize("N, T, ones", [(12, 240, 0), (24, 120, 0),
                                            (40, 120, 3)])
    def test_eigenvalues_are_squared_canonical_correlations(self, N, T, ones):
        params = random_vecm_params(N, 2, p=1, seed=3)
        z = simulate_vecm(params, T, seed=4).values
        r0, r1 = _residuals_on_w(z, 1, "mean")
        want = np.minimum(canonical_correlations(r0, r1) ** 2, 1.0 - 1e-12)
        (s,) = _johansen_solve(z[None], 1, DeterministicSpec.MEAN)
        assert np.abs(s.lam - want).max() <= 1e-12
        # k = N + 1 columns of W leave n - k = T - N - 3 residual dimensions
        # for the two N-column blocks: 2N - (n - k) correlations are 1
        assert ones == max(0, 3 * N + 3 - T)
        assert np.sum(s.lam == 1.0 - 1e-12) == ones

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    def test_vectors_solve_the_eigenproblem_with_unit_s11(self, det):
        _, z = _sim(4, 2, 200, 11, p=1)
        r0, r1 = _residuals_on_w(z, 1, det)
        n = r0.shape[0]
        s00, s01, s11 = r0.T @ r0 / n, r0.T @ r1 / n, r1.T @ r1 / n
        (s,) = _johansen_solve(z[None], 1, DeterministicSpec.parse(det))
        assert s.lam.size == s.vecs.shape[1] == r1.shape[1]
        assert np.allclose(s.vecs.T @ s11 @ s.vecs, np.eye(r1.shape[1]),
                           atol=1e-10)
        lhs = s01.T @ np.linalg.solve(s00, s01) @ s.vecs
        assert np.allclose(lhs, s11 @ s.vecs * s.lam, atol=1e-10)
        assert np.allclose(s.s01, s01, rtol=1e-12, atol=1e-14)
        assert np.isclose(s.logdet, np.linalg.slogdet(s00)[1], rtol=1e-12)

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_short_run_is_the_least_squares_fit_given_pi(self, det, p):
        # the short run and covariance read off the factor, against a
        # least-squares regression of y0 - y1Π' on W
        _, z = _sim(4, 2, 200, 12, p=1)
        model = johansen_ml(z, 2, p, det)
        y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.parse(det))
        b = model.b if model.b_trend is None else \
            np.vstack([model.b, model.b_trend])
        resid = y0 - y1 @ b @ model.a.T
        coef = np.empty((0, 4))
        if W.shape[1]:
            coef, *_ = np.linalg.lstsq(W, resid, rcond=None)
            resid = resid - W @ coef
        if det != "none":
            assert np.allclose(model.mu, coef[0], rtol=1e-10, atol=1e-13)
            coef = coef[1:]
        got = np.hstack(model.phi).T if p else np.empty((0, 4))
        assert np.allclose(got, coef, rtol=1e-10, atol=1e-13)
        assert np.allclose(model.sigma, resid.T @ resid / y0.shape[0],
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    def test_a_stack_factors_each_window_as_alone(self, det):
        # a stack holding an exactly singular window: each window's
        # factors, residual QR and error are those of its own stack of one
        z = _degenerate_windows()[0][1][:, :5]
        good = np.column_stack([z, np.random.default_rng(3).standard_normal(
            150).cumsum()])
        bad = _degenerate_windows()[0][1]
        zs = np.stack([good, bad, good[::-1]])
        spec = DeterministicSpec.parse(det)
        rows = [70, 110, 148]
        R, k, qa, ta, errors = _ec_factors(zs, 1, spec, rows)
        assert [e is None for e in errors] == [True, False, True]
        for w in range(3):
            R1, k1, qa1, ta1, (error,) = _ec_factors(zs[w:w + 1], 1, spec,
                                                     rows)
            assert k1 == k
            for got, want in ((R, R1), (qa, qa1), (ta, ta1)):
                assert np.array_equal(got[w], want[0])
            assert repr(errors[w]) == repr(error)

    def test_a_fit_makes_two_qrs(self, monkeypatch):
        # one of the design and one of its residual block, none twice
        _, z = _sim(4, 2, 200, 11, p=1)
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(kwargs.get("mode", "reduced"))
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        johansen_ml(z, None, 1)
        assert calls == ["r", "reduced"]


def _degenerate_windows():
    """Exactly singular windows: (name, panel, lags that make it singular)."""
    z = simulate_vecm(random_vecm_params(5, 2, p=1, seed=7), 150,
                      seed=8).values
    # constant but for its last value: a zero column of lagged differences
    # in W, while y0 and y1 stay of full rank under 'none'
    jump = np.where(np.arange(150) < 149, 3.7, 5.0)
    return [("duplicated", np.column_stack([z, z[:, 2]]), (0, 1, 2)),
            ("combination", np.column_stack([z, z[:, 0] + 2 * z[:, 1]]),
             (0, 1, 2)),
            ("zero", np.column_stack([z, np.zeros(150)]), (0, 1, 2)),
            ("constant", np.column_stack([z, np.full(150, 3.7)]), (0, 1, 2)),
            ("lagged copy", np.column_stack([z[1:], z[:-1, 3]]), (1, 2)),
            ("last-step jump", np.column_stack([z, jump]), (1, 2))]


class TestDegenerateWindows:
    """An exactly singular window raises one typed error, whatever the
    rounding: the pivot rule reads the factor, where a Cholesky of the
    moment matrices succeeded or failed by chance."""

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_singular_window_raises(self, det, p):
        for name, z, lags in _degenerate_windows():
            if p not in lags:
                continue
            with pytest.raises(NumericalError, match="(residual|lagged-level)"
                               " moment matrix is singular"):
                johansen_ml(z, None, p, det)
        # the panel without its degenerate column fits
        z = _degenerate_windows()[0][1][:, :5]
        assert np.isfinite(johansen_ml(z, None, p, det).loglik)

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_qr_vecm_singular_window_raises(self, p):
        # the QR estimator reads its stages off the same factor, so a
        # singular window raises the same error at every stage it meets
        for name, z, lags in _degenerate_windows():
            if p not in lags:
                continue
            with pytest.raises(NumericalError, match="(residual|lagged-level)"
                               " moment matrix is singular"):
                qr_vecm(z, p=p)
        z = _degenerate_windows()[0][1][:, :5]
        model = qr_vecm(z, p=p)
        assert np.isfinite(model.sigma).all() and np.isfinite(model.b).all()

    def test_qr_vecm_rejects_a_fold_prefix_with_a_constant_series(self):
        # a series constant for its first 70 rows leaves zero columns of y0
        # and of its lagged differences in W in the early folds' prefixes,
        # so those stages are singular, while the full sample is not: the
        # Johansen fit, which has no folds, fits the window
        z = simulate_vecm(random_vecm_params(5, 2, p=1, seed=7), 120,
                          seed=8).values
        walk = 3.7 + np.random.default_rng(9).standard_normal(50).cumsum()
        late = np.column_stack([z, np.concatenate([np.full(70, 3.7), walk])])
        with pytest.raises(NumericalError, match="(residual|lagged-level)"
                           " moment matrix is singular") as alone:
            qr_vecm(late, p=1)
        assert np.isfinite(johansen_ml(late, None, 1).loglik)
        # inside a stack, this window fails alone
        fine = np.column_stack([z, np.random.default_rng(10).standard_normal(
            120).cumsum()])
        fits = qr_vecm(np.stack([fine, late, fine]), p=1)
        assert str(fits[1]) == str(alone.value)
        assert isinstance(fits[1], NumericalError)
        assert not isinstance(fits[0], Exception)
        assert _fit_bits(fits[2]) == _fit_bits(fits[0]) == _single_bits(
            fine, 1)


class TestLagSelection:
    def test_strong_lag_structure_found(self):
        params = random_vecm_params(3, 1, p=1, seed=6, phi_scale=0.4)
        z = simulate_vecm(params, 500, seed=7).values
        assert select_lag_bic(z, p_max=3, det="none") >= 1

    def test_no_dynamics_prefers_smallest(self):
        params = random_vecm_params(3, 1, p=0, seed=8)
        z = simulate_vecm(params, 500, seed=9).values
        assert select_lag_bic(z, p_max=3, det="none") <= 1


@pytest.mark.blas_threads
class TestQrVecm:
    def test_lambda_zero_equals_ols(self):
        _, z = _sim(3, 1, 300, 10, p=1)
        model = qr_vecm(z, p=1, lambda_grid=[0.0])
        pi = model.a @ model.b.T
        assert np.allclose(pi, _ols_ec(z, 1)[:, :3], atol=1e-6)
        assert model.rank == 3

    def test_huge_lambda_kills_all_columns(self):
        _, z = _sim(3, 1, 300, 11)
        model = qr_vecm(z, p=1, lambda_grid=[1e6])
        assert model.rank == 0
        assert np.allclose(model.a @ model.b.T, 0.0)

    def test_intermediate_lambda_recovers_low_rank(self):
        hits = 0
        for seed in range(6):
            _, z = _sim(4, 1, 400, 40 + seed)
            model = qr_vecm(z, p=1)
            hits += model.rank <= 2
        assert hits >= 4

    def test_dimension_bound_error(self, rng):
        z = rng.standard_normal((10, 4)).cumsum(axis=0)
        with pytest.raises((ParameterError, DataError)):
            qr_vecm(z, p=2)

    @pytest.mark.parametrize("grid", [[-5.0], [np.nan, 1.0], [1.0, np.inf]])
    def test_penalties_must_be_finite_and_non_negative(self, grid):
        _, z = _sim(3, 1, 120, 14)
        with pytest.raises(ParameterError, match="finite and non-negative"):
            qr_vecm(z, p=1, lambda_grid=grid)

    # (N, seed, chosen lambda, rank, pivot, 3-step forecast), recorded
    # before the cross-validation was batched over the lambda grid; the
    # lambdas re-pinned (within 6e-14) when the stages came to be read off
    # the triangular factor of the design. Each case keeps the id it was
    # first recorded under, so a re-pinned lambda does not rename it.
    PINNED = [
        pytest.param(
            4, 101, 1.2072451072412127, 4, [0, 3, 1, 2],
            [4.055910660419734, 12.363393528515196, -30.635818526066643,
             3.773323825634949, 4.051962406149397, 12.451198240576462,
             -30.717450580392867, 3.8252865916871697, 4.118469561232516,
             12.443881171961646, -30.891744331322037, 3.8794940645247395],
            id="4-101-1.207245107241204-4-pivot0-forecast0"),
        pytest.param(
            6, 124, 29.819731207225782, 2, [4, 2, 0, 5, 3, 1],
            [-12.496929268625331, -7.024389945669054, 9.56140420736985,
             -6.458510785822347, -9.642028652185958, -11.930382684341657,
             -12.56129766844654, -6.867982314673662, 9.22744623528983,
             -6.454160342438799, -9.385460385852525, -11.96817749260702,
             -12.637521970463135, -6.815784885675208, 8.922512640354768,
             -6.420886115237649, -9.12115377979428, -12.015154905510162],
            id="6-124-29.81973120722583-2-pivot1-forecast1"),
        pytest.param(
            8, 141, 47.327646872755714, 3, [6, 3, 0, 4, 2, 1, 7, 5],
            [-0.9635082675034142, -10.130423143652797, 23.89298537078727,
             -2.808713719897913, -5.145702854932331, 17.710472774070922,
             -6.714250611590239, -8.741164071597483, -0.9262275550681616,
             -10.083110160868719, 23.88108744637075, -2.851802427127895,
             -4.9890020155827015, 17.70371082174143, -6.508864322125823,
             -8.613902031994332, -0.9140080714282359, -10.050161354435858,
             23.87272489692069, -2.887408604284511, -4.955680014654363,
             17.680366186255945, -6.372230796667193, -8.632366002598364],
            id="8-141-47.32764687275854-3-pivot2-forecast2"),
    ]

    @pytest.mark.parametrize("n, seed, lam, rank, pivot, forecast", PINNED)
    def test_pinned_decisions(self, n, seed, lam, rank, pivot, forecast):
        params = random_vecm_params(n, 2, p=1, seed=seed,
                                    adjust_range=(0.4, 0.8))
        z = simulate_vecm(params, 121, seed=seed + 100).values
        model = qr_vecm(z, p=1)
        assert model.info["lambda"] == lam
        assert model.rank == rank
        assert model.info["pivot"] == pivot
        fc = vecm_iterated_forecast(model, z, 3).ravel()
        assert np.allclose(fc, forecast, rtol=0.0, atol=1e-9)

    def test_window_without_a_fold_takes_the_largest_penalty(self, rng):
        # T = N(p+1) + p + 3: the first validation row is past the sample
        z = np.cumsum(rng.standard_normal((12, 4)), axis=0)
        model = qr_vecm(z, p=1, lambda_grid=[0.0, 0.5, 5.0])
        assert model.info["lambda"] == 5.0

    def test_penalty_at_the_zero_threshold_gives_zero_column(self, rng):
        # kappa one ulp under 2||X'y||: the zero condition just fails, and
        # the secular root lies below the search bracket
        for _ in range(5):
            X = rng.standard_normal((40, 3))
            y = rng.standard_normal(40)
            kappa = np.nextafter(2.0 * np.linalg.norm(X.T @ y), 0.0)
            beta = _group_lasso_single(X, y, kappa)
            assert np.all(np.isfinite(beta))
            assert np.linalg.norm(beta) < 1e-10


def _window_stages(z, p, rows):
    """The stages of one window, which raise its singular-window error."""
    stages, (error,) = _qr_stages(z[None], p, rows)
    if error is not None:
        raise error
    return stages


def _qr_vecm_per_penalty(z, p):
    """The cross-validation the batched one replaced: one stage and one
    group-lasso solve per fold, each from its own prefix of the design,
    then one Π, short run and residual product per fold and penalty,
    scored through ``tscv_tune``."""
    T, N = z.shape
    y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.NONE)
    stage = _window_stages(z, p, [T - p - 1])
    grid = default_lambda_grid(float(np.max(2.0 * stage.bases.cnorm
                                            * stage.weights)))

    def path(s, lams):
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where(lams > 0, lams / s.weights[0, 0][:, None], 0.0)
        return _group_lasso(s.bases, kappa)

    def builder(stop):
        s = _window_stages(z, p, [stop - p - 1])
        fits = dict(zip(grid, path(s, grid)))
        c0, c1 = s.short_run[0, 0][:, :N], s.short_run[0, 0][:, N:]

        def scorer(lam, rows):
            R = fits[lam]
            nonzero = np.flatnonzero(np.any(R != 0.0, axis=0))
            a = np.zeros((N, nonzero.size))
            a[s.piv[0, 0][nonzero], np.arange(nonzero.size)] = 1.0
            pi = a @ (s.Q[0, 0] @ R[:, nonzero]).T
            block = slice(rows[0] - p - 1, rows[-1] - p)
            return _one_step_errors(pi, (c0 - c1 @ pi.T).T, y0[block],
                                    y1[block], W[block])

        return scorer

    first = max(N * (p + 1) + p + 3, T // 2)
    lam = grid[-1] if first >= T else tscv_tune(builder, grid, n_rows=T,
                                                first=first)
    return _qr_assemble(stage, 0, p, path(stage, np.array([lam]))[0], lam,
                        T)


@pytest.mark.blas_threads
class TestQrVecmOracle:
    def test_matches_the_per_penalty_cross_validation(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for case in range(24):
            n, p = int(rng.integers(2, 9)), int(rng.integers(0, 3))
            short = n * (p + 1) + p + int(rng.integers(4, 12))
            T = short if case % 3 == 0 else int(rng.integers(60, 200))
            params = random_vecm_params(n, int(rng.integers(0, n)), p=p,
                                        seed=int(rng.integers(1 << 30)))
            z = simulate_vecm(params, T, seed=case).values
            try:
                want = _qr_vecm_per_penalty(z, p)
            except (DataError, NumericalError) as exc:
                with pytest.raises(type(exc)):
                    qr_vecm(z, p=p)
                continue
            got = qr_vecm(z, p=p)
            assert got.info["lambda"] == want.info["lambda"]
            assert got.rank == want.rank
            assert got.info["pivot"] == want.info["pivot"]
            assert np.array_equal(got.a @ got.b.T, want.a @ want.b.T)
            checked += 1
        assert checked >= 20


def _fit_bits(fit):
    """Everything of a qr_vecm outcome that must not depend on the stack:
    the error's class and message, or λ, rank, pivot, A, B, Φ and Σ."""
    if isinstance(fit, Exception):
        return type(fit).__name__, str(fit)
    return (fit.info["lambda"], fit.rank, fit.info["pivot"], fit.a.tobytes(),
            fit.b.tobytes(), [phi.tobytes() for phi in fit.phi],
            fit.sigma.tobytes())


def _single_bits(z, p, **kw):
    try:
        return _fit_bits(qr_vecm(z, p=p, **kw))
    except (DataError, NumericalError) as exc:
        return _fit_bits(exc)


@pytest.mark.blas_threads
class TestQrVecmStack:
    """A (W, T, N) stack is fitted in one pass and gives, per window, what
    the window gives alone, bit for bit, or the error it raises alone."""

    @pytest.mark.parametrize("n, p", [(2, 0), (4, 1), (6, 1), (5, 2)])
    def test_stack_equals_single_calls(self, n, p):
        zs = np.stack([_sim(n, min(n - 1, 2), 121, 300 + 7 * w, p=p)[1]
                       for w in range(9)])
        fits = qr_vecm(zs, p=p)
        assert isinstance(fits, list) and len(fits) == 9
        assert all(not isinstance(f, Exception) for f in fits)
        assert [_fit_bits(f) for f in fits] == [
            _single_bits(z, p) for z in zs]

    def test_given_grid_and_fold_free_windows(self):
        zs = np.stack([_sim(3, 1, 60, 40 + w, p=1)[1] for w in range(4)])
        grid = [0.0, 0.3, 3.0]
        assert [_fit_bits(f) for f in qr_vecm(zs, p=1, lambda_grid=grid)] \
            == [_single_bits(z, 1, lambda_grid=grid) for z in zs]
        short = zs[:, :12]      # too short for any fold: the largest penalty
        fits = qr_vecm(short, p=1, lambda_grid=grid)
        assert [f.info["lambda"] for f in fits] == [3.0] * 4

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_degenerate_window_fails_alone(self, p):
        z = _degenerate_windows()[0][1][:, :5]
        good = np.column_stack([z, np.random.default_rng(p).standard_normal(
            150).cumsum()])
        for name, bad, lags in _degenerate_windows():
            if p not in lags or bad.shape != good.shape:
                continue
            fits = qr_vecm(np.stack([good, bad, good[::-1]]), p=p)
            with pytest.raises(NumericalError) as alone:
                qr_vecm(bad, p=p)
            assert _fit_bits(fits[1]) == _fit_bits(alone.value)
            assert [_fit_bits(fits[0]), _fit_bits(fits[2])] == [
                _single_bits(good, p), _single_bits(good[::-1], p)]

    def test_window_with_missing_values_fails_alone(self):
        zs = np.stack([_sim(3, 1, 80, 60 + w, p=1)[1] for w in range(3)])
        zs[1, 40, 2] = np.nan
        fits = qr_vecm(zs, p=1)
        assert _fit_bits(fits[1]) == (
            "DataError", "estimation window contains missing values")
        assert [_fit_bits(fits[0]), _fit_bits(fits[2])] == [
            _single_bits(zs[0], 1), _single_bits(zs[2], 1)]

    def test_stack_of_windows_with_missing_values(self):
        zs = np.full((2, 80, 3), np.nan)
        assert [_fit_bits(f) for f in qr_vecm(zs, p=1)] == [
            ("DataError", "estimation window contains missing values")] * 2

    def test_unsettled_secular_equation_fails_only_its_window(
            self, monkeypatch):
        # too few Newton steps for some windows' group problems, not all
        monkeypatch.setattr("hdcoint.vecm._SECULAR_MAX_ITER", 8)
        zs = np.stack([simulate_vecm(random_vecm_params(4, 1, p=1, seed=w),
                                     80, seed=w + 50).values
                       for w in range(12)])
        got = [_fit_bits(f) for f in qr_vecm(zs, p=1)]
        assert got == [_single_bits(z, 1) for z in zs]
        failed = [g for g in got if g[0] == "ConvergenceError"]
        assert 0 < len(failed) < len(got)
        assert {g[1] for g in failed} == {
            "group-lasso secular equation did not converge"}

    def test_argument_errors_raise_for_the_stack(self):
        zs = np.stack([_sim(3, 1, 60, 70 + w, p=1)[1] for w in range(2)])
        with pytest.raises(ParameterError, match="finite and non-negative"):
            qr_vecm(zs, p=1, lambda_grid=[-1.0])
        with pytest.raises(DataError, match="OLS initializer"):
            qr_vecm(zs[:, :6], p=1)


def _mixed_stack():
    """Rolling (200, 10) windows whose BIC lags differ (0, 1 and 2 under
    'none' and 'mean', 0 and 1 under 'trend'), among them an exactly
    collinear window (its last series copies its first) and a window with
    a missing value."""
    params = random_vecm_params(10, 2, p=2, seed=12, phi_scale=0.45)
    z = simulate_vecm(params, 450, seed=13).values
    zs = np.stack([z[s:s + 200] for s in range(0, 250, 10)])
    zs[3, :, -1] = zs[3, :, 0]
    zs[5, 50, 2] = np.nan
    return zs


def _ranked_stack():
    """(30, 11, 3) standardized windows (p = 1) whose IC ranks are 0, 1,
    2 and 3, rank 3 too high for T = 11, among them a collinear window
    and one with a missing value, made as in :func:`_mixed_stack`."""
    params = random_vecm_params(3, 1, p=1, seed=0)
    z = simulate_vecm(params, 200, seed=1).values
    zs = np.stack([z[s:s + 11] for s in range(0, 180, 6)])
    zs = zs / zs.std(axis=1, keepdims=True)
    zs[3, :, -1] = zs[3, :, 0]
    zs[5, 4, 2] = np.nan
    return zs


def _same_memory_order(got, want):
    """Each matrix of two models in one memory order: a forecast's
    matrix-vector products read it."""
    for f in ("a", "b", "sigma"):
        assert np.isfortran(getattr(got, f)) == np.isfortran(
            getattr(want, f)), f
    assert [np.isfortran(m) for m in got.phi] == [np.isfortran(m)
                                                  for m in want.phi]


def _alone(fn, *args, **kwargs):
    """``fn``'s result, or the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (DataError, NumericalError) as exc:
        return exc


def _same_outcome(got, want):
    """Bit-equal models, or errors of one class and message."""
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        _assert_same_model(got, want)
        assert got.info == want.info


@pytest.mark.blas_threads
class TestJohansenStack:
    """``select_lag_bic``, ``johansen_ml`` and ``pml_vecm`` on a (W, T, N)
    stack give, per window, what the window gives alone, bit for bit, or
    the error it raises alone."""

    @pytest.mark.parametrize("det", ["none", "mean", "trend"])
    def test_lags_and_fits_equal_single_calls(self, det):
        zs = _mixed_stack()
        lags = select_lag_bic(zs, p_max=3, det=det)
        assert len(lags) == len(zs)
        for w, z in enumerate(zs):
            want = _alone(select_lag_bic, z, p_max=3, det=det)
            if isinstance(want, Exception):
                _same_outcome(lags[w], want)
            else:
                assert type(lags[w]) is int and lags[w] == want
        assert isinstance(lags[5], DataError)
        assert len({lag for lag in lags if isinstance(lag, int)}) > 1
        fits = johansen_ml(zs, None, lags, det)
        for w, z in enumerate(zs):
            lag = lags[w] if isinstance(lags[w], int) else 1
            _same_outcome(fits[w], _alone(johansen_ml, z, None, lag, det))
        assert isinstance(fits[3], NumericalError)
        assert sum(isinstance(f, Exception) for f in fits) == 2

    @pytest.mark.parametrize("det", ["none", "trend"])
    def test_fixed_rank_and_lag(self, det):
        zs = _mixed_stack()
        for r, p in ((2, 1), (0, 0)):
            fits = johansen_ml(zs, r, p, det)
            for got, z in zip(fits, zs):
                _same_outcome(got, _alone(johansen_ml, z, r, p, det))

    def test_pml_equals_single_calls(self):
        zs = _mixed_stack()[1:7]
        zs = zs / np.nanstd(zs, axis=1, keepdims=True)
        for r in (None, 1):
            fits = pml_vecm(zs, r, p=1, lambdas=(0.1, 0.1), max_cycles=30)
            for got, z in zip(fits, zs):
                _same_outcome(got, _alone(pml_vecm, z, r, p=1,
                                          lambdas=(0.1, 0.1), max_cycles=30))
            assert isinstance(fits[4], DataError)
            # the collinear window fails alone: its Johansen start is
            # singular, and from the ridge start its cycles break down
            assert isinstance(fits[2], NumericalError)

    def test_one_solve_per_lag(self, monkeypatch):
        # a stack of two lags makes two factor calls, not one per window
        import hdcoint.vecm as vecm
        calls = []
        factors = vecm._ec_factors

        def counted(z, p, *args):
            calls.append((len(z), p))
            return factors(z, p, *args)

        monkeypatch.setattr(vecm, "_ec_factors", counted)
        zs = np.delete(_mixed_stack(), 5, axis=0)
        lags = select_lag_bic(zs, p_max=3, det="trend")
        assert sorted(set(lags)) == [0, 1]
        fits = johansen_ml(zs, None, lags, "trend")
        assert sorted(calls) == sorted([(lags.count(0), 0),
                                        (lags.count(1), 1)])
        assert sum(isinstance(f, Exception) for f in fits) == 1

    def test_pml_mixed_ranks_equal_single_calls(self):
        # one r=None stack holding IC ranks 0-3, where rank 3 is too high
        # for T = 11 and starts from the ridge fit, the collinear and the
        # missing-value window, and a cycle cap some windows reach while
        # others converge
        zs = _ranked_stack()
        for lam in ((0.1, 0.1), (0.0, 0.2)):
            fits = pml_vecm(zs, None, p=1, lambdas=lam, max_cycles=8)
            for got, z in zip(fits, zs):
                want = _alone(pml_vecm, z, None, p=1, lambdas=lam,
                              max_cycles=8)
                _same_outcome(got, want)
                if not isinstance(want, Exception):
                    _same_memory_order(got, want)
            models = [f for f in fits if not isinstance(f, Exception)]
            assert {m.rank for m in models} == {0, 1, 2, 3}
            assert {m.info["converged"] for m in models} == {False, True}
            # A keeps the C order of the stack the cycles run on
            assert all(m.a.flags.c_contiguous for m in models if m.rank >= 2)
            assert isinstance(fits[3], NumericalError)
            assert isinstance(fits[5], DataError)

    def test_pml_ridge_and_johansen_starts_cycle_as_one_stack(
            self, monkeypatch):
        # at an explicit rank the collinear window starts from the ridge
        # fit and the others from their Johansen fits; all of them cycle
        # in one stack, and each comes out as it does alone
        import hdcoint.vecm as vecm
        calls, ridge = [], []
        fit, start = vecm._pml_fit, vecm._ridge_start

        def counted_fit(z, *args):
            calls.append(len(z))
            return fit(z, *args)

        def counted_start(z, *args):
            ridge.append(z.tobytes())
            return start(z, *args)

        monkeypatch.setattr(vecm, "_pml_fit", counted_fit)
        monkeypatch.setattr(vecm, "_ridge_start", counted_start)
        zs = _ranked_stack()
        for r in (1, 2):
            calls.clear()
            ridge.clear()
            fits = pml_vecm(zs, r, p=1, lambdas=(0.1, 0.1), max_cycles=8)
            assert calls == [len(zs) - 1]
            assert ridge == [zs[3].tobytes()]
            for got, z in zip(fits, zs):
                want = _alone(pml_vecm, z, r, p=1, lambdas=(0.1, 0.1),
                              max_cycles=8)
                _same_outcome(got, want)
                if not isinstance(want, Exception):
                    _same_memory_order(got, want)
            assert isinstance(fits[5], DataError)
            assert sum(isinstance(f, Exception) for f in fits) <= 2

    def test_johansen_mixed_ranks_in_one_lag_group(self):
        for zs, det in ((_ranked_stack(), "none"), (_mixed_stack(), "trend")):
            fits = johansen_ml(zs, None, 1, det)
            for got, z in zip(fits, zs):
                want = _alone(johansen_ml, z, None, 1, det)
                _same_outcome(got, want)
                if not isinstance(want, Exception):
                    _same_memory_order(got, want)
            ranks = {f.rank for f in fits if not isinstance(f, Exception)}
            assert len(ranks) >= 2
        # the ranked stack's rank-3 windows are too short to fit
        assert any(isinstance(f, DataError) and "too short" in str(f)
                   for f in johansen_ml(_ranked_stack(), None, 1))

    def test_window_too_short_for_its_rank(self, monkeypatch):
        # one length check per lag group: before the solve for an explicit
        # rank, whose error then precedes the solve's own (the collinear
        # window 3), and on each IC rank after it; one message either way
        import hdcoint.vecm as vecm
        calls, check = [], vecm._check_rank

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(vecm, "_check_rank", counted)
        zs = _ranked_stack()
        msg = "window of 11 observations is too short for N=3, p=1, r=3"
        johansen_ml(zs, 2, 1)
        assert calls == [(11, 3, 1, 2)]
        calls.clear()
        fits = johansen_ml(zs, 3, 1)
        assert calls == [(11, 3, 1, 3)]
        for w, fit in enumerate(fits):
            assert isinstance(fit, DataError), w
            if w != 5:      # the missing value comes first
                assert str(fit) == msg, w
        with pytest.raises(DataError) as info:
            johansen_ml(zs[3], 3, 1)
        assert str(info.value) == msg
        calls.clear()
        fits = johansen_ml(zs, None, 1)
        ranks = {f.rank for f in fits if not isinstance(f, Exception)}
        assert sorted(calls) == [(11, 3, 1, r) for r in sorted(ranks | {3})]
        assert sum(str(f) == msg for f in fits) >= 2

    def test_one_sweep_per_block_and_one_fit_per_rank(self, monkeypatch):
        # the cycles of W windows of one rank make one sweep per block and
        # cycle, not one per window, and johansen_ml one fit pass per
        # (lag, rank) group
        import hdcoint.vecm as vecm
        sweeps, passes = [], []
        sweep, fit = vecm.soft_threshold_sweep, vecm._johansen_fit

        def counted_sweep(x, *args):
            sweeps.append(len(x))
            return sweep(x, *args)

        def counted_fit(solves, r, p, det):
            passes.append((p, r, len(solves)))
            return fit(solves, r, p, det)

        monkeypatch.setattr(vecm, "soft_threshold_sweep", counted_sweep)
        monkeypatch.setattr(vecm, "_johansen_fit", counted_fit)
        zs = np.delete(_ranked_stack(), [3, 5], axis=0)
        for r in (0, 1, 2):
            sweeps.clear()
            models = pml_vecm(zs, r, p=1, lambdas=(0.1, 0.1), max_cycles=8)
            cycles = max(m.info["cycles"] for m in models)
            assert len(sweeps) <= cycles * (1 + (r > 0))
            assert sweeps[0] == len(zs)
        zs = np.delete(_mixed_stack(), [3, 5], axis=0)
        lags = [w % 2 for w in range(len(zs))]
        passes.clear()
        models = johansen_ml(zs, None, lags)
        groups = {}
        for m in models:
            groups[(m.p, m.rank)] = groups.get((m.p, m.rank), 0) + 1
        assert len(groups) >= 3
        assert sorted(passes) == sorted((p, r, c) for (p, r), c in
                                        groups.items())

    def test_argument_errors_raise_for_the_stack(self):
        zs = _mixed_stack()[:3]
        with pytest.raises(ParameterError, match="rank"):
            johansen_ml(zs, 11, 1)
        with pytest.raises(ParameterError, match="2 lags for 3 windows"):
            johansen_ml(zs, None, [0, 1])
        with pytest.raises(ParameterError, match="p_max"):
            select_lag_bic(zs, p_max=-1)
        with pytest.raises(ParameterError, match="lambdas"):
            pml_vecm(zs, None, lambdas=(0.1,))


def _stationarity_gap(X, y, b, kappa):
    """Distance of 2X'(y - Xb) from kappa·b/||b||, relative to kappa."""
    grad = 2.0 * X.T @ (y - X @ b)
    return np.linalg.norm(grad - kappa * b / np.linalg.norm(b)) / kappa


class TestGroupLassoStep:
    def test_stationarity_on_random_designs(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 7))
            X = rng.standard_normal((int(rng.integers(m + 5, 80)), m)) \
                * rng.uniform(0.2, 5.0, size=m)
            y = rng.standard_normal(X.shape[0]) * rng.uniform(0.1, 10.0)
            top = 2.0 * np.linalg.norm(X.T @ y)
            for frac in np.concatenate([[1e-3, 1.0 - 1e-6],
                                        rng.uniform(1e-3, 1.0, size=4)]):
                kappa = frac * top
                b = _group_lasso_single(X, y, kappa)
                assert np.linalg.norm(b) > 0.0
                assert _stationarity_gap(X, y, b, kappa) <= 1e-10

    def test_zero_exactly_at_and_above_the_threshold(self, rng):
        for _ in range(10):
            X = rng.standard_normal((50, 4))
            y = rng.standard_normal(50)
            top = 2.0 * np.linalg.norm(X.T @ y)
            for kappa in (top, np.nextafter(top, np.inf), 2.0 * top):
                assert np.all(_group_lasso_single(X, y, kappa) == 0.0)
            assert np.any(_group_lasso_single(X, y, top * (1 - 1e-9)) != 0.0)

    def test_root_below_the_rounding_floor_is_exactly_zero(self, rng):
        for _ in range(10):
            X = rng.standard_normal((30, 3))
            y = rng.standard_normal(30)
            kappa = np.nextafter(2.0 * np.linalg.norm(X.T @ y), 0.0)
            assert np.all(_group_lasso_single(X, y, kappa) == 0.0)

    def test_zero_penalty_is_least_squares(self, rng):
        # kappa = 0 takes mu = 0 in the Gram eigenbasis rather than calling
        # lstsq, so the two agree to rounding; a deficient design gives the
        # minimum-norm solution
        for _ in range(10):
            X = rng.standard_normal((40, 3))
            y = rng.standard_normal(40)
            for design in (X, np.column_stack([X, X[:, 0] - X[:, 1]])):
                want, *_ = np.linalg.lstsq(design, y, rcond=None)
                assert np.allclose(_group_lasso_single(design, y, 0.0), want,
                                   rtol=1e-12, atol=1e-14)

    def test_rank_deficient_design_is_solved_in_the_range(self, rng):
        # duplicated and linearly dependent columns: X'y and the unique
        # minimizer lie in the row space of X, where the secular solve runs
        for _ in range(20):
            base = rng.standard_normal((40, 3))
            X = np.column_stack([base, base[:, 0],
                                 base[:, 1] - 2.0 * base[:, 2]])
            y = rng.standard_normal(40)
            null = np.linalg.svd(X)[2][3:]
            top = 2.0 * np.linalg.norm(X.T @ y)
            for frac in (1e-3, 0.3, 0.9):
                b = _group_lasso_single(X, y, frac * top)
                assert _stationarity_gap(X, y, b, frac * top) <= 1e-10
                assert np.linalg.norm(null @ b) <= 1e-12 * np.linalg.norm(b)

    def test_batch_matches_single_problems(self, rng):
        # problem j regresses column j on the leading j + 1 columns, as in
        # the QR estimator; every (problem, penalty) pair is solved at once
        X = rng.standard_normal((60, 5))
        Y = rng.standard_normal((60, 5))
        bases = _group_bases(X.T @ X, X.T @ Y)
        tops = 2.0 * bases.cnorm
        kappa = tops[:, None] * np.array([0.0, 0.01, 0.3, 0.9, 1.0, 2.0])
        out = _group_lasso(bases, kappa)
        for j in range(5):
            for g in range(kappa.shape[1]):
                want = _group_lasso_single(X[:, :j + 1], Y[:, j], kappa[j, g])
                assert np.allclose(out[g, :j + 1, j], want, rtol=1e-12,
                                   atol=1e-14)
                assert np.all(out[g, j + 1:, j] == 0.0)


class TestOneStepSse:
    @staticmethod
    def _loop(model, z, start, stop):
        """One iterated forecast per row: the scoring the matmul replaced."""
        sse = 0.0
        for t in range(start, stop):
            err = z[t] - vecm_iterated_forecast(model, z[:t], 1)[0]
            sse += float(err @ err)
        return sse

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("r", [0, 2])
    def test_matches_the_forecast_loop(self, p, r):
        _, z = _sim(4, 2, 160, 30 + p, p=p)
        model = johansen_ml(z[:120], r=r, p=p, det="none")
        phi = np.hstack(model.phi) if p else np.zeros((4, 0))
        y0, y1, W, _ = _ec_design(z[120 - p - 1:160], p,
                                  DeterministicSpec.NONE)
        got = float(np.sum(_one_step_errors(model.a @ model.b.T, phi, y0,
                                            y1, W)))
        want = self._loop(model, z, 120, 160)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.blas_threads
class TestPml:
    def test_zero_penalty_matches_likelihood_estimator(self):
        _, z = _sim(3, 1, 300, 12)
        ml = johansen_ml(z, r=1, p=1, det="none")
        pml = pml_vecm(z, r=1, p=1, lambdas=(0.0, 0.0))
        assert np.allclose(pml.a @ pml.b.T, ml.a @ ml.b.T, atol=1e-4)

    def test_huge_lag_penalty_zeroes_phi(self):
        _, z = _sim(3, 1, 300, 13, p=1)
        model = pml_vecm(z, r=1, p=1, lambdas=(0.0, 1e6))
        assert np.allclose(model.phi[0], 0.0)

    def test_objective_path_monotone(self):
        for seed in range(5):
            _, z = _sim(3, 1, 250, 20 + seed)
            model = pml_vecm(z, r=1, p=1, lambdas=(0.05, 0.05))
            path = np.asarray(model.info["objective_path"])
            assert np.all(np.diff(path) <= 1e-10)

    @pytest.mark.parametrize("lambdas", [(0.1,), (0.1, 0.1, 0.0),
                                         (0.1, -0.1), (np.nan, 0.1),
                                         (0.1, np.inf)])
    def test_lambdas_must_be_a_non_negative_pair(self, lambdas):
        _, z = _sim(3, 1, 100, 15)
        with pytest.raises(ParameterError):
            pml_vecm(z, r=1, p=1, lambdas=lambdas)


def _pml_per_coordinate(z, r, p, lam, max_cycles=200, tol=1e-7):
    """The block updates the shared sweep replaced: one coefficient at a
    time, its gradient from the residual matrix E, E updated per
    coordinate.  Returns (A, B, Φ, Ω, objective path, converged)."""
    y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.NONE)
    n, N = y0.shape
    Yd, Z1, DX = y0.T, y1.T, W.T
    a, b, phi_mat, omega = _pml_init(
        z[None], r, p, _johansen_solve(z[None], p, DeterministicSpec.NONE))[0]
    E = Yd - a @ (b.T @ Z1) - (phi_mat @ DX if p else 0.0)
    z_row_ss = np.einsum("it,it->i", Z1, Z1)
    x_row_ss = np.einsum("it,it->i", DX, DX) if p else np.empty(0)
    obj = _pml_objective(E, omega, b, phi_mat, lam, n)
    history = [obj]
    for _ in range(max_cycles):
        if r:
            M = b.T @ Z1
            D = Yd - (phi_mat @ DX if p else 0.0)
            g = M @ M.T
            if np.linalg.cond(g) < 1e12:
                a_new = np.linalg.solve(g, M @ D.T).T
            else:
                a_new = D @ np.linalg.pinv(M)
            if _pml_objective(D - a_new @ M, omega, b, phi_mat, lam, n) \
                    <= obj + 1e-12:
                E = E + (a - a_new) @ M
                a = a_new
            oa = omega @ a
            q_col = np.einsum("ij,ij->j", a, oa)
            for j in range(r):
                if q_col[j] <= 0:
                    continue
                for i in range(N):
                    q = q_col[j] * z_row_ss[i]
                    if q <= 0:
                        continue
                    c = oa[:, j] @ E @ Z1[i] + b[i, j] * q
                    new = soft_threshold(c, n * lam[0] / 2.0) / q
                    if new != b[i, j]:
                        E = E - (new - b[i, j]) * np.outer(a[:, j], Z1[i])
                        b[i, j] = new
        if p:
            for i in range(N):
                for k in range(p * N):
                    q = omega[i, i] * x_row_ss[k]
                    if q <= 0:
                        continue
                    c = omega[i] @ E @ DX[k] + phi_mat[i, k] * q
                    new = soft_threshold(c, n * lam[1] / 2.0) / q
                    if new != phi_mat[i, k]:
                        E[i] = E[i] - (new - phi_mat[i, k]) * DX[k]
                        phi_mat[i, k] = new
        omega_new = np.linalg.inv(E @ E.T / n)
        if _pml_objective(E, omega_new, b, phi_mat, lam, n) <= obj + 1e-10:
            omega = omega_new
        new_obj = _pml_objective(E, omega, b, phi_mat, lam, n)
        assert new_obj <= history[-1] + 1e-10
        history.append(new_obj)
        if abs(history[-2] - new_obj) < tol * max(1.0, abs(history[-2])):
            return a, b, phi_mat, omega, history, True
    return a, b, phi_mat, omega, history, False


def _rel(got, want):
    scale = np.linalg.norm(want)
    return np.linalg.norm(got - want) / (scale if scale else 1.0)


@pytest.mark.blas_threads
class TestPmlOracle:
    # lambda_B = 0 leaves B unpenalized.  Most fits with r >= 1 reach the
    # cycle cap.
    EXACT = [(r, p, lam) for r in (0, 1, 2) for p in (0, 1, 2)
             for lam in ((0.1, 0.1), (0.0, 0.2))]

    @pytest.mark.parametrize("r, p, lam", EXACT)
    def test_matches_the_per_coordinate_updates(self, r, p, lam):
        for seed in range(2):
            _, z = _sim(4, 2, 121, 60 + 10 * seed + r, p=p)
            zs = z / z.std(axis=0)
            model = pml_vecm(zs, r, p=p, lambdas=lam)
            a, b, phi, omega, history, converged = _pml_per_coordinate(
                zs, r, p, lam)
            assert model.info["cycles"] == len(history) - 1
            assert model.info["converged"] is converged
            got = (model.a, model.b,
                   np.hstack(model.phi) if p else np.zeros((4, 0)),
                   model.sigma)
            for g, w in zip(got, (a, b, phi, np.linalg.inv(omega))):
                assert _rel(g, w) <= 1e-10

    def test_converged_flag(self):
        _, z = _sim(4, 2, 121, 62, p=1)
        zs = z / z.std(axis=0)
        model = pml_vecm(zs, r=2, p=1, lambdas=(0.0, 0.2))
        assert model.info["converged"] is True
        assert model.info["cycles"] < 200
        model = pml_vecm(zs, r=2, p=1, lambdas=(0.0, 0.2), max_cycles=2)
        assert model.info["cycles"] == 2
        assert model.info["converged"] is False

    def test_near_singular_residual_covariance_fails_the_window(self):
        # an exactly collinear window at rank 0 from the ridge start: its
        # residual covariance (condition number 2.9e16) still inverts, and
        # without the Ω step's condition bound the objective falls to -1e98
        # and the forecast rises to 1.7e144 in 30 cycles, with no error
        zs = _mixed_stack()[1:7]
        w = (zs / np.nanstd(zs, axis=1, keepdims=True))[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cap in (8, 30, 60):
                with pytest.raises(NumericalError,
                                   match="residual covariance is singular"):
                    pml_vecm(w, 0, p=1, lambdas=(0.3, 0.0), max_cycles=cap)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "L1 on B with a free A has a scale ridge: A grows and B shrinks "
        "without end (ROADMAP item 5)"))
    def test_rank_one_fit_stops_drifting(self):
        # the harness pml lane on a standardized panel, at the rank 1 that
        # select_rank_ic picks for it; when this test was written |A| went
        # 0.85 -> 3.38 and |B|_1 1.24 -> 0.32 from 200 to 1000 cycles
        params = random_vecm_params(4, 2, p=1, seed=0)
        z = simulate_vecm(params, 121, seed=1).values
        zs = z / z.std(axis=0)
        short = pml_vecm(zs, 1, p=1, lambdas=(0.1, 0.1))
        long = pml_vecm(zs, 1, p=1, lambdas=(0.1, 0.1), max_cycles=1000)
        assert short.info["converged"]
        assert np.linalg.norm(long.a) <= 1.01 * np.linalg.norm(short.a)


class TestForecast:
    def test_zero_model_is_random_walk_forecast(self):
        _, z = _sim(3, 1, 200, 15, p=1)
        model = johansen_ml(z, r=0, p=1, det="none")
        frozen = model.__class__(
            a=model.a, b=model.b, phi=(np.zeros((3, 3)),),
            mu=np.zeros(3), sigma=model.sigma, rank=0, p=1,
            det=model.det, t_last=model.t_last, estimator=model.estimator)
        fc = vecm_iterated_forecast(frozen, z, h=4)
        assert np.allclose(fc, np.tile(z[-1], (4, 1)))

    def test_embedded_ar1_matches_closed_form(self):
        # dz_t = (rho - 1) z_{t-1}: iterated forecast is rho^h z_T
        rho = 0.6
        params = VecmParams(a=np.array([[rho - 1.0]]), b=np.array([[1.0]]))
        z = simulate_vecm(params, 300, seed=16).values
        model = johansen_ml(z, r=1, p=0, det="none")
        fc = vecm_iterated_forecast(model, z, h=6)
        rho_hat = 1.0 + float((model.a @ model.b.T)[0, 0])
        expect = z[-1, 0] * rho_hat ** np.arange(1, 7)
        assert np.allclose(fc[:, 0], expect, atol=1e-10)

    def test_h1_is_one_application_of_the_map(self):
        _, z = _sim(3, 1, 250, 17, p=1)
        model = johansen_ml(z, r=1, p=1, det="none")
        fc = vecm_iterated_forecast(model, z, h=1)
        pi = model.a @ model.b.T
        dz = pi @ z[-1] + model.phi[0] @ (z[-1] - z[-2]) + model.mu
        assert np.allclose(fc[0], z[-1] + dz, atol=1e-10)

    def test_restricted_trend_enters_each_step_at_its_time(self):
        # 'trend' restricts a linear trend to the error-correction term:
        # step s adds mu + A(B'z + b_trend t) + sum_j Phi_j dz_{-j} at the
        # 1-based time t = T + s
        _, z = _sim(3, 1, 250, 19, p=1)
        z = z + 0.02 * np.arange(1.0, 251.0)[:, None] * [1.0, -0.5, 0.0]
        model = johansen_ml(z, r=1, p=2, det="trend")
        assert np.all(model.b_trend != 0) and np.any(model.mu != 0)
        levels, dz = [z[-1]], list(np.diff(z[-3:], axis=0))
        for t in range(251, 257):
            step = model.mu + model.a @ (model.b.T @ levels[-1]
                                         + model.b_trend * t)
            step = step + model.phi[0] @ dz[-1] + model.phi[1] @ dz[-2]
            dz.append(step)
            levels.append(levels[-1] + step)
        np.testing.assert_allclose(vecm_iterated_forecast(model, z, h=6),
                                   levels[1:], rtol=1e-12, atol=0)

    def test_nonpositive_horizon_rejected(self):
        _, z = _sim(2, 1, 200, 18)
        model = johansen_ml(z, r=1, p=0, det="none")
        with pytest.raises(ParameterError):
            vecm_iterated_forecast(model, z, h=0)


