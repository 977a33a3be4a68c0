"""Error-correction estimators: likelihood, rank-penalized QR, PML.

Reduced-rank results are cross-checked against an unrestricted OLS fit
of the error-correction form, computed inline with lstsq.
"""

import numpy as np
import pytest

from hdcoint import (DataError, NumericalError, ParameterError, VecmParams,
                     johansen_ml, pml_vecm, qr_vecm, random_vecm_params,
                     select_lag_bic, select_rank_ic, simulate_vecm,
                     vecm_iterated_forecast)
from hdcoint.vecm import _group_lasso_single
from tests.conftest import subspace_angle_deg


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

    def test_rmax_zero(self, rng):
        z = rng.standard_normal((200, 3)).cumsum(axis=0)
        assert select_rank_ic(z, p=1, rmax=0, det="none") == 0


class TestLagSelection:
    def test_strong_lag_structure_found(self):
        params = random_vecm_params(3, 1, p=1, seed=6, phi_scale=0.4)
        z = simulate_vecm(params, 500, seed=7).values
        assert select_lag_bic(z, p_max=3, det="none") >= 1

    def test_no_dynamics_prefers_smallest(self):
        params = random_vecm_params(3, 1, p=0, seed=8)
        z = simulate_vecm(params, 500, seed=9).values
        assert select_lag_bic(z, p_max=3, det="none") <= 1


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


class TestPml:
    def test_zero_penalty_matches_likelihood_estimator(self):
        _, z = _sim(3, 1, 300, 12)
        ml = johansen_ml(z, r=1, p=1, det="none")
        pml = pml_vecm(z, r=1, p=1, lambdas=(0.0, 0.0, 0.0))
        assert np.allclose(pml.a @ pml.b.T, ml.a @ ml.b.T, atol=1e-4)

    def test_huge_lag_penalty_zeroes_phi(self):
        _, z = _sim(3, 1, 300, 13, p=1)
        model = pml_vecm(z, r=1, p=1, lambdas=(0.0, 1e6, 0.0))
        assert np.allclose(model.phi[0], 0.0)

    def test_huge_omega_penalty_diagonalizes(self):
        _, z = _sim(3, 1, 300, 14)
        model = pml_vecm(z, r=1, p=1, lambdas=(0.0, 0.0, 1e6))
        off = model.sigma - np.diag(np.diag(model.sigma))
        assert np.allclose(off, 0.0, atol=1e-8)

    def test_objective_path_monotone(self):
        for seed in range(5):
            _, z = _sim(3, 1, 250, 20 + seed)
            model = pml_vecm(z, r=1, p=1, lambdas=(0.05, 0.05, 0.02))
            path = np.asarray(model.info["objective_path"])
            assert np.all(np.diff(path) <= 1e-10)


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

    def test_nonpositive_horizon_rejected(self):
        _, z = _sim(2, 1, 200, 18)
        model = johansen_ml(z, r=1, p=0, det="none")
        with pytest.raises(ParameterError):
            vecm_iterated_forecast(model, z, h=0)


class TestSerialization:
    def test_json_round_trip_preserves_matrices(self):
        _, z = _sim(3, 1, 250, 19, p=1)
        model = johansen_ml(z, r=1, p=1, det="none")
        doc = model.to_dict()
        a = np.asarray(doc["a"]["data"]).reshape(doc["a"]["shape"])
        assert np.allclose(a, model.a)
        assert doc["rank"] == 1 and doc["p"] == 1
        assert isinstance(model.to_json(), str)
