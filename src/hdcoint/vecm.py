"""Vector error-correction estimation and forecasting.

Four estimators share one model container: reduced-rank maximum
likelihood (Johansen), rank selection by a BIC-rate information
criterion, a pivoted-QR group-lasso estimator that discovers the rank,
and an elementwise-penalized maximum likelihood estimator for a fixed
rank.  A common iterated one-step forecaster maps any fitted model to
level forecasts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from ._numeric import soft_threshold
from .errors import ConvergenceError, DataError, NumericalError, ParameterError
from .panel import DeterministicSpec, as_values

__all__ = [
    "VecmModel",
    "johansen_ml",
    "select_rank_ic",
    "select_lag_bic",
    "qr_vecm",
    "pml_vecm",
    "vecm_iterated_forecast",
]


def _ec_design(z: np.ndarray, p: int, det: DeterministicSpec
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Error-correction regression blocks.

    Returns (y0, y1, W, t_last): differences to explain, lagged levels
    (augmented with a restricted-trend column under the trend spec), and
    the unrestricted block of deterministics plus lagged differences.
    Response rows carry 1-based time indices p+2 .. T; t_last = T.
    """
    T, N = z.shape
    if p < 0:
        raise ParameterError("lag order p must be non-negative")
    n = T - p - 1
    if n < 1:
        raise DataError(f"window of {T} observations cannot support p={p}")
    dz = np.diff(z, axis=0)
    y0 = dz[p:]
    y1 = z[p:-1]
    if det is DeterministicSpec.TREND:
        t = np.arange(p + 2, T + 1, dtype=float)
        y1 = np.column_stack([y1, t])
    cols = []
    if det is not DeterministicSpec.NONE:
        cols.append(np.ones((n, 1)))
    for j in range(1, p + 1):
        cols.append(dz[p - j:-j])
    W = np.column_stack(cols) if cols else np.empty((n, 0))
    return y0, y1, W, T


def _partial_out(W: np.ndarray, *blocks: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Residualize each block on W (no-op for an empty W)."""
    if W.shape[1] == 0:
        return blocks
    coef, *_ = np.linalg.lstsq(W, np.column_stack(blocks), rcond=None)
    resid = np.column_stack(blocks) - W @ coef
    out, start = [], 0
    for b in blocks:
        out.append(resid[:, start:start + b.shape[1]])
        start += b.shape[1]
    return tuple(out)


def _fix_column_signs(V: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    if V.size == 0:
        return V
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


@dataclass(frozen=True)
class VecmModel:
    """Fitted error-correction model Δz_t = μ + AB'z_{t-1} + ΣΦ_jΔz_{t-j} + e.

    Under the trend specification the error-correction term reads
    A(B'z_{t-1} + b_trend·t) with t the 1-based time index of the
    response row; ``t_last`` anchors its extrapolation.  ``sigma`` is the
    residual covariance.
    """

    a: np.ndarray
    b: np.ndarray
    phi: Tuple[np.ndarray, ...]
    mu: np.ndarray
    sigma: np.ndarray
    rank: int
    p: int
    det: DeterministicSpec
    t_last: int
    estimator: str
    b_trend: Optional[np.ndarray] = None
    eigenvalues: Optional[np.ndarray] = None
    loglik: Optional[float] = None
    info: dict = field(default_factory=dict)

    @property
    def n_series(self) -> int:
        return self.a.shape[0]

    @property
    def pi(self) -> np.ndarray:
        return self.a @ self.b.T

    def to_dict(self) -> dict:
        def mat(x):
            if x is None:
                return None
            x = np.asarray(x, dtype=float)
            return {"shape": list(x.shape), "data": x.ravel().tolist()}
        return {
            "estimator": self.estimator,
            "rank": int(self.rank),
            "p": int(self.p),
            "det": str(self.det),
            "t_last": int(self.t_last),
            "a": mat(self.a),
            "b": mat(self.b),
            "b_trend": mat(self.b_trend),
            "phi": [mat(m) for m in self.phi],
            "mu": mat(self.mu),
            "sigma": mat(self.sigma),
            "eigenvalues": mat(self.eigenvalues),
            "loglik": None if self.loglik is None else float(self.loglik),
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)


# -- reduced-rank maximum likelihood ----------------------------------------


def _johansen_moments(y0: np.ndarray, y1: np.ndarray, W: np.ndarray):
    """Concentrated moment matrices and the whitened eigenproblem."""
    r0, r1 = _partial_out(W, y0, y1)
    n = r0.shape[0]
    s00 = r0.T @ r0 / n
    s01 = r0.T @ r1 / n
    s11 = r1.T @ r1 / n
    try:
        c00 = np.linalg.cholesky(s00)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "residual moment matrix is singular; reduce the lag order or rank")
    # columns of K solve S00 K = S01, so S10 S00^-1 S01 = K' S01
    k = scipy.linalg.cho_solve((c00, True), s01)
    cross = s01.T @ k
    try:
        c11 = np.linalg.cholesky(s11)
        m = scipy.linalg.solve_triangular(c11, cross, lower=True)
        m = scipy.linalg.solve_triangular(c11, m.T, lower=True).T
        m = (m + m.T) / 2
        lam, w = np.linalg.eigh(m)
        vecs = scipy.linalg.solve_triangular(c11.T, w, lower=False)
    except np.linalg.LinAlgError:
        # pseudo-whitening over the numerically non-degenerate subspace
        d, u = np.linalg.eigh((s11 + s11.T) / 2)
        keep = d > d.max() * 1e-12
        if not keep.any():
            raise NumericalError(
                "lagged-level moment matrix is singular; reduce p or rank")
        root = u[:, keep] / np.sqrt(d[keep])
        m = root.T @ cross @ root
        m = (m + m.T) / 2
        lam, w = np.linalg.eigh(m)
        vecs = root @ w
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, 1.0 - 1e-12)
    vecs = vecs[:, order]
    return lam, vecs, s00, s01, n


def johansen_ml(data, r: int, p: int = 1,
                det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                ) -> VecmModel:
    """Reduced-rank ML estimation of a VECM with cointegrating rank ``r``.

    Deterministics: 'none' fits the bare system (suited to pre-detrended
    data), 'mean' adds an unrestricted intercept, 'trend' additionally
    restricts a linear trend to the error-correction term.
    """
    det = DeterministicSpec.parse(det)
    z = as_values(data)
    T, N = z.shape
    if not 0 <= r <= N:
        raise ParameterError(f"rank must lie in 0..{N}")
    if T <= N * (p + 1) + r + 2:
        raise DataError(
            f"window of {T} observations is too short for N={N}, p={p}, r={r}")
    y0, y1, W, t_last = _ec_design(z, p, det)
    lam, vecs, s00, s01, n = _johansen_moments(y0, y1, W)
    b_aug = _fix_column_signs(vecs[:, :r])
    if b_aug.shape[1] < r:
        raise NumericalError("eigenproblem is rank-deficient; reduce r")
    a = s01 @ b_aug
    pi_aug = a @ b_aug.T
    resid = y0 - y1 @ pi_aug.T
    if W.shape[1]:
        c, *_ = np.linalg.lstsq(W, resid, rcond=None)
        resid = resid - W @ c
        c = c.T
    else:
        c = np.empty((N, 0))
    mu = c[:, 0] if det is not DeterministicSpec.NONE else np.zeros(N)
    off = 1 if det is not DeterministicSpec.NONE else 0
    phi = tuple(c[:, off + j * N: off + (j + 1) * N] for j in range(p))
    sigma = resid.T @ resid / n
    sign, logdet = np.linalg.slogdet(s00)
    if sign <= 0:
        raise NumericalError("residual covariance is not positive definite")
    loglik = -0.5 * n * (N * (1 + np.log(2 * np.pi)) + logdet
                         + float(np.sum(np.log(1 - lam[:r]))))
    b = b_aug[:N]
    b_trend = b_aug[N] if det is DeterministicSpec.TREND else None
    return VecmModel(a=a, b=b, phi=phi, mu=mu, sigma=sigma, rank=r, p=p,
                     det=det, t_last=t_last, estimator="johansen",
                     b_trend=b_trend, eigenvalues=lam, loglik=loglik)


def select_rank_ic(data, p: int = 1, rmax: Optional[int] = None,
                   det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                   ) -> int:
    """Cointegrating rank by BIC-rate information criterion.

    criterion(r) = n·Σ_{i≤r} log(1-λ_i) + log(n)·r(N + m - r), with m
    the dimension of the (possibly trend-augmented) lagged-level block;
    ties go to the smaller rank.
    """
    det = DeterministicSpec.parse(det)
    z = as_values(data)
    N = z.shape[1]
    rmax = N if rmax is None else int(rmax)
    if not 0 <= rmax <= N:
        raise ParameterError(f"rmax must lie in 0..{N}")
    if rmax == 0:
        return 0
    y0, y1, W, _ = _ec_design(z, p, det)
    lam, _, _, _, n = _johansen_moments(y0, y1, W)
    m = y1.shape[1]
    best_r, best = 0, np.inf
    for r in range(rmax + 1):
        crit = n * float(np.sum(np.log(1 - lam[:r]))) \
            + np.log(n) * r * (N + m - r)
        if crit < best:
            best_r, best = r, crit
    return best_r


def select_lag_bic(data, p_max: int = 3,
                   det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                   ) -> int:
    """Short-run lag order by multivariate BIC on the unrestricted system.

    Candidates share the common sample implied by ``p_max``; ties go to
    the smaller order.
    """
    det = DeterministicSpec.parse(det)
    z = as_values(data)
    T, N = z.shape
    if p_max < 0:
        raise ParameterError("p_max must be non-negative")
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


# -- iterated forecasting ----------------------------------------------------


def vecm_iterated_forecast(model: VecmModel, history: np.ndarray,
                           h: int) -> np.ndarray:
    """Level forecasts for steps 1..h from iterated one-step maps.

    ``history`` supplies at least the p+1 most recent level observations;
    each step cumulates the predicted difference onto the running level.
    """
    if h <= 0:
        raise ParameterError("forecast horizon must be positive")
    hist = np.asarray(history, dtype=float)
    if hist.ndim != 2 or hist.shape[0] < model.p + 1:
        raise DataError(
            f"history must supply at least {model.p + 1} observations")
    if hist.shape[1] != model.n_series:
        raise DataError("history width does not match the fitted system")
    level = hist[-1].copy()
    dz_hist = list(np.diff(hist, axis=0)[-model.p:]) if model.p else []
    path = np.empty((h, model.n_series))
    for s in range(1, h + 1):
        ec = model.b.T @ level
        if model.b_trend is not None:
            ec = ec + model.b_trend * (model.t_last + s)
        dz = model.mu + model.a @ ec
        for j, phi_j in enumerate(model.phi, start=1):
            dz = dz + phi_j @ dz_hist[-j]
        level = level + dz
        if model.p:
            dz_hist.append(dz)
        path[s - 1] = level
    return path


# -- pivoted-QR group lasso ---------------------------------------------------


def _group_lasso_single(X: np.ndarray, y: np.ndarray, kappa: float
                        ) -> np.ndarray:
    """Exact minimizer of ||y - Xb||^2 + kappa·||b||_2.

    The whole coefficient vector forms one group: either the zero
    condition ||2X'y|| <= kappa holds, or the stationarity equation
    (X'X + kappa/(2s) I)b = X'y is solved with s = ||b|| found by a
    scalar root search over the eigenbasis of X'X.
    """
    c = X.T @ y
    cnorm = np.linalg.norm(c)
    if 2.0 * cnorm <= kappa:
        return np.zeros(X.shape[1])
    if kappa == 0.0:
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        return beta
    d, V = np.linalg.eigh(X.T @ X)
    ch = V.T @ c
    if d.min() <= d.max() * 1e-12:
        return _group_lasso_fista(X, y, kappa)

    def gap(s):
        return np.linalg.norm(ch / (d + kappa / (2.0 * s))) - s

    upper = np.linalg.norm(ch / d)
    lower = upper * 1e-14
    if gap(lower) <= 0.0:
        # 2||X'y|| exceeds kappa only by rounding: the root lies below lower
        return np.zeros(X.shape[1])
    s_star = brentq(gap, lower, upper, xtol=1e-14, rtol=1e-15)
    return V @ (ch / (d + kappa / (2.0 * s_star)))


def _group_lasso_fista(X: np.ndarray, y: np.ndarray, kappa: float,
                       max_iter: int = 20000) -> np.ndarray:
    """Accelerated proximal gradient fallback for rank-deficient designs."""
    L = 2.0 * np.linalg.norm(X, 2) ** 2
    beta = np.zeros(X.shape[1])
    zeta, t_acc = beta.copy(), 1.0
    for _ in range(max_iter):
        grad = 2.0 * X.T @ (X @ zeta - y)
        v = zeta - grad / L
        nv = np.linalg.norm(v)
        new = np.zeros_like(v) if nv * L <= kappa else (1 - kappa / (L * nv)) * v
        t_next = (1 + np.sqrt(1 + 4 * t_acc ** 2)) / 2
        zeta = new + ((t_acc - 1) / t_next) * (new - beta)
        if np.linalg.norm(new - beta) <= 1e-12 * max(1.0, np.linalg.norm(new)):
            return new
        beta, t_acc = new, t_next
    raise ConvergenceError("group-lasso proximal iteration did not converge")


def _qr_group_fit(X: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                  lam: float) -> np.ndarray:
    """Solve the per-column group problems; returns the fitted R matrix.

    Column j of R has support on rows 0..j and its own response series;
    zero weights encode an infinite penalty.
    """
    N = X.shape[1]
    R = np.zeros((N, N))
    for j in range(N):
        if lam > 0 and weights[j] <= 0:
            continue
        kappa = lam / weights[j] if lam > 0 else 0.0
        R[:j + 1, j] = _group_lasso_single(X[:, :j + 1], targets[:, j], kappa)
    return R


def _qr_stage(z: np.ndarray, p: int):
    """Initializer stage shared by fitting and cross-validation."""
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    y0c, y1c = _partial_out(W, y0, y1)
    gram = y1c.T @ y1c
    try:
        pi_ols = np.linalg.solve(gram, y1c.T @ y0c).T
    except np.linalg.LinAlgError:
        raise NumericalError("lagged-level Gram matrix is singular")
    Q, R0, piv = scipy.linalg.qr(pi_ols.T, pivoting=True)
    weights = np.array([np.linalg.norm(R0[j, j:]) for j in range(z.shape[1])])
    X = y1c @ Q
    targets = y0c[:, piv]
    return y0, y1, W, t_last, Q, R0, piv, weights, X, targets


def _qr_assemble(z: np.ndarray, p: int, y0, y1, W, t_last, Q, piv, R,
                 lam: float) -> VecmModel:
    """Rebuild (A, B, Phi) from a fitted R and re-estimate the short run."""
    N = z.shape[1]
    nonzero = [j for j in range(N) if np.any(R[:, j] != 0.0)]
    r = len(nonzero)
    a = np.zeros((N, r))
    for k, j in enumerate(nonzero):
        a[piv[j], k] = 1.0
    b = Q @ R[:, nonzero] if r else np.zeros((N, 0))
    pi = a @ b.T
    resid = y0 - y1 @ pi.T
    n = y0.shape[0]
    if W.shape[1]:
        c, *_ = np.linalg.lstsq(W, resid, rcond=None)
        resid = resid - W @ c
        phi = tuple(c.T[:, j * N:(j + 1) * N] for j in range(p))
    else:
        phi = ()
    sigma = resid.T @ resid / n
    return VecmModel(a=a, b=b, phi=phi, mu=np.zeros(N), sigma=sigma, rank=r,
                     p=p, det=DeterministicSpec.NONE, t_last=t_last,
                     estimator="qr_group_lasso",
                     info={"lambda": float(lam), "pivot": [int(v) for v in piv]})


def _one_step_sse(model: VecmModel, z: np.ndarray, start: int, stop: int
                  ) -> float:
    """Sum of squared one-step difference-forecast errors over rows
    start..stop-1 (0-based indices into z)."""
    sse = 0.0
    for t in range(start, stop):
        pred = vecm_iterated_forecast(model, z[:t], 1)[0]
        err = z[t] - pred
        sse += float(err @ err)
    return sse


def default_lambda_grid(scale: float, n_points: int = 10,
                        decades: float = 3.0) -> np.ndarray:
    """Geometric grid from scale down to scale·10^-decades, ascending."""
    if scale <= 0:
        return np.array([0.0])
    return np.geomspace(scale * 10.0 ** (-decades), scale, n_points)


def qr_vecm(data, p: int = 1, lambda_grid: Optional[Sequence[float]] = None,
            cv_folds: int = 5) -> VecmModel:
    """Rank-adaptive VECM via pivoted QR of the long-run OLS estimate.

    The short-run block is partialled out, the unrestricted long-run
    matrix is QR-factorized with column pivoting, and an adaptive group
    lasso shrinks whole columns of the triangular factor to zero; the
    count of surviving columns is the estimated rank.  The penalty level
    is chosen by expanding-window cross-validation on one-step forecasts
    (ties take the larger penalty); the short-run block is re-estimated
    by OLS.  Assumes de-meaned/de-trended input.
    """
    z = as_values(data)
    T, N = z.shape
    if N * (p + 1) >= T:
        raise DataError(
            f"QR estimator needs an OLS initializer, requiring N(p+1) < T; "
            f"got N={N}, p={p}, T={T}")
    stage = _qr_stage(z, p)
    y0, y1, W, t_last, Q, R0, piv, weights, X, targets = stage
    if lambda_grid is None:
        zero_at = max(2.0 * np.linalg.norm(X[:, :j + 1].T @ targets[:, j])
                      * weights[j] for j in range(N))
        lambda_grid = default_lambda_grid(zero_at)
    grid = np.sort(np.asarray(list(lambda_grid), dtype=float))
    if grid.size == 0:
        raise ParameterError("lambda grid is empty")

    best_lam = grid[-1]
    if grid.size > 1:
        first = max(N * (p + 1) + p + 3, T // 2)
        bounds = np.linspace(first, T, cv_folds + 1).astype(int)
        losses = np.zeros(grid.size)
        for f in range(cv_folds):
            lo, hi = bounds[f], bounds[f + 1]
            if hi <= lo:
                continue
            sub = z[:lo]
            if N * (p + 1) >= sub.shape[0]:
                continue
            s = _qr_stage(sub, p)
            for g, lam in enumerate(grid):
                R = _qr_group_fit(s[8], s[9], s[7], lam)
                m = _qr_assemble(sub, p, s[0], s[1], s[2], s[3], s[4], s[6],
                                 R, lam)
                losses[g] += _one_step_sse(m, z, lo, hi)
        order = np.argsort(losses, kind="stable")
        best = losses[order[0]]
        best_lam = grid[max(g for g in range(grid.size) if losses[g] <= best)]

    R = _qr_group_fit(X, targets, weights, best_lam)
    return _qr_assemble(z, p, y0, y1, W, t_last, Q, piv, R, best_lam)


# -- penalized maximum likelihood ---------------------------------------------


def _pml_objective(E: np.ndarray, omega: np.ndarray, B: np.ndarray,
                   phi_mat: np.ndarray, lam: Tuple[float, float, float],
                   n: int) -> float:
    S = E @ E.T / n
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    off = np.sum(np.abs(omega)) - np.sum(np.abs(np.diag(omega)))
    return float(np.sum(S * omega) - logdet
                 + lam[0] * np.sum(np.abs(B))
                 + lam[1] * np.sum(np.abs(phi_mat))
                 + lam[2] * off)


def _omega_prox_step(omega: np.ndarray, S: np.ndarray, lam3: float,
                     n_inner: int = 50) -> np.ndarray:
    """Backtracked proximal gradient on tr(SΩ) - log|Ω| + λ3·||off(Ω)||_1.

    Every accepted step decreases the objective, preserving the outer
    monotonicity contract.
    """
    def value(om):
        sign, logdet = np.linalg.slogdet(om)
        if sign <= 0:
            return np.inf
        off = np.sum(np.abs(om)) - np.sum(np.abs(np.diag(om)))
        return float(np.sum(S * om) - logdet + lam3 * off)

    def prox(om, t):
        out = soft_threshold(om, t * lam3)
        np.fill_diagonal(out, np.diag(om))
        return (out + out.T) / 2

    cur = value(omega)
    step = 1.0 / max(1.0, np.linalg.norm(S, 2))
    for _ in range(n_inner):
        grad = S - np.linalg.inv(omega)
        accepted = False
        t = step
        for _ in range(40):
            cand = prox(omega - t * grad, t)
            try:
                np.linalg.cholesky(cand)
            except np.linalg.LinAlgError:
                t /= 2
                continue
            if value(cand) <= cur + 1e-14:
                accepted = True
                break
            t /= 2
        if not accepted:
            break
        new_val = value(cand)
        omega, improved = cand, cur - new_val
        cur = new_val
        if improved < 1e-12 * max(1.0, abs(cur)):
            break
    return omega


def _pml_init(z: np.ndarray, r: int, p: int):
    """Johansen start when feasible, ridge start otherwise."""
    T, N = z.shape
    try:
        m = johansen_ml(z, r, p, DeterministicSpec.NONE)
        omega = np.linalg.inv(m.sigma + 1e-8 * np.trace(m.sigma) / N * np.eye(N))
        phi_mat = np.hstack(m.phi) if p else np.empty((N, 0))
        return m.a.copy(), m.b.copy(), phi_mat, omega
    except (DataError, NumericalError):
        pass
    y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.NONE)
    gram = y1.T @ y1
    kappa = 1e-2 * np.trace(gram) / N
    pi = np.linalg.solve(gram + kappa * np.eye(N), y1.T @ y0).T
    u, s, vt = np.linalg.svd(pi)
    a = u[:, :r] * s[:r]
    b = vt[:r].T
    resid = y0 - y1 @ (a @ b.T).T
    S = resid.T @ resid / y0.shape[0]
    omega = np.linalg.inv(S + 1e-3 * np.trace(S) / N * np.eye(N))
    return a, b, np.zeros((N, p * N)), omega


def pml_vecm(data, r: int, p: int = 1,
             lambdas: Tuple[float, float, float] = (0.0, 0.0, 0.0),
             max_cycles: int = 200, tol: float = 1e-7) -> VecmModel:
    """Penalized Gaussian likelihood VECM at a fixed cointegrating rank.

    Cycles exact or descent-guaranteed block updates: least squares for
    A (the precision weighting cancels), elementwise soft-thresholding
    for B and the short-run block, an exact inverse (or proximal descent
    when the off-diagonal penalty binds) for the precision matrix.  The
    objective must be non-increasing across cycles; an increase signals
    a subproblem fault and raises ConvergenceError.
    """
    z = as_values(data)
    T, N = z.shape
    if not 0 <= r <= N:
        raise ParameterError(f"rank must lie in 0..{N}")
    if T < N + p + 2:
        raise DataError(f"window of {T} observations is too short for N={N}, p={p}")
    lam = tuple(float(v) for v in lambdas)
    if len(lam) != 3 or any(v < 0 for v in lam):
        raise ParameterError("lambdas must be three non-negative numbers")
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    n = y0.shape[0]
    Yd, Z1, DX = y0.T, y1.T, W.T
    a, b, phi_mat, omega = _pml_init(z, r, p)

    E = Yd - a @ (b.T @ Z1) - (phi_mat @ DX if p else 0.0)
    z_row_ss = np.einsum("it,it->i", Z1, Z1)
    x_row_ss = np.einsum("it,it->i", DX, DX) if p else np.empty(0)
    obj = _pml_objective(E, omega, b, phi_mat, lam, n)
    history = [obj]

    for _ in range(max_cycles):
        if r:
            # A block: exact least squares, precision weighting cancels
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
            # B block: coordinate soft-thresholds
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
            # short-run block: coordinate soft-thresholds
            for i in range(N):
                oi = omega[i]
                for k in range(p * N):
                    q = omega[i, i] * x_row_ss[k]
                    if q <= 0:
                        continue
                    c = oi @ E @ DX[k] + phi_mat[i, k] * q
                    new = soft_threshold(c, n * lam[1] / 2.0) / q
                    if new != phi_mat[i, k]:
                        delta = new - phi_mat[i, k]
                        E[i] = E[i] - delta * DX[k]
                        phi_mat[i, k] = new
        S = E @ E.T / n
        if lam[2] == 0.0:
            try:
                omega_new = np.linalg.inv(S)
            except np.linalg.LinAlgError:
                raise NumericalError("residual covariance is singular")
            if _pml_objective(E, omega_new, b, phi_mat, lam, n) <= obj + 1e-10:
                omega = omega_new
        else:
            omega = _omega_prox_step(omega, S, lam[2])

        new_obj = _pml_objective(E, omega, b, phi_mat, lam, n)
        if new_obj > history[-1] + 1e-10:
            raise ConvergenceError(
                f"objective increased from {history[-1]:.12g} to "
                f"{new_obj:.12g}; subproblem fault")
        history.append(new_obj)
        if abs(history[-2] - new_obj) < tol * max(1.0, abs(history[-2])):
            break

    sigma = np.linalg.inv(omega)
    phi = tuple(phi_mat[:, j * N:(j + 1) * N] for j in range(p))
    loglik = -0.5 * n * (N * np.log(2 * np.pi)
                         + _pml_objective(E, omega, np.zeros_like(b),
                                          np.zeros_like(phi_mat),
                                          (0.0, 0.0, 0.0), n))
    return VecmModel(a=a, b=b, phi=phi, mu=np.zeros(N), sigma=sigma, rank=r,
                     p=p, det=DeterministicSpec.NONE, t_last=t_last,
                     estimator="pml", loglik=loglik,
                     info={"lambdas": list(lam), "objective": history[-1],
                           "cycles": len(history) - 1,
                           "objective_path": history})
