"""Vector error-correction estimation and forecasting.

Four estimators share one model container: reduced-rank maximum
likelihood (Johansen), rank selection by a BIC-rate information
criterion, a pivoted-QR group-lasso estimator that discovers the rank,
and an elementwise-penalized maximum likelihood estimator for a fixed
rank.  A common iterated one-step forecaster maps any fitted model to
level forecasts.

The rank criterion, the Johansen fit and the PML estimator's Johansen
start read one solve of the reduced-rank eigenproblem; with ``r=None``
a fit takes the criterion's rank off the eigenvalues it already has.

The QR estimator's group-lasso columns are solved exactly in the range
of their Gram eigenbasis: one vectorised, safeguarded Newton solve of
the secular equations covers every fold, column and penalty of a fit,
and each fold scores its whole penalty grid with one stacked residual
product.  The PML estimator penalizes B and the short-run block, each
of which takes one soft-threshold coordinate sweep per cycle on plain
floats; its precision matrix is the exact inverse of the residual
covariance.  Johansen and QR fits share one short-run OLS given the
long-run matrix.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from ._numeric import (column_signs, expanding_folds, last_minimum,
                       nested_residual_factors, soft_threshold_sweep)
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
    D = det.design(n, p + 2)
    if det is DeterministicSpec.TREND:
        y1 = np.column_stack([y1, D[:, 1]])
    # no constant block at all under 'none': an empty one would make W
    # C-ordered for a Fortran-ordered z, which moves the PML fit's last bits
    cols = [D[:, :1]] if det.n_terms else []
    cols += [dz[p - j:-j] for j in range(1, p + 1)]
    W = np.column_stack(cols) if cols else np.empty((n, 0))
    return y0, y1, W, T


def _partial_out(W: np.ndarray, *blocks: np.ndarray
                 ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Residualize each block on W (no-op for an empty W).

    Returns the least-squares coefficients of W, one column per column
    of the stacked blocks, and the residual blocks.
    """
    if W.shape[1] == 0:
        return np.zeros((0, sum(b.shape[1] for b in blocks))), blocks
    coef, *_ = np.linalg.lstsq(W, np.column_stack(blocks), rcond=None)
    resid = np.column_stack(blocks) - W @ coef
    out, start = [], 0
    for b in blocks:
        out.append(resid[:, start:start + b.shape[1]])
        start += b.shape[1]
    return coef, tuple(out)


def _short_run(y0: np.ndarray, y1: np.ndarray, W: np.ndarray, pi: np.ndarray,
               p: int, det: DeterministicSpec
               ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    """Intercept, short-run matrices and residual covariance given Π.

    Regresses y0 - y1 Π' on W by least squares; ``pi`` has one column
    per column of ``y1``, a restricted-trend column included.
    """
    N = y0.shape[1]
    resid = y0 - y1 @ pi.T
    c = np.empty((0, N))
    if W.shape[1]:
        c, *_ = np.linalg.lstsq(W, resid, rcond=None)
        resid = resid - W @ c
    off = 0 if det is DeterministicSpec.NONE else 1
    mu = c[0] if off else np.zeros(N)
    phi = tuple(c[off + j * N: off + (j + 1) * N].T for j in range(p))
    return mu, phi, resid.T @ resid / y0.shape[0]


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


#: one window's error-correction blocks, concentrated moments and
#: eigenproblem (eigenvalues descending), read by every rank of the window
_Solve = namedtuple("_Solve", "y0 y1 W t_last lam vecs s00 s01")


def _johansen_solve(z: np.ndarray, p: int, det: DeterministicSpec) -> _Solve:
    """Concentrated moment matrices and the whitened eigenproblem."""
    y0, y1, W, t_last = _ec_design(z, p, det)
    _, (r0, r1) = _partial_out(W, y0, y1)
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
    return _Solve(y0, y1, W, t_last, lam, vecs[:, order], s00, s01)


def _ic_rank(s: _Solve) -> int:
    """The :func:`select_rank_ic` rank of one solve's eigenvalues."""
    (n, N), m = s.y0.shape, s.y1.shape[1]
    return int(np.argmin([n * float(np.sum(np.log(1 - s.lam[:r])))
                          + np.log(n) * r * (N + m - r)
                          for r in range(N + 1)]))


def _check_rank(T: int, N: int, p: int, r: int) -> None:
    """Rank ``r`` in 0..N and a window of T rows long enough to fit it."""
    if not 0 <= r <= N:
        raise ParameterError(f"rank must lie in 0..{N}")
    if T <= N * (p + 1) + r + 2:
        raise DataError(
            f"window of {T} observations is too short for N={N}, p={p}, r={r}")


def _johansen_fit(s: _Solve, r: int, p: int,
                  det: DeterministicSpec) -> VecmModel:
    """Reduced-rank ML fit of one solve at rank ``r``."""
    n, N = s.y0.shape
    _check_rank(s.t_last, N, p, r)
    b_aug = s.vecs[:, :r] * column_signs(s.vecs[:, :r])
    if b_aug.shape[1] < r:
        raise NumericalError("eigenproblem is rank-deficient; reduce r")
    a = s.s01 @ b_aug
    mu, phi, sigma = _short_run(s.y0, s.y1, s.W, a @ b_aug.T, p, det)
    sign, logdet = np.linalg.slogdet(s.s00)
    if sign <= 0:
        raise NumericalError("residual covariance is not positive definite")
    loglik = -0.5 * n * (N * (1 + np.log(2 * np.pi)) + logdet
                         + float(np.sum(np.log(1 - s.lam[:r]))))
    b = b_aug[:N]
    b_trend = b_aug[N] if det is DeterministicSpec.TREND else None
    return VecmModel(a=a, b=b, phi=phi, mu=mu, sigma=sigma, rank=r, p=p,
                     det=det, t_last=s.t_last, estimator="johansen",
                     b_trend=b_trend, eigenvalues=s.lam, loglik=loglik)


def johansen_ml(data, r: Optional[int], p: int = 1,
                det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                ) -> VecmModel:
    """Reduced-rank ML estimation of a VECM with cointegrating rank ``r``.

    ``r=None`` fits at the :func:`select_rank_ic` rank, read off the
    eigenvalues of the fit's own solve.  Deterministics: 'none' fits the
    bare system (suited to pre-detrended data), 'mean' adds an
    unrestricted intercept, 'trend' additionally restricts a linear trend
    to the error-correction term.
    """
    det = DeterministicSpec.parse(det)
    z = as_values(data)
    if r is not None:
        _check_rank(*z.shape, p, r)
    s = _johansen_solve(z, p, det)
    return _johansen_fit(s, _ic_rank(s) if r is None else r, p, det)


def select_rank_ic(data, p: int = 1,
                   det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                   ) -> int:
    """Cointegrating rank by BIC-rate information criterion.

    criterion(r) = n·Σ_{i≤r} log(1-λ_i) + log(n)·r(N + m - r) over
    r = 0..N, with m the dimension of the (possibly trend-augmented)
    lagged-level block; ties go to the smaller rank.  ``johansen_ml`` and
    ``pml_vecm`` with ``r=None`` fit at this rank from one solve.
    """
    det = DeterministicSpec.parse(det)
    return _ic_rank(_johansen_solve(as_values(data), p, det))


def select_lag_bic(data, p_max: int = 3,
                   det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                   ) -> int:
    """Short-run lag order by multivariate BIC on the unrestricted system.

    Candidates share the ``p_max`` design's n rows, and their [y1, W] are
    its leading columns, so one QR scores them all
    (:func:`nested_residual_factors`).  A candidate is singular and skipped
    when a pivot of its residual factor is at most ``n eps`` times the
    norm of its response column.  Ties go to the smaller order; 0 when
    every candidate is skipped.
    """
    det = DeterministicSpec.parse(det)
    z = as_values(data)
    T, N = z.shape
    if p_max < 0:
        raise ParameterError("p_max must be non-negative")
    n = T - p_max - 1
    base = N + det.n_terms
    widths = [base + N * p for p in range(p_max + 1) if n > base + N * p + 1]
    if not widths:
        return 0
    y0, y1, W, _ = _ec_design(z, p_max, det)
    F = nested_residual_factors(np.column_stack([y1, W])[:, :widths[-1]],
                                y0, widths)
    piv = np.abs(np.diagonal(F, axis1=-2, axis2=-1))
    ok = (piv > n * np.finfo(float).eps * np.linalg.norm(y0, axis=0)).all(1)
    with np.errstate(divide="ignore"):
        bic = 2 * np.log(piv).sum(axis=1) - N * np.log(n) \
            + np.log(n) * N * np.array(widths) / n
    return int(np.argmin(np.where(ok, bic, np.inf)))


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


def _group_basis(X: np.ndarray, y: np.ndarray, gram: np.ndarray):
    """Eigenbasis of min ||y - Xb||^2 + kappa·||b||_2, shared by every kappa.

    ``gram`` is X'X; returns (d, V, V'c, ||c||) with c = X'y.
    """
    c = X.T @ y
    d, V = np.linalg.eigh(gram)
    return d, V, V.T @ c, np.linalg.norm(c)


#: Newton steps allowed per secular equation; convergence takes far fewer
_SECULAR_MAX_ITER = 100


def _secular_roots(d: np.ndarray, ch: np.ndarray, kappa: np.ndarray
                   ) -> np.ndarray:
    """Roots mu > 0 of 1/||ch/(d + mu)|| = 2·mu/kappa, one per row.

    A row holds the positive eigenvalues ``d`` and rotated X'y ``ch`` of
    one group problem (padding has d = 1, ch = 0), with 2||ch|| > kappa.
    The left side is concave in mu (Moré and Sorensen, 1983), so Newton's
    method started right of the root decreases monotonically to it; a
    step that leaves the bracket of sign changes bisects instead.
    """
    lo = np.zeros(kappa.shape)
    hi = d.max(axis=1) * kappa / (2.0 * np.linalg.norm(ch, axis=1) - kappa)
    mu = hi.copy()
    todo = np.arange(mu.size)
    for _ in range(_SECULAR_MAX_ITER):
        m, k = mu[todo], kappa[todo]
        shifted = d[todo] + m[:, None]
        q = ch[todo] / shifted
        norm = np.sqrt(np.einsum("ij,ij->i", q, q))
        f = 1.0 / norm - 2.0 * m / k
        slope = np.einsum("ij,ij->i", q, q / shifted) / norm ** 3 - 2.0 / k
        step = f / slope
        lo[todo] = np.where(f >= 0.0, m, lo[todo])
        hi[todo] = np.where(f < 0.0, m, hi[todo])
        new = m - step
        outside = ~((new > lo[todo]) & (new < hi[todo]))
        tol = 4.0 * np.finfo(float).eps * m
        done = (np.abs(step) <= tol) | (hi[todo] - lo[todo] <= tol)
        mu[todo] = np.where(done, m, np.where(
            outside, 0.5 * (lo[todo] + hi[todo]), new))
        todo = todo[~done]
        if todo.size == 0:
            return mu
    raise ConvergenceError("group-lasso secular equation did not converge")


def _group_lasso(bases, kappa: np.ndarray) -> np.ndarray:
    """Exact minimizers of ||y_j - X_j b||^2 + kappa·||b||_2.

    Problem j is given by its Gram eigenbasis ``bases[j]`` (from
    :func:`_group_basis`), ``kappa`` by one row of penalties per problem;
    returns (penalties, columns, problems), zero-padded.  Either the zero
    condition 2||X_j'y|| <= kappa holds, or (X_j'X_j + mu I)b = X_j'y with
    mu = kappa/(2||b||), from one secular solve over every problem and
    penalty, of however many fits.  It runs in the range of the Gram (the
    eigenvectors with d > 1e-12·max(d)), where X_j'y and the unique
    minimizer lie; kappa = 0 takes mu = 0, the minimum-norm least-squares
    solution, and a root ||b|| below 1e-14 of that solution's norm, where
    2||X_j'y|| exceeds kappa only by rounding, gives zero.
    """
    P, m = kappa.shape[0], max(basis[0].size for basis in bases)
    D, CH = np.ones((P, m)), np.zeros((P, m))
    V = np.tile(np.eye(m), (P, 1, 1))
    cnorm, upper = np.empty(P), np.empty(P)
    for j, (d, v, ch, cn) in enumerate(bases):
        k = d.size
        D[j, :k], CH[j, :k], V[j, :k, :k] = d, ch, v
        null = d <= d.max() * 1e-12
        if null.any():
            D[j, :k][null], CH[j, :k][null] = 1.0, 0.0
        cnorm[j], upper[j] = cn, np.linalg.norm(CH[j, :k] / D[j, :k])
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = upper * 1e-14
        floor_gap = np.linalg.norm(
            CH[:, None] / (D[:, None] + kappa[..., None]
                           / (2.0 * lower[:, None, None])), axis=2) \
            - lower[:, None]
    nonzero = ~(2.0 * cnorm[:, None] <= kappa)
    lsq = nonzero & (kappa == 0.0)
    root = nonzero & ~lsq & (floor_gap > 0.0)
    mu = np.zeros(kappa.shape)
    j = np.nonzero(root)[0]
    mu[root] = _secular_roots(D[j], CH[j], kappa[root])
    out = np.zeros((kappa.shape[1], m, P))
    j, g = np.nonzero(root | lsq)
    out[g, :, j] = np.einsum("qik,qk->qi", V[j],
                             CH[j] / (D[j] + mu[j, g][:, None]))
    return out


@dataclass(frozen=True)
class _QrStage:
    """Initializer stage shared by fitting and cross-validation.

    ``short_run`` holds the coefficients of W in the regressions of
    [y0, y1] that partial it out; ``bases`` holds one group problem per
    column of the triangular factor.
    """

    y0: np.ndarray
    y1: np.ndarray
    W: np.ndarray
    t_last: int
    short_run: np.ndarray
    Q: np.ndarray
    piv: np.ndarray
    weights: np.ndarray
    bases: list


def _qr_stage(z: np.ndarray, p: int) -> _QrStage:
    """Partial out the short run, pivot-QR the OLS long run, and form the
    column problems of the window ``z``."""
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    short_run, (y0c, y1c) = _partial_out(W, y0, y1)
    gram = y1c.T @ y1c
    try:
        pi_ols = np.linalg.solve(gram, y1c.T @ y0c).T
    except np.linalg.LinAlgError:
        raise NumericalError("lagged-level Gram matrix is singular")
    Q, R0, piv = scipy.linalg.qr(pi_ols.T, pivoting=True)
    N = z.shape[1]
    weights = np.array([np.linalg.norm(R0[j, j:]) for j in range(N)])
    X = y1c @ Q
    targets = y0c[:, piv]
    G = X.T @ X
    bases = [_group_basis(X[:, :j + 1], targets[:, j], G[:j + 1, :j + 1])
             for j in range(N)]
    return _QrStage(y0, y1, W, t_last, short_run, Q, piv, weights, bases)


def _qr_paths(stages, grid: np.ndarray) -> np.ndarray:
    """Fitted R matrices of every stage at every penalty in ``grid``,
    (stages, penalties, N, N), from one :func:`_group_lasso` solve.

    Column j of R has support on rows 0..j and its own response series;
    zero weights encode an infinite penalty.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.concatenate([np.where(grid > 0, grid / s.weights[:, None],
                                         0.0) for s in stages])
    out = _group_lasso([b for s in stages for b in s.bases], kappa)
    N = stages[0].weights.size
    return out.reshape(grid.size, N, len(stages), N).transpose(2, 0, 1, 3)


def _qr_assemble(s: _QrStage, p: int, R: np.ndarray, lam: float) -> VecmModel:
    """(A, B) = (unit pivot columns, QR) over the nonzero columns of a
    fitted R; the short run is re-estimated."""
    nonzero = np.flatnonzero(np.any(R != 0.0, axis=0))
    a = np.zeros((s.Q.shape[0], nonzero.size))
    a[s.piv[nonzero], np.arange(nonzero.size)] = 1.0
    b = s.Q @ R[:, nonzero]
    mu, phi, sigma = _short_run(s.y0, s.y1, s.W, a @ b.T, p,
                                DeterministicSpec.NONE)
    return VecmModel(a=a, b=b, phi=phi, mu=mu, sigma=sigma,
                     rank=b.shape[1], p=p, det=DeterministicSpec.NONE,
                     t_last=s.t_last, estimator="qr_group_lasso",
                     info={"lambda": float(lam),
                           "pivot": [int(v) for v in s.piv]})


def _one_step_errors(pi: np.ndarray, phi: np.ndarray, z: np.ndarray,
                     start: int, stop: int) -> np.ndarray:
    """Squared one-step difference-forecast errors over rows start..stop-1
    (0-based indices into z) of the model
    Δz_t = Πz_{t-1} + Σ_j Φ_jΔz_{t-j}, with ``phi`` = [Φ_1 … Φ_p], or of
    each model in a stack of them."""
    p = phi.shape[-1] // z.shape[1]
    y0, y1, W, _ = _ec_design(z[start - p - 1:stop], p, DeterministicSpec.NONE)
    resid = y0 - y1 @ np.swapaxes(pi, -1, -2) - W @ np.swapaxes(phi, -1, -2)
    return resid * resid


def default_lambda_grid(scale: float) -> np.ndarray:
    """Ten geometric points from scale·10^-3 up to scale."""
    if scale <= 0:
        return np.array([0.0])
    return np.geomspace(scale * 10.0 ** -3, scale, 10)


def qr_vecm(data, p: int = 1, lambda_grid: Optional[Sequence[float]] = None
            ) -> VecmModel:
    """Rank-adaptive VECM via pivoted QR of the long-run OLS estimate.

    The short-run block is partialled out, the unrestricted long-run
    matrix is QR-factorized with column pivoting, and an adaptive group
    lasso shrinks whole columns of the triangular factor to zero; the
    count of surviving columns is the estimated rank.  The penalty level
    is chosen from ``lambda_grid`` (default: :func:`default_lambda_grid`
    up to the smallest penalty that zeroes every column) by five-fold
    expanding-window cross-validation on one-step forecasts
    (the folds of :func:`expanding_folds`, the tie rule of
    :func:`last_minimum`), with validation starting at
    max(N(p+1) + p + 3, T/2) and ties taking the larger penalty; a window
    too short for any fold takes the largest.  Every fold's stage is
    built first, and one batched secular solve gives R for every fold,
    column and penalty, the full sample included.  Each fold then scores
    the whole grid with one stacked residual product: Π of a penalty is
    the pivot-permuted (QR)', and its short run is C0 - C1Π' from the
    fold's partial-out coefficients.  The final short-run block is
    re-estimated by OLS.  Assumes de-meaned/de-trended input.
    """
    z = as_values(data)
    T, N = z.shape
    if N * (p + 1) >= T:
        raise DataError(
            f"QR estimator needs an OLS initializer, requiring N(p+1) < T; "
            f"got N={N}, p={p}, T={T}")
    stage = _qr_stage(z, p)
    if lambda_grid is None:
        zero_at = max(2.0 * basis[3] * w
                      for basis, w in zip(stage.bases, stage.weights))
        lambda_grid = default_lambda_grid(zero_at)
    grid = np.sort(np.asarray(list(lambda_grid), dtype=float))
    if grid.size == 0:
        raise ParameterError("lambda grid is empty")
    first = max(N * (p + 1) + p + 3, T // 2)
    blocks = [] if grid.size == 1 or first >= T else \
        expanding_folds(T, 5, first)
    stages = [_qr_stage(z[:lo], p) for lo, _ in blocks] + [stage]
    fits = _qr_paths(stages, grid)
    losses = np.zeros(grid.size)
    for s, R, (lo, hi) in zip(stages, fits, blocks):
        # Π = AB' puts (QR_j)' in row piv[j]; OLS of the partialled short
        # run is linear in the response, so Φ' = C0 - C1Π'
        pi = np.zeros_like(R)
        pi[:, s.piv] = np.swapaxes(s.Q @ R, 1, 2)
        phi = s.short_run[:, :N] - s.short_run[:, N:] @ np.swapaxes(pi, 1, 2)
        err = _one_step_errors(pi, np.swapaxes(phi, 1, 2), z, lo, hi)
        losses += err.reshape(grid.size, -1).sum(axis=1)
    best = last_minimum(losses) if blocks else grid.size - 1
    return _qr_assemble(stage, p, fits[-1][best], grid[best])


# -- penalized maximum likelihood ---------------------------------------------


def _pml_objective(E: np.ndarray, omega: np.ndarray, B: np.ndarray,
                   phi_mat: np.ndarray, lam: Tuple[float, float],
                   n: int) -> float:
    S = E @ E.T / n
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    return float(np.sum(S * omega) - logdet
                 + lam[0] * np.sum(np.abs(B))
                 + lam[1] * np.sum(np.abs(phi_mat)))


def _pml_init(z: np.ndarray, r: int, p: int, solve: Optional[_Solve] = None):
    """Johansen start when feasible, ridge start otherwise; ``solve`` is
    the window's Johansen solve when the caller has one."""
    T, N = z.shape
    try:
        m = johansen_ml(z, r, p, DeterministicSpec.NONE) if solve is None \
            else _johansen_fit(solve, r, p, DeterministicSpec.NONE)
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


def pml_vecm(data, r: Optional[int], p: int = 1,
             lambdas: Tuple[float, float] = (0.0, 0.0),
             max_cycles: int = 200) -> VecmModel:
    """Penalized Gaussian likelihood VECM at a fixed cointegrating rank.

    ``r=None`` fixes the :func:`select_rank_ic` rank, read off the
    eigenvalues of the Johansen solve that also gives the start; an
    explicit rank falls back to a ridge start when that solve fails.
    ``lambdas`` holds the L1 penalties (λ_B, λ_Φ) on the cointegrating
    vectors and the short-run block; the precision matrix is unpenalized.
    Cycles exact or descent-guaranteed block updates: least squares for
    A (the precision weighting cancels), one soft-threshold coordinate
    sweep each for B and the short-run block (gradients kept by rank-one
    updates from Z1Z1' and DX DX', the residual rebuilt once per block),
    and the exact inverse of the residual covariance for the precision
    matrix.  The objective must be non-increasing across cycles; an
    increase signals a subproblem fault and raises ConvergenceError.
    The fit has converged once a cycle changes the objective by less than
    1e-7 of its size (at least 1).
    ``info["converged"]`` is False when ``max_cycles`` ran out first, as
    it often does with B penalized: A grows while B shrinks along a scale
    ridge of the objective.
    """
    z = as_values(data)
    T, N = z.shape
    solve = None
    if r is None:
        solve = _johansen_solve(z, p, DeterministicSpec.NONE)
        r = _ic_rank(solve)
    if not 0 <= r <= N:
        raise ParameterError(f"rank must lie in 0..{N}")
    if T < N + p + 2:
        raise DataError(f"window of {T} observations is too short for N={N}, p={p}")
    lam = tuple(float(v) for v in lambdas)
    if len(lam) != 2 or any(v < 0 for v in lam):
        raise ParameterError("lambdas must be two non-negative numbers")
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    n = y0.shape[0]
    Yd, Z1, DX = y0.T, y1.T, W.T
    a, b, phi_mat, omega = _pml_init(z, r, p, solve)

    E = Yd - a @ (b.T @ Z1) - (phi_mat @ DX if p else 0.0)
    zz, xx = Z1 @ Z1.T, DX @ DX.T
    obj = _pml_objective(E, omega, b, phi_mat, lam, n)
    history, converged = [obj], False

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
            # B block: b'[j, i] has curvature (A'ΩA)_jj (Z1Z1')_ii
            oa = omega @ a
            b_new = soft_threshold_sweep(b.T, oa.T @ E @ Z1.T, oa.T @ a, zz,
                                         n * lam[0] / 2.0).T
            E = E - a @ (b_new - b).T @ Z1
            b = b_new
        if p:
            # short-run block: Φ[i, k] has curvature Ω_ii (DX DX')_kk
            phi_new = soft_threshold_sweep(phi_mat, omega @ E @ DX.T, omega,
                                           xx, n * lam[1] / 2.0)
            E = E - (phi_new - phi_mat) @ DX
            phi_mat = phi_new
        try:
            omega_new = np.linalg.inv(E @ E.T / n)
        except np.linalg.LinAlgError:
            raise NumericalError("residual covariance is singular")
        new_obj = _pml_objective(E, omega_new, b, phi_mat, lam, n)
        if new_obj <= obj + 1e-10:
            omega = omega_new
        else:
            new_obj = _pml_objective(E, omega, b, phi_mat, lam, n)
        if new_obj > history[-1] + 1e-10:
            raise ConvergenceError(
                f"objective increased from {history[-1]:.12g} to "
                f"{new_obj:.12g}; subproblem fault")
        history.append(new_obj)
        if abs(history[-2] - new_obj) < 1e-7 * max(1.0, abs(history[-2])):
            converged = True
            break

    sigma = np.linalg.inv(omega)
    phi = tuple(phi_mat[:, j * N:(j + 1) * N] for j in range(p))
    loglik = -0.5 * n * (N * np.log(2 * np.pi)
                         + _pml_objective(E, omega, np.zeros_like(b),
                                          np.zeros_like(phi_mat),
                                          (0.0, 0.0), n))
    return VecmModel(a=a, b=b, phi=phi, mu=np.zeros(N), sigma=sigma, rank=r,
                     p=p, det=DeterministicSpec.NONE, t_last=t_last,
                     estimator="pml", loglik=loglik,
                     info={"lambdas": list(lam), "objective": history[-1],
                           "cycles": len(history) - 1, "converged": converged,
                           "objective_path": history})
