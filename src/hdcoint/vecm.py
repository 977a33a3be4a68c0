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
The solve is one triangular factor: a QR of [W, y1, y0], a QR of its
residual block and one SVD give the squared canonical correlations, and
a pivot of at most n eps times its column's norm makes a window singular.

The QR estimator builds its design once per window.  Each
cross-validation fold trains on a row prefix of it, and the triangular
factor of that prefix gives the fold's OLS long run, short-run
coefficients and column Grams, with the same singularity rule and
messages as the Johansen solve.  After one QR per prefix and one pivoted
QR per stage, the stages are stacked: one solve, one product, one
``eigh`` per column size, and one vectorised, safeguarded Newton solve
of the secular equations for every stage, column and penalty, whose
group-lasso columns are solved exactly in the range of their Gram
eigenbasis.  Each fold scores its whole penalty grid with one stacked
residual product on its slice of the design.  The final short run and
residual covariance given Π are read off the full sample's factor;
Johansen fits take theirs from one least-squares step
(:func:`_short_run`).  The PML estimator penalizes B and the short-run
block, each of which takes one soft-threshold coordinate sweep per
cycle on plain floats; its precision matrix is the exact inverse of the
residual covariance.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from ._numeric import (column_signs, expanding_folds, last_minimum,
                       nested_residual_factors, penalty_levels,
                       singular_pivots, soft_threshold_sweep)
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


#: one window's error-correction blocks, eigenproblem (λ descending,
#: β'S11β = I), log det S00 and S01, read by every rank of the window
_Solve = namedtuple("_Solve", "y0 y1 W t_last lam vecs logdet s01")


def _check_factor(ta: np.ndarray, lead: np.ndarray, norms: np.ndarray,
                  n) -> None:
    """Raise :class:`NumericalError` when a window (or any of a stack) is
    singular: a pivot of ``ta``, the factor of y0's residual on W, or of
    ``lead``, the factor of [W, y1], that :func:`singular_pivots` reads as
    singular against ``norms``, the column norms of [W, y1, y0] in the
    window's n rows."""
    q = lead.shape[-1]
    if singular_pivots(ta, norms[..., q:], n).any():
        raise NumericalError(
            "residual moment matrix is singular; reduce the lag order or rank")
    if singular_pivots(lead, norms[..., :q], n).any():
        raise NumericalError(
            "lagged-level moment matrix is singular; reduce p or rank")


def _johansen_solve(z: np.ndarray, p: int, det: DeterministicSpec) -> _Solve:
    """One window's reduced-rank eigenproblem from one triangular factor.

    A QR of [W, y1, y0] (k, m and N columns) gives R22 = R[k:k+m, k:k+m]
    and the residual block A = R[k:, k+m:]: S11 = R22'R22/n, S01 =
    A[:m]'R22/n and S00 = A'A/n, none of them squared out of the data.
    With A = Qa Ta and Qa[:m] = U diag(σ) V', λ = σ² (squared canonical
    correlations; Björck & Golub 1973, Doornik & O'Brien 2002), zero-padded
    to m and clipped at 1 - 1e-12; the vectors are √n R22⁻¹U.  A singular
    Ta, then a singular R[:k+m, :k+m], raises (:func:`_check_factor`).
    """
    y0, y1, W, t_last = _ec_design(z, p, det)
    (n, N), k, m = y0.shape, W.shape[1], y1.shape[1]
    design = np.hstack([W, y1, y0])
    R = np.linalg.qr(design, mode="r")
    r22, (qa, ta) = R[k:k + m, k:k + m], np.linalg.qr(R[k:, k + m:])
    _check_factor(ta, R[:k + m, :k + m], np.linalg.norm(design, axis=0), n)
    u, sigma, _ = np.linalg.svd(qa[:m])
    lam = np.zeros(m)
    lam[:N] = np.clip(sigma * sigma, 0.0, 1.0 - 1e-12)
    vecs = np.sqrt(n) * scipy.linalg.solve_triangular(r22, u)
    logdet = 2 * np.log(np.abs(np.diagonal(ta))).sum() - N * np.log(n)
    return _Solve(y0, y1, W, t_last, lam, vecs, logdet,
                  R[k:k + m, k + m:].T @ r22 / n)


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
    a = s.s01 @ b_aug
    mu, phi, sigma = _short_run(s.y0, s.y1, s.W, a @ b_aug.T, p, det)
    loglik = -0.5 * n * (N * (1 + np.log(2 * np.pi)) + s.logdet
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
    when a pivot of its residual factor is singular by
    :func:`singular_pivots`.  Ties go to the smaller order; 0 when every
    candidate is skipped.
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
    piv = np.abs(np.diagonal(F, axis1=1, axis2=2))
    singular = singular_pivots(F, np.linalg.norm(y0, axis=0), n).any(axis=1)
    with np.errstate(divide="ignore"):
        bic = 2 * np.log(piv).sum(axis=1) - N * np.log(n) \
            + np.log(n) * N * np.array(widths) / n
    return int(np.argmin(np.where(singular, np.inf, bic)))


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


#: group problems j = 0..m-1, stacked on the leading axes: each row holds
#: problem j's Gram eigenvalues ``d`` and rotated X'y ``ch`` in its first
#: j + 1 entries, its eigenvectors ``V`` in its leading (j+1)-square block
#: (padding: d = 1, ch = 0, V = I), and ``cnorm`` = ||X'y||
_Bases = namedtuple("_Bases", "d V ch cnorm")


def _group_bases(G: np.ndarray, C: np.ndarray) -> _Bases:
    """Eigenbases of min ||y_j - X[:, :j+1] b||^2 + kappa·||b||_2 for
    j = 0..m-1, shared by every kappa, from G = X'X and C = X'[y_0 … y_m-1]
    (..., m, m): one ``eigh`` per problem size for the whole stack.

    An eigenvalue at most 1e-12 of its problem's largest is null and
    padded like the unused entries, so each problem is solved in the
    range of its Gram, where X'y and the unique minimizer lie.
    """
    m = G.shape[-1]
    d, ch = np.ones(G.shape), np.zeros(G.shape)
    V = np.zeros(G.shape + (m,)) + np.eye(m)
    for j in range(m):
        dj, vj = np.linalg.eigh(G[..., :j + 1, :j + 1])
        chj = (np.swapaxes(vj, -1, -2) @ C[..., :j + 1, j:j + 1])[..., 0]
        null = dj <= dj.max(axis=-1, keepdims=True) * 1e-12
        d[..., j, :j + 1] = np.where(null, 1.0, dj)
        ch[..., j, :j + 1] = np.where(null, 0.0, chj)
        V[..., j, :j + 1, :j + 1] = vj
    return _Bases(d, V, ch, np.linalg.norm(np.triu(C), axis=-2))


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


def _group_lasso(bases: _Bases, kappa: np.ndarray) -> np.ndarray:
    """Exact minimizers of ||y_j - X_j b||^2 + kappa·||b||_2.

    The problems are those of ``bases`` (from :func:`_group_bases`), in
    the order of their flattened leading axes, ``kappa`` holds one row of
    penalties per problem; returns (penalties, columns, problems),
    zero-padded.  Either the zero condition 2||X_j'y|| <= kappa holds, or
    (X_j'X_j + mu I)b = X_j'y with mu = kappa/(2||b||), from one secular
    solve over every problem and penalty, of however many fits, in the
    range of the Gram.  kappa = 0 takes mu = 0, the minimum-norm
    least-squares solution, and a root ||b|| below 1e-14 of that
    solution's norm, where 2||X_j'y|| exceeds kappa only by rounding,
    gives zero.
    """
    P, m = kappa.shape[0], bases.d.shape[-1]
    D, CH = bases.d.reshape(P, m), bases.ch.reshape(P, m)
    V, cnorm = bases.V.reshape(P, m, m), bases.cnorm.reshape(P)
    upper = np.linalg.norm(CH / D, axis=1)
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
class _QrStages:
    """The initializer stages of one window, shared by fitting and
    cross-validation and stacked on a leading axis.

    Stage s fits the first ``rows[s]`` rows of the window's design
    [W, y1, y0] (k, N and N columns).  ``R`` is the triangular factor of
    those rows, with zero rows under a prefix shorter than its width;
    ``short_run`` = R11⁻¹[R13, R12] holds the coefficients of W in the
    regressions of [y0, y1] on it; ``Q``, ``piv`` and ``weights`` come from
    the pivoted QR of the OLS long run; ``bases`` holds one group problem
    per column of its triangular factor.
    """

    rows: np.ndarray
    k: int
    R: np.ndarray
    short_run: np.ndarray
    Q: np.ndarray
    piv: np.ndarray
    weights: np.ndarray
    bases: _Bases


def _qr_stages(design: np.ndarray, k: int, rows: Sequence[int]
               ) -> _QrStages:
    """The stages of the row prefixes ``rows`` of ``design`` = [W, y1, y0],
    read off one triangular factor per prefix.

    With R = [[R11, R12, R13], [0, R22, R23], [0, 0, R33]], the OLS long
    run is Π' = R22⁻¹R23 and the short run R11⁻¹[R13, R12], from one solve
    for every stage.  Π' = QR0 with column pivoting; column problem j
    regresses column piv[j] of y0's residual on W on the first j + 1
    columns of (y1's residual on W)·Q, so with M = R22·Q their Gram is M'M
    and their cross-products are M'R23[:, piv], from one product.  A
    singular prefix raises (:func:`_check_factor`).
    """
    S, K = len(rows), design.shape[1]
    N = (K - k) // 2
    R = np.zeros((S, K, K))
    for s, n in enumerate(rows):
        f = np.linalg.qr(design[:n], mode="r")
        R[s, :f.shape[0]] = f
    _check_factor(np.linalg.qr(R[:, k:, k + N:], mode="r"),
                  R[:, :k + N, :k + N], np.linalg.norm(R, axis=1),
                  np.asarray(rows)[:, None])
    # diag(R11, R22)⁻¹ [[R13, R12], [R23, 0]] = [[short run], [Π', 0]]
    lhs, rhs = np.zeros((S, k + N, k + N)), np.zeros((S, k + N, 2 * N))
    lhs[:, :k, :k], lhs[:, k:, k:] = R[:, :k, :k], R[:, k:k + N, k:k + N]
    rhs[:, :, :N], rhs[:, :k, N:] = R[:, :k + N, k + N:], R[:, :k, k:k + N]
    coef = np.linalg.solve(lhs, rhs)
    Q, R0 = np.empty((S, N, N)), np.empty((S, N, N))
    piv = np.empty((S, N), int)
    for s in range(S):
        Q[s], R0[s], piv[s] = scipy.linalg.qr(coef[s, k:, :N], pivoting=True)
    M = R[:, k:k + N, k:k + N] @ Q
    targets = np.take_along_axis(R[:, k:k + N, k + N:], piv[:, None], axis=2)
    MtB = np.swapaxes(M, 1, 2) @ np.concatenate([M, targets], axis=2)
    return _QrStages(np.asarray(rows), k, R, coef[:, :k], Q, piv,
                     np.linalg.norm(R0, axis=2),
                     _group_bases(MtB[..., :N], MtB[..., N:]))


def _qr_paths(stages: _QrStages, grid: np.ndarray) -> np.ndarray:
    """Fitted R matrices of every stage at every penalty in ``grid``,
    (stages, penalties, N, N), from one :func:`_group_lasso` solve.

    Column j of R has support on rows 0..j and its own response series;
    zero weights encode an infinite penalty.
    """
    S, N = stages.weights.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(grid > 0, grid / stages.weights[..., None], 0.0)
    out = _group_lasso(stages.bases, kappa.reshape(S * N, grid.size))
    return out.reshape(grid.size, N, S, N).transpose(2, 0, 1, 3)


def _qr_assemble(stages: _QrStages, p: int, R: np.ndarray, lam: float,
                 t_last: int) -> VecmModel:
    """(A, B) = (unit pivot columns, QR) over the nonzero columns of a
    fitted R of the last stage, the full sample; the short run is the OLS
    given Π and Σ the covariance of its residuals, both read off the
    stage's factor."""
    Q, piv, F, k = stages.Q[-1], stages.piv[-1], stages.R[-1], stages.k
    N = Q.shape[0]
    nonzero = np.flatnonzero(np.any(R != 0.0, axis=0))
    a = np.zeros((N, nonzero.size))
    a[piv[nonzero], np.arange(nonzero.size)] = 1.0
    b = Q @ R[:, nonzero]
    pi_t = b @ a.T
    c = stages.short_run[-1, :, :N] - stages.short_run[-1, :, N:] @ pi_t
    resid = F[k:, k + N:] - F[k:, k:k + N] @ pi_t
    return VecmModel(a=a, b=b, phi=tuple(c[j * N:(j + 1) * N].T
                                         for j in range(p)),
                     mu=np.zeros(N), sigma=resid.T @ resid / stages.rows[-1],
                     rank=b.shape[1], p=p, det=DeterministicSpec.NONE,
                     t_last=t_last, estimator="qr_group_lasso",
                     info={"lambda": float(lam),
                           "pivot": [int(v) for v in piv]})


def _one_step_errors(pi: np.ndarray, phi: np.ndarray, y0: np.ndarray,
                     y1: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Squared one-step difference-forecast errors on the rows (y0, y1, W)
    of an error-correction design (``det`` 'none') of the model
    Δz_t = Πz_{t-1} + Σ_j Φ_jΔz_{t-j}, with ``phi`` = [Φ_1 … Φ_p], or of
    each model in a stack of them."""
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

    The long-run OLS matrix, read off the triangular factor of the
    error-correction design [W, y1, y0], is QR-factorized with column
    pivoting, and an adaptive group lasso on the residuals of the
    short-run block shrinks whole columns of the triangular factor to
    zero; the count of surviving columns is the estimated rank.  The
    penalty level is chosen from ``lambda_grid`` (default:
    :func:`default_lambda_grid` up to the smallest penalty that zeroes
    every column) by five-fold expanding-window cross-validation on
    one-step forecasts (the folds of :func:`expanding_folds`, the tie rule
    of :func:`last_minimum`), with validation starting at
    max(N(p+1) + p + 3, T/2) and ties taking the larger penalty; a window
    too short for any fold takes the largest.  The design is built once:
    each fold trains on a row prefix of it and validates on a row slice.
    Every fold's stage and the full sample's are built together
    (:func:`_qr_stages`), and one batched secular solve gives R for every
    stage, column and penalty.  Each fold then scores the whole grid with
    one stacked residual product: Π of a penalty is the pivot-permuted
    (QR)', and its short run is C0 - C1Π' from the fold's short-run
    coefficients.  The final short run and residual covariance are the
    OLS given Π, read off the full sample's factor.  A singular window or
    fold raises :class:`NumericalError` with :func:`johansen_ml`'s
    messages.  Assumes de-meaned/de-trended input.
    """
    z = as_values(data)
    T, N = z.shape
    if N * (p + 1) >= T:
        raise DataError(
            f"QR estimator needs an OLS initializer, requiring N(p+1) < T; "
            f"got N={N}, p={p}, T={T}")
    grid = None
    if lambda_grid is not None:
        grid = np.sort(penalty_levels(list(lambda_grid), "lambda grid"))
        if grid.size == 0:
            raise ParameterError("lambda grid is empty")
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    first = max(N * (p + 1) + p + 3, T // 2)
    blocks = [] if first >= T or (grid is not None and grid.size == 1) \
        else expanding_folds(T, 5, first)
    # fold (lo, hi) trains on the design rows of z[:lo] and validates on
    # those of z[lo - p - 1:hi]
    stages = _qr_stages(np.hstack([W, y1, y0]), W.shape[1],
                        [lo - p - 1 for lo, _ in blocks] + [y0.shape[0]])
    if grid is None:
        grid = default_lambda_grid(float(np.max(
            2.0 * stages.bases.cnorm[-1] * stages.weights[-1])))
    fits = _qr_paths(stages, grid)
    losses = np.zeros(grid.size)
    for s, (lo, hi) in enumerate(blocks):
        # Π = AB' puts (QR_j)' in row piv[j]; OLS of the short run is
        # linear in the response, so Φ' = C0 - C1Π'
        pi = np.zeros_like(fits[s])
        pi[:, stages.piv[s]] = np.swapaxes(stages.Q[s] @ fits[s], 1, 2)
        c = stages.short_run[s]
        phi = c[:, :N] - c[:, N:] @ np.swapaxes(pi, 1, 2)
        rows = slice(lo - p - 1, hi - p - 1)
        err = _one_step_errors(pi, np.swapaxes(phi, 1, 2), y0[rows],
                               y1[rows], W[rows])
        losses += err.reshape(grid.size, -1).sum(axis=1)
    best = last_minimum(losses) if blocks else grid.size - 1
    return _qr_assemble(stages, p, fits[-1][best], grid[best], t_last)


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
    lam = tuple(penalty_levels(lambdas, "lambdas").ravel().tolist())
    if len(lam) != 2:
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
