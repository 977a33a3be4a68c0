"""Vector error-correction estimation and forecasting.

Four estimators share one model container: reduced-rank maximum
likelihood (Johansen), rank selection by a BIC-rate information
criterion, a pivoted-QR group-lasso estimator that discovers the rank,
and an elementwise-penalized maximum likelihood estimator for a fixed
rank.  A common iterated one-step forecaster maps any fitted model to
level forecasts.

One routine factors the error-correction design [W, y1, y0] of every
fit: one QR per row prefix for a stack of windows, one QR of each
residual block, and one singular-window rule (a pivot of at most n eps
times its column's norm) with one pair of messages.  The rank criterion,
the Johansen fit and the PML estimator's Johansen start read one solve
of the reduced-rank eigenproblem, a window's full-sample factor and one
SVD; with ``r=None`` a fit takes the criterion's rank off the
eigenvalues it already has.

Every estimator, and the lag criterion, follows the stack contract of
:func:`as_stack`.  The lag criterion scores every window and candidate
from one QR; the Johansen fit solves the windows of each lag together
(one factor call, one SVD, one solve), reads their ranks in one pass
and fits the windows of each rank together (the signs, A, Π, the
short-run solve and Σ each one stacked step).  The PML estimator takes
its starts from one such solve and fit, whatever its rank argument, and
cycles the windows of each rank as one stack, each leaving it when it
converges, reaches its cycle cap or fails.  Every window comes out bit
for bit as it would alone.

The QR estimator fits a stack in one pass.  Each cross-validation
fold trains on a row prefix of a window's design and validates on a row
slice of it; the design is built once for the prefix factors and once
more for the validation pass, so none is held through the secular
solve.  The factor of a prefix gives the fold's OLS long run, short-run
coefficients and column Grams; the windows' stages are stacked: one
solve, one pivoted QR (the column order of :func:`pivot_order`,
LAPACK's ``dgeqp3`` rule on numpy, then one QR of the permuted stack),
one product, one ``eigh`` per column size, and one vectorised,
safeguarded Newton solve of the secular equations for every window,
stage, column and penalty (taken a fixed block of roots at a time, which
bounds its memory), whose group-lasso columns are solved exactly in the
range of their Gram eigenbasis.  Each fold scores its whole
penalty grid, in every window, with one stacked residual product on its
slice of the designs; a window that fails (a singular stage, a secular
equation that does not settle) fails alone, and the others come out bit
for bit as they would alone.  Every fit, Johansen or QR, reads its
short run and residual covariance given Π off its window's factor.  The
PML estimator penalizes B and the short-run block, each of which takes
one soft-threshold coordinate sweep per cycle, one numpy step per
coordinate across the stack; its precision matrix is the exact inverse
of the residual covariance.  The
module, like the whole package, needs numpy alone.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import (column_signs, expanding_folds, key_positions,
                       last_minimum, nested_residual_factors, penalty_levels,
                       pivot_order, singular_pivots, soft_threshold_sweep,
                       triangular_factors)
from .errors import (WINDOW_ERRORS, ConvergenceError, DataError,
                     NumericalError, ParameterError, attempt, per_matrix)
from .panel import DeterministicSpec, as_stack, as_values, unstack

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
    """Error-correction regression blocks of a (T, N) window, or of each
    window of a (..., T, N) stack.

    Returns (y0, y1, W, t_last): differences to explain, lagged levels
    (augmented with a restricted-trend column under the trend spec), and
    the unrestricted block of deterministics plus lagged differences.
    Response rows carry 1-based time indices p+2 .. T; t_last = T.
    """
    y0, y1, cols, T = _ec_blocks(z, p, det)
    # no constant block at all under 'none': an empty one would make W
    # C-ordered for a Fortran-ordered z, which moves the PML fit's last bits
    W = np.concatenate(cols, axis=-1) if cols else np.empty(
        y0.shape[:-1] + (0,))
    return y0, y1, W, T


def _ec_blocks(z: np.ndarray, p: int, det: DeterministicSpec
               ) -> Tuple[np.ndarray, np.ndarray, list, int]:
    """:func:`_ec_design` with W as the list of its column blocks (the
    constant, if any, then each lag's differences), so that a stack's
    design joins them with y1 and y0 in one copy."""
    T, N = z.shape[-2:]
    if p < 0:
        raise ParameterError("lag order p must be non-negative")
    n = T - p - 1
    if n < 1:
        raise DataError(f"window of {T} observations cannot support p={p}")
    dz = np.diff(z, axis=-2)
    y0 = dz[..., p:, :]
    y1 = z[..., p:-1, :]
    D = np.broadcast_to(det.design(n, p + 2), z.shape[:-2] + (n, det.n_terms))
    if det is DeterministicSpec.TREND:
        y1 = np.concatenate([y1, D[..., 1:]], axis=-1)
    cols = [D[..., :1]] if det.n_terms else []
    cols += [dz[..., p - j:-j, :] for j in range(1, p + 1)]
    return y0, y1, cols, T


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


# -- reduced-rank maximum likelihood ----------------------------------------


#: one window's triangular factor R of its n rows of [W, y1, y0], with k
#: columns in W and one eigenvalue per column of y1, its eigenproblem
#: (λ descending, β'S11β = I), log det S00 and S01, read by every rank
_Solve = namedtuple("_Solve", "R k n t_last lam vecs logdet s01")


def _singular_windows(ta: np.ndarray, lead: np.ndarray, norms: np.ndarray,
                      n) -> list:
    """For each window of a stack (the leading axis; any further leading
    axes are its stages), the :class:`NumericalError` that makes it
    singular, or None: a pivot of ``ta``, the factor of y0's residual on W,
    then of ``lead``, the factor of [W, y1], that :func:`singular_pivots`
    reads as singular against ``norms``, the column norms of R."""
    q, count = lead.shape[-1], ta.shape[0]
    residual = singular_pivots(ta, norms[..., q:], n).reshape(count, -1)
    lagged = singular_pivots(lead, norms[..., :q], n).reshape(count, -1)
    errors = [None] * count
    for w in np.flatnonzero(lagged.any(axis=1)):
        errors[w] = NumericalError(
            "lagged-level moment matrix is singular; reduce p or rank")
    for w in np.flatnonzero(residual.any(axis=1)):
        errors[w] = NumericalError(
            "residual moment matrix is singular; reduce the lag order or rank")
    return errors


def _ec_factors(z: np.ndarray, p: int, det: DeterministicSpec,
                rows: Sequence[int]) -> Tuple[np.ndarray, int, np.ndarray,
                                              np.ndarray, list]:
    """(R, k, Qa, Ta, errors) of the error-correction design [W, y1, y0]
    (k, m and N columns) of each window of the (W, T, N) stack ``z``: R
    (windows, stages, K, K), the triangular factor of each row prefix in
    ``rows`` from one QR per prefix, zero below a prefix shorter than K;
    Qa Ta, the QR of each residual block R[k:, k+m:]; and each window's
    :func:`_singular_windows` error over its prefixes, or None."""
    y0, y1, cols, _ = _ec_blocks(z, p, det)
    design = np.concatenate(cols + [y1, y0], axis=-1)
    q = design.shape[-1] - y0.shape[-1]
    k = q - y1.shape[-1]
    # freed before the QRs: with the design they would set a stack's peak
    del y0, y1, cols
    R = np.zeros((z.shape[0], len(rows)) + (design.shape[-1],) * 2)
    for s, n in enumerate(rows):
        f = triangular_factors(design[:, :n])
        R[:, s, :f.shape[1]] = f
    qa, ta = np.linalg.qr(R[..., k:, q:])
    errors = _singular_windows(ta, R[..., :q, :q], np.linalg.norm(R, axis=-2),
                               np.asarray(rows)[:, None])
    return R, k, qa, ta, errors


def _johansen_solve(z: np.ndarray, p: int, det: DeterministicSpec) -> list:
    """The reduced-rank eigenproblem of each window of the (W, T, N) stack
    ``z`` from its triangular factor: per window a :class:`_Solve`, or the
    singular-window error of :func:`_ec_factors`.

    R22 = R[k:k+m, k:k+m] and the residual block A = R[k:, k+m:] give
    S11 = R22'R22/n, S01 = A[:m]'R22/n and S00 = A'A/n, none of them
    squared out of the data.  With A = Qa Ta and Qa[:m] = U diag(σ) V',
    λ = σ² (squared canonical correlations; Björck & Golub 1973, Doornik &
    O'Brien 2002), zero-padded to m and clipped at 1 - 1e-12; the vectors
    are √n R22⁻¹U.  One factor call, one SVD and one solve serve the
    nonsingular windows of the stack, each as it would alone.
    """
    T, N = z.shape[-2:]
    n = T - p - 1
    R, k, qa, ta, errors = _ec_factors(z, p, det, [n])
    fit = np.array([e is None for e in errors], dtype=bool)
    R, qa, ta = R[fit, 0], qa[fit, 0], ta[fit, 0]
    m = R.shape[-1] - k - N
    r22 = R[:, k:k + m, k:k + m]
    u, sigma, _ = np.linalg.svd(qa[:, :m])
    lam = np.zeros(sigma.shape[:1] + (m,))
    lam[:, :N] = np.clip(sigma * sigma, 0.0, 1.0 - 1e-12)
    vecs = np.sqrt(n) * np.linalg.solve(r22, u)
    logdet = 2 * np.log(np.abs(np.diagonal(ta, axis1=-2, axis2=-1))).sum(
        axis=-1) - N * np.log(n)
    s01 = np.swapaxes(R[:, k:k + m, k + m:], -1, -2) @ r22 / n
    solves = iter([_Solve(R[i], k, n, T, lam[i], vecs[i], logdet[i], s01[i])
                   for i in range(len(R))])
    return [next(solves) if e is None else e for e in errors]


def _ic_ranks(solves: list) -> list:
    """The :func:`select_rank_ic` rank of each solve of one lag group, or
    the window's error, from one pass over the stack's eigenvalues: each
    window's Σ log(1 - λ_i) over i <= r is reduced as ``np.sum`` reduces
    it alone."""
    ranks, fit = list(solves), [i for i, s in enumerate(solves)
                                if isinstance(s, _Solve)]
    if fit:
        (N, m), n = solves[fit[0]].s01.shape, solves[fit[0]].n
        logs = np.log(1 - np.stack([solves[i].lam for i in fit]))
        crit = np.stack([n * logs[:, :r].sum(axis=-1)
                         + np.log(n) * r * (N + m - r)
                         for r in range(N + 1)], axis=-1)
        for i, r in zip(fit, np.argmin(crit, axis=-1).tolist()):
            ranks[i] = r
    return ranks


def _check_rank_range(r: Optional[int], N: int) -> None:
    """A rank argument: ``None`` or a rank in 0..N."""
    if r is not None and not 0 <= r <= N:
        raise ParameterError(f"rank must lie in 0..{N}")


def _check_rank(T: int, N: int, p: int, r: int) -> None:
    """A window of T rows long enough to fit rank ``r``."""
    if T <= N * (p + 1) + r + 2:
        raise DataError(
            f"window of {T} observations is too short for N={N}, p={p}, r={r}")


def _johansen_fit(solves: list, r: int, p: int,
                  det: DeterministicSpec) -> list:
    """Reduced-rank ML fits at rank ``r`` of solves of one lag (each a
    :class:`_Solve`) of windows long enough for ``r`` (its callers run
    :func:`_check_rank`), in one pass: per window its model, or the
    LinAlgError of its own short-run solve.

    The short run and residual covariance are the OLS given Π, read off
    the solve's factor R = [[R11, R12, R13], [0, R22, R23], [0, 0, R33]]
    of [W, y1, y0]: c = R11⁻¹(R13 - R12Π'), and the residuals' cross
    product is E'E with E = R[k:, k+m:] - R[k:, k:k+m]Π'.  The signs,
    A, Π, the solve and Σ are each one stacked step over the windows.
    """
    s0 = solves[0]
    k, n, (N, m) = s0.k, s0.n, s0.s01.shape
    R, vecs, s01, lam, logdet = (np.stack([getattr(s, f) for s in solves])
                                 for f in ("R", "vecs", "s01", "lam",
                                           "logdet"))
    V = vecs[..., :r]
    b_aug = V * column_signs(V)[:, None, :]
    a = s01 @ b_aug
    pi_t = b_aug @ np.swapaxes(a, -1, -2)
    c, failed = per_matrix(np.linalg.solve, R[:, :k, :k],
                           R[:, :k, k + m:] - R[:, :k, k:k + m] @ pi_t)
    resid = R[:, k:, k + m:] - R[:, k:, k:k + m] @ pi_t
    sigma = np.swapaxes(resid, -1, -2) @ resid / n
    loglik = -0.5 * n * (N * (1 + np.log(2 * np.pi)) + logdet
                         + np.log(1 - lam[:, :r]).sum(axis=-1))
    off = 0 if det is DeterministicSpec.NONE else 1
    trend = det is DeterministicSpec.TREND
    return [failed.get(i) or VecmModel(
        a=a[i], b=b_aug[i, :N],
        phi=tuple(c[i, off + j * N: off + (j + 1) * N].T for j in range(p)),
        mu=c[i, 0] if off else np.zeros(N), sigma=sigma[i], rank=r, p=p,
        det=det, t_last=s.t_last, estimator="johansen",
        b_trend=b_aug[i, N] if trend else None, eigenvalues=s.lam,
        loglik=loglik[i]) for i, s in enumerate(solves)]


def johansen_ml(data, r: Optional[int], p: Union[int, Sequence] = 1,
                det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                ) -> Union[VecmModel, list]:
    """Reduced-rank ML estimation of a VECM with cointegrating rank ``r``.

    ``r=None`` fits at the :func:`select_rank_ic` rank, read off the
    eigenvalues of the fit's own solve.  Deterministics: 'none' fits the
    bare system (suited to pre-detrended data), 'mean' adds an
    unrestricted intercept, 'trend' additionally restricts a linear trend
    to the error-correction term.

    ``data`` and the result follow the stack contract of
    :func:`as_stack`, and ``p`` is a lag for every window or one per
    window (as :func:`select_lag_bic` gives them for a stack; a window
    whose lag choice failed keeps that error).  The windows of one lag are
    solved together, in one call of :func:`_johansen_solve`, their ranks
    read in one pass (:func:`_ic_ranks`), and the windows of each lag and
    rank fitted together, in one call of :func:`_johansen_fit`.
    """
    det = DeterministicSpec.parse(det)
    z, stack, fits = as_stack(data)
    T, N = z.shape[1:]
    lags = [p] * len(z) if np.ndim(p) == 0 else list(p)
    if len(lags) != len(z):
        raise ParameterError(f"{len(lags)} lags for {len(z)} windows")
    _check_rank_range(r, N)
    fits = [lag if fit is None and isinstance(lag, WINDOW_ERRORS) else fit
            for fit, lag in zip(fits, lags)]
    todo = [w for w, fit in enumerate(fits) if fit is None]
    for lag, at in key_positions(int(lags[w]) for w in todo).items():
        group = [todo[i] for i in at]
        try:
            if r is not None:
                _check_rank(T, N, lag, r)
            solves = _johansen_solve(_windows(z, group), lag, det)
        except DataError as exc:
            solves = [exc] * len(group)
        ranks = _ic_ranks(solves) if r is None else [
            s if isinstance(s, WINDOW_ERRORS) else r for s in solves]
        for w, rank in zip(group, ranks):
            fits[w] = rank
        for rank, at in key_positions(ranks).items():
            if isinstance(rank, WINDOW_ERRORS):
                continue
            # an explicit r is checked before the solve, an IC rank here
            short = r is None and attempt(_check_rank, T, N, lag, rank)
            for i, fit in zip(at, [short] * len(at) if short else
                              _johansen_fit([solves[i] for i in at], rank,
                                            lag, det)):
                fits[group[i]] = fit
    return unstack(fits, stack)


def _windows(z: np.ndarray, which) -> np.ndarray:
    """The windows ``which`` (ascending) of the stack ``z``, copied only
    when they are not all of it."""
    return z if len(which) == len(z) else z[which]


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
    return unstack(_ic_ranks(_johansen_solve(as_values(data)[None], p, det)),
                   False)


def select_lag_bic(data, p_max: int = 3,
                   det: Union[str, DeterministicSpec] = DeterministicSpec.NONE
                   ) -> Union[int, list]:
    """Short-run lag order by multivariate BIC on the unrestricted system.

    Candidates share the ``p_max`` design's n rows, and their [y1, W] are
    its leading columns, so one QR scores them all
    (:func:`nested_residual_factors`).  A candidate is singular and skipped
    when a pivot of its residual factor is singular by
    :func:`singular_pivots`.  Ties go to the smaller order; 0 when every
    candidate is skipped.

    ``data`` and the result follow the stack contract of
    :func:`as_stack`; the windows are scored together by one
    :func:`nested_residual_factors` call.
    """
    det = DeterministicSpec.parse(det)
    z, stack, lags = as_stack(data)
    T, N = z.shape[1:]
    if p_max < 0:
        raise ParameterError("p_max must be non-negative")
    n = T - p_max - 1
    base = N + det.n_terms
    widths = [base + N * p for p in range(p_max + 1) if n > base + N * p + 1]
    live = np.flatnonzero([e is None for e in lags])
    choice = np.zeros(live.size, dtype=int)
    if widths and live.size:
        y0, y1, cols, _ = _ec_blocks(_windows(z, live), p_max, det)
        # the lags of the largest candidate
        cols = cols[:len(cols) + len(widths) - p_max - 1]
        design = np.concatenate([y1] + cols + [y0], axis=-1)
        norms = np.linalg.norm(y0, axis=-2)[:, None]
        del y0, y1, cols    # as in _ec_factors
        # a copy, so the whole factor is freed before the second QR
        F = nested_residual_factors(
            triangular_factors(design)[..., widths[-1]:].copy(), widths)
        piv = np.abs(np.diagonal(F, axis1=-2, axis2=-1))
        singular = singular_pivots(F, norms, n).any(axis=-1)
        with np.errstate(divide="ignore"):
            bic = 2 * np.log(piv).sum(axis=-1) - N * np.log(n) \
                + np.log(n) * N * np.array(widths) / n
        choice = np.argmin(np.where(singular, np.inf, bic), axis=-1)
    for w, lag in zip(live, choice):
        lags[w] = int(lag)
    return unstack(lags, stack)


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
    V = np.zeros(G.shape + (m,))
    V[...] = np.eye(m)
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

#: (problem, penalty) pairs solved at a time: a stacked fit has thousands,
#: and each holds a row of the secular solve and its problem's eigenvectors
_PAIR_BLOCK = 2048


def _secular_roots(d: np.ndarray, ch: np.ndarray, rows: np.ndarray,
                   kappa: np.ndarray) -> np.ndarray:
    """Roots mu > 0 of 1/||ch/(d + mu)|| = 2·mu/kappa, one per penalty in
    ``kappa``, each of the group problem of its entry of ``rows``.

    Row i of ``d`` and ``ch`` holds the positive eigenvalues and rotated
    X'y of problem i (padding has d = 1, ch = 0), with 2||ch|| > kappa.
    The left side is concave in mu (Moré and Sorensen, 1983), so Newton's
    method started right of the root decreases monotonically to it; a
    step that leaves the bracket of sign changes bisects instead.  Roots
    are solved independently; one still unsettled after
    ``_SECULAR_MAX_ITER`` steps gets NaN.
    """
    lo = np.zeros(kappa.shape)
    hi = d.max(axis=1)[rows] * kappa \
        / (2.0 * np.linalg.norm(ch, axis=1)[rows] - kappa)
    mu = hi.copy()
    todo = np.arange(mu.size)
    for _ in range(_SECULAR_MAX_ITER):
        m, k, at = mu[todo], kappa[todo], rows[todo]
        # a stacked fit has thousands of roots, so the two (roots, columns)
        # arrays are gathered here and updated in place
        shifted = d[at]
        shifted += m[:, None]
        q = ch[at]
        q /= shifted
        norm = np.sqrt(np.einsum("ij,ij->i", q, q))
        f = 1.0 / norm - 2.0 * m / k
        slope = np.einsum("ij,ij->i", q, np.divide(q, shifted, out=shifted)) \
            / norm ** 3 - 2.0 / k
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
    mu[todo] = np.nan
    return mu


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
    gives zero.  A problem whose secular equation did not converge
    (:func:`_secular_roots`) gives NaN.
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
    # a block of pairs at a time bounds the working arrays of the secular
    # solve and the gathered eigenvector copies
    mu, roots = np.zeros(kappa.shape), kappa[root]
    problems = np.nonzero(root)[0]
    for first in range(0, roots.size, _PAIR_BLOCK):
        part = slice(first, first + _PAIR_BLOCK)
        roots[part] = _secular_roots(D, CH, problems[part], roots[part])
    mu[root] = roots
    out = np.zeros((kappa.shape[1], m, P))
    pairs = np.nonzero(root | lsq)
    for first in range(0, pairs[0].size, _PAIR_BLOCK):
        j, g = (a[first:first + _PAIR_BLOCK] for a in pairs)
        out[g, :, j] = np.einsum("qik,qk->qi", V[j],
                                 CH[j] / (D[j] + mu[j, g][:, None]))
    return out


@dataclass(frozen=True)
class _QrStages:
    """The initializer stages of a stack of windows, shared by fitting and
    cross-validation, on a leading window axis and then a stage axis.

    Stage s fits the first ``rows[s]`` rows of its window's design
    [W, y1, y0] (k, N and N columns), the last stage all of them.
    ``factor`` is the triangular factor of each window's whole design
    (no stage axis); ``short_run`` = R11⁻¹[R13, R12] holds the coefficients
    of W in the regressions of [y0, y1] on it; ``Q``, ``piv`` and
    ``weights`` come from the pivoted QR of the OLS long run; ``bases``
    holds one group problem per column of its triangular factor.
    """

    rows: np.ndarray
    k: int
    factor: np.ndarray
    short_run: np.ndarray
    Q: np.ndarray
    piv: np.ndarray
    weights: np.ndarray
    bases: _Bases


def _qr_stages(z: np.ndarray, p: int, rows: Sequence[int]
               ) -> Tuple[_QrStages, list]:
    """The stages of the row prefixes ``rows`` of each window's design
    [W, y1, y0] (k, N and N columns), for the (W, T, N) stack ``z``, read
    off one triangular factor per window and prefix (:func:`_ec_factors`).

    With R = [[R11, R12, R13], [0, R22, R23], [0, 0, R33]], the OLS long
    run is Π' = R22⁻¹R23 and the short run R11⁻¹[R13, R12], from one solve
    for every stage.  Π' = QR0 with column pivoting: the order from
    :func:`pivot_order`, then Q and R0 from one QR of the permuted stack.
    Column problem j regresses column piv[j] of y0's residual on W on the
    first j + 1 columns of (y1's residual on W)·Q, so with M = R22·Q their
    Gram is M'M and their cross-products are M'R23[:, piv], from one
    product.  A window with a singular prefix gets its error and no
    stages: the stages hold the other windows, in order, and come with one
    error or None per window.
    """
    R, k, _, _, errors = _ec_factors(z, p, DeterministicSpec.NONE, rows)
    N = z.shape[-1]
    R = R[np.array([e is None for e in errors], dtype=bool)]
    # diag(R11, R22)⁻¹ [[R13, R12], [R23, 0]] = [[short run], [Π', 0]]
    lhs = np.zeros(R.shape[:2] + (k + N, k + N))
    rhs = np.zeros(R.shape[:2] + (k + N, 2 * N))
    lhs[..., :k, :k] = R[..., :k, :k]
    lhs[..., k:, k:] = R[..., k:k + N, k:k + N]
    rhs[..., :N] = R[..., :k + N, k + N:]
    rhs[..., :k, N:] = R[..., :k, k:k + N]
    coef = np.linalg.solve(lhs, rhs)
    pi_t = coef[..., k:, :N]
    piv = pivot_order(pi_t)
    Q, R0 = np.linalg.qr(np.take_along_axis(pi_t, piv[..., None, :], axis=-1))
    M = R[..., k:k + N, k:k + N] @ Q
    targets = np.take_along_axis(R[..., k:k + N, k + N:], piv[..., None, :],
                                 axis=-1)
    MtB = np.swapaxes(M, -1, -2) @ np.concatenate([M, targets], axis=-1)
    factor, short_run = R[:, -1].copy(), coef[..., :k, :].copy()
    # free the stacked factors and solves before the eigenbases are built:
    # at a stack's size they would set its peak memory
    del R, coef, lhs, rhs
    return _QrStages(np.asarray(rows), k, factor, short_run, Q, piv,
                     np.linalg.norm(R0, axis=-1),
                     _group_bases(MtB[..., :N], MtB[..., N:])), errors


def _qr_paths(stages: _QrStages, grid: np.ndarray) -> np.ndarray:
    """Fitted R matrices of every window and stage at every penalty of the
    window's row of ``grid``, (windows, stages, penalties, N, N), from one
    :func:`_group_lasso` solve.

    Column j of R has support on rows 0..j and its own response series;
    zero weights encode an infinite penalty.
    """
    (count, S, N), G = stages.weights.shape, grid.shape[-1]
    lam = grid[:, None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(lam > 0, lam / stages.weights[..., None], 0.0)
    out = _group_lasso(stages.bases, kappa.reshape(count * S * N, G))
    return out.reshape(G, N, count, S, N).transpose(2, 3, 0, 1, 4)


def _qr_assemble(stages: _QrStages, w: int, p: int, R: np.ndarray,
                 lam: float, t_last: int) -> VecmModel:
    """(A, B) = (unit pivot columns, QR) over the nonzero columns of a
    fitted R of window ``w``'s last stage, its full sample; the short run
    is the OLS given Π and Σ the covariance of its residuals, both read
    off the stage's factor."""
    Q, piv, F, k = stages.Q[w, -1], stages.piv[w, -1], stages.factor[w], \
        stages.k
    N = Q.shape[0]
    nonzero = np.flatnonzero(np.any(R != 0.0, axis=0))
    a = np.zeros((N, nonzero.size))
    a[piv[nonzero], np.arange(nonzero.size)] = 1.0
    b = Q @ R[:, nonzero]
    pi_t = b @ a.T
    c = stages.short_run[w, -1, :, :N] - stages.short_run[w, -1, :, N:] @ pi_t
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


def default_lambda_grid(scale) -> np.ndarray:
    """Ten geometric points from scale·10^-3 up to scale, or ten zeros for
    a scale <= 0; an array of scales gives one such row per scale."""
    scale = np.asarray(scale, dtype=float)
    positive = scale > 0
    top = np.where(positive, scale, 1.0)
    grid = np.geomspace(top * 10.0 ** -3, top, 10, axis=-1)
    return np.where(positive[..., None], grid, 0.0)


def qr_vecm(data, p: int = 1, lambda_grid: Optional[Sequence[float]] = None
            ) -> Union[VecmModel, list]:
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
    too short for any fold takes the largest.  Each fold trains on a row
    prefix of the window's design and validates on a row slice of it.
    Every fold's stage and the full sample's are built together
    (:func:`_qr_stages`), and one batched secular solve gives R for every
    stage, column and penalty.  Each fold then scores the whole grid with
    one stacked residual product: Π of a penalty is the pivot-permuted
    (QR)', and its short run is C0 - C1Π' from the fold's short-run
    coefficients.  The final short run and residual covariance are the
    OLS given Π, read off the full sample's factor.  A singular window or
    fold raises :class:`NumericalError` with :func:`johansen_ml`'s
    messages.  Assumes de-meaned/de-trended input.

    ``data`` and the result follow the stack contract of
    :func:`as_stack` (a window fails alone on a singular stage or a
    secular equation that did not converge; p, the grid and T too short
    for N are errors of the arguments).  A stack is fitted in one pass:
    one QR per fold prefix, one column order, one eigenbasis per column
    size and one secular solve for all of them, and the grids and each
    fold's losses vectorised over windows.
    """
    z, stack, fits = as_stack(data)
    T, N = z.shape[1:]
    if N * (p + 1) >= T:
        raise DataError(
            f"QR estimator needs an OLS initializer, requiring N(p+1) < T; "
            f"got N={N}, p={p}, T={T}")
    grid = None
    if lambda_grid is not None:
        grid = np.sort(penalty_levels(list(lambda_grid), "lambda grid"))
        if grid.size == 0:
            raise ParameterError("lambda grid is empty")
    return unstack(_qr_fits(z, p, grid, fits), stack)


def _qr_fits(z: np.ndarray, p: int, grid: Optional[np.ndarray],
             fits: list) -> list:
    """:func:`qr_vecm` of each window of the (W, T, N) stack ``z`` whose
    entry of ``fits`` is None, written there: its model, or the error it
    raised."""
    T, N = z.shape[1:]
    live = np.array([fit is None for fit in fits], dtype=bool)
    if not live.any():
        return fits
    first = max(N * (p + 1) + p + 3, T // 2)
    blocks = [] if first >= T or (grid is not None and grid.size == 1) \
        else expanding_folds(T, first)
    # fold (lo, hi) trains on the design rows of z[:lo] and validates on
    # those of z[lo - p - 1:hi]
    stages, errors = _qr_stages(z[live], p, [lo - p - 1 for lo, _ in blocks]
                                + [T - p - 1])
    windows = np.flatnonzero(live)
    for w, error in zip(windows, errors):
        fits[w] = error
    windows = windows[np.array([e is None for e in errors], dtype=bool)]
    if grid is None:
        grid = default_lambda_grid(np.max(
            2.0 * stages.bases.cnorm[:, -1] * stages.weights[:, -1], axis=-1))
    grid = np.broadcast_to(grid, (windows.size, grid.shape[-1]))
    paths = _qr_paths(stages, grid)
    losses = _cv_losses(z[windows], p, stages, paths, blocks)
    for i, w in enumerate(windows):
        if not np.isfinite(paths[i]).all():
            fits[w] = ConvergenceError(
                "group-lasso secular equation did not converge")
            continue
        best = last_minimum(losses[i]) if blocks else grid.shape[-1] - 1
        fits[w] = _qr_assemble(stages, i, p, paths[i, -1, best],
                               grid[i, best], T)
    return fits


def _cv_losses(z: np.ndarray, p: int, stages: _QrStages, paths: np.ndarray,
               blocks: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Pooled squared one-step errors (windows, penalties) of the fitted
    windows ``z``: fold s scores its stage's fits ``paths[:, s]`` at every
    penalty on its validation rows, one stacked residual product per
    fold."""
    y0, y1, W, _ = _ec_design(z, p, DeterministicSpec.NONE)
    N = z.shape[-1]
    losses = np.zeros(paths.shape[:1] + paths.shape[2:3])
    for s, (lo, hi) in enumerate(blocks):
        # Π = AB' puts (QR_j)' in row piv[j]; OLS of the short run is
        # linear in the response, so Φ' = C0 - C1Π'
        pi = np.zeros_like(paths[:, s])
        np.put_along_axis(pi, stages.piv[:, s, None, :, None], np.swapaxes(
            stages.Q[:, s, None] @ paths[:, s], -1, -2), axis=2)
        c = stages.short_run[:, s, None]
        phi = c[..., :N] - c[..., N:] @ np.swapaxes(pi, -1, -2)
        rows = slice(lo - p - 1, hi - p - 1)
        err = _one_step_errors(pi, np.swapaxes(phi, -1, -2),
                               y0[:, None, rows], y1[:, None, rows],
                               W[:, None, rows])
        losses += err.reshape(losses.shape + ((hi - lo) * N,)).sum(axis=-1)
    return losses


# -- penalized maximum likelihood ---------------------------------------------


def _pml_objective(E: np.ndarray, omega: np.ndarray, B: np.ndarray,
                   phi_mat: np.ndarray, lam: Tuple[float, float], n: int):
    """tr(SΩ) - log det Ω + λ_B|B|₁ + λ_Φ|Φ|₁ with S = EE'/n, or inf
    where det Ω <= 0, of one window or of each window of a stack."""
    axes = (-2, -1)
    S = E @ np.swapaxes(E, -1, -2) / n
    sign, logdet = np.linalg.slogdet(omega)
    value = (np.sum(S * omega, axis=axes) - logdet
             + lam[0] * np.sum(np.abs(B), axis=axes)
             + lam[1] * np.sum(np.abs(phi_mat), axis=axes))
    return np.where(sign <= 0, np.inf, value)[()]


def _pml_init(z: np.ndarray, r: int, p: int, solves):
    """Starts (A, B, Φ, Ω) at rank ``r`` of the windows of the (G, T, N)
    stack ``z``, from each window's Johansen ``solves`` entry (its
    :class:`_Solve` or its error): the Johansen fit, one
    :func:`_johansen_fit` pass for the stack, where the solve and the fit
    succeed, a ridge start otherwise.  Per window its start, or the
    LinAlgError of its fit."""
    N = z.shape[-1]
    # a window too short for rank r starts from the ridge fit
    at = [] if attempt(_check_rank, z.shape[1], N, p, r) else [
        i for i, s in enumerate(solves) if isinstance(s, _Solve)]
    fits = dict(zip(at, _johansen_fit([solves[i] for i in at], r, p,
                                      DeterministicSpec.NONE) if at else []))
    starts = {i: fit for i, fit in fits.items()
              if isinstance(fit, np.linalg.LinAlgError)}
    good = [i for i, fit in fits.items() if isinstance(fit, VecmModel)]
    if good:
        sigma = np.stack([fits[i].sigma for i in good])
        omega, failed = per_matrix(np.linalg.inv, sigma + (
            1e-8 * np.trace(sigma, axis1=-2, axis2=-1) / N)[:, None, None]
            * np.eye(N))
        for j, (i, om) in enumerate(zip(good, omega)):
            m = fits[i]
            starts[i] = failed.get(j) or (m.a, m.b, np.hstack(m.phi) if p
                                          else np.empty((N, 0)), om)
    return [starts[i] if i in starts else attempt(_ridge_start, z[i], r, p)
            for i in range(len(z))]


def _ridge_start(z: np.ndarray, r: int, p: int) -> tuple:
    """(A, B, Φ, Ω) of one window from the rank-``r`` SVD of a ridge
    estimate of Π."""
    N = z.shape[1]
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
             max_cycles: int = 200) -> Union[VecmModel, list]:
    """Penalized Gaussian likelihood VECM at a fixed cointegrating rank.

    The start is the Johansen fit of the window's one solve, at the
    :func:`select_rank_ic` rank read off its eigenvalues for ``r=None``;
    an explicit rank falls back to a ridge start when that solve or fit
    fails.
    ``lambdas`` holds the L1 penalties (λ_B, λ_Φ) on the cointegrating
    vectors and the short-run block; the precision matrix is unpenalized.
    Cycles exact or descent-guaranteed block updates: least squares for
    A (the precision weighting cancels), one soft-threshold coordinate
    sweep each for B and the short-run block (gradients kept by rank-one
    updates from Z1Z1' and DX DX', the residual rebuilt once per block),
    and the exact inverse of the residual covariance for the precision
    matrix; a window whose residual covariance has a 1-norm condition
    number of 1e12 or more fails with NumericalError.  The objective
    must be non-increasing across cycles; an increase signals a
    subproblem fault and raises ConvergenceError.
    The fit has converged once a cycle changes the objective by less than
    1e-7 of its size (at least 1).
    ``info["converged"]`` is False when ``max_cycles`` ran out first, as
    it often does with B penalized: A grows while B shrinks along a scale
    ridge of the objective.

    ``data`` and the result follow the stack contract of
    :func:`as_stack`.  The windows' Johansen solves are made in one call,
    for every rank argument, and their ranks read in one pass; the
    windows of each rank take their starts from one :func:`_johansen_fit`
    pass and cycle as one stack (:func:`_pml_fit`), whether a window
    starts from its Johansen fit or from the ridge fit.
    """
    z, stack, fits = as_stack(data)
    T, N = z.shape[1:]
    _check_rank_range(r, N)
    if T < N + p + 2:
        raise DataError(f"window of {T} observations is too short for N={N}, p={p}")
    lam = tuple(penalty_levels(lambdas, "lambdas").ravel().tolist())
    if len(lam) != 2:
        raise ParameterError("lambdas must be two non-negative numbers")
    todo = [w for w, fit in enumerate(fits) if fit is None]
    solves = _johansen_solve(_windows(z, todo), p, DeterministicSpec.NONE) \
        if todo else []
    ranks = _ic_ranks(solves) if r is None else [r] * len(todo)
    for w, rank in zip(todo, ranks):
        fits[w] = rank
    for rank, at in key_positions(ranks).items():
        if isinstance(rank, WINDOW_ERRORS):
            continue
        windows = [todo[i] for i in at]
        starts = _pml_init(z[windows], rank, p, [solves[i] for i in at])
        for w, start in zip(windows, starts):
            fits[w] = start
        pos = [i for i, s in enumerate(starts)
               if not isinstance(s, WINDOW_ERRORS)]
        if pos:
            group = [windows[i] for i in pos]
            for w, fit in zip(group, _pml_fit(z[group], rank, p, lam,
                                              max_cycles,
                                              [starts[i] for i in pos])):
                fits[w] = fit
    return unstack(fits, stack)


def _pml_fit(z: np.ndarray, r: int, p: int, lam: Tuple[float, float],
             max_cycles: int, starts: list) -> list:
    """:func:`pml_vecm` of the windows of the (G, T, N) stack ``z`` at
    rank ``r`` from their ``starts`` (A, B, Φ, Ω): per window its model,
    or its error.

    Each block step runs once for the windows still cycling, with a mask
    per window for the A-block and Ω acceptance tests; a window leaves the
    stack when it converges, reaches ``max_cycles`` or fails (a failed
    A-block solve, a singular residual covariance, an objective that
    rises), and comes out bit for bit as it would alone.
    """
    T_ = partial(np.swapaxes, axis1=-1, axis2=-2)
    N = z.shape[-1]
    y0, y1, W, t_last = _ec_design(z, p, DeterministicSpec.NONE)
    n = y0.shape[-2]
    Yd, Z1, DX = T_(y0), T_(y1), T_(W)
    # C-ordered whatever the starts' layouts, which np.stack would keep
    a, b, phi_mat, omega = (np.array(x) for x in zip(*starts))
    E = Yd - a @ (T_(b) @ Z1) - (phi_mat @ DX if p else 0.0)
    obj = _pml_objective(E, omega, b, phi_mat, lam, n)
    path = np.empty((len(z), max(max_cycles, 0) + 1))
    path[:, 0] = obj
    live = dict(Yd=Yd, Z1=Z1, DX=DX, zz=Z1 @ T_(Z1), xx=DX @ T_(DX), a=a,
                b=b, phi_mat=phi_mat, omega=omega, E=E, obj=obj, path=path,
                ids=np.arange(len(z)))
    fits = [None] * len(z)

    def leave(gone: np.ndarray, errors: dict, converged: np.ndarray,
              cycles: int) -> None:
        for i, e in errors.items():
            fits[live["ids"][i]] = e
        fitted = gone.copy()
        fitted[list(errors)] = False
        at = np.flatnonzero(fitted)
        if at.size:
            v = {k: x[at] for k, x in live.items()}
            sigma, failed = per_matrix(np.linalg.inv, v["omega"])
            loglik = -0.5 * n * (N * np.log(2 * np.pi) + _pml_objective(
                v["E"], v["omega"], np.zeros_like(v["b"]),
                np.zeros_like(v["phi_mat"]), (0.0, 0.0), n))
            for j, i in enumerate(at):
                hist = v["path"][j, :cycles + 1].tolist()
                fits[v["ids"][j]] = failed.get(j) or VecmModel(
                    a=v["a"][j], b=v["b"][j],
                    phi=tuple(v["phi_mat"][j][:, k * N:(k + 1) * N]
                              for k in range(p)),
                    mu=np.zeros(N), sigma=sigma[j], rank=r, p=p,
                    det=DeterministicSpec.NONE, t_last=t_last,
                    estimator="pml", loglik=loglik[j],
                    info={"lambdas": list(lam), "objective": hist[-1],
                          "cycles": cycles, "converged": bool(converged[i]),
                          "objective_path": hist})
        for k in live:
            live[k] = live[k][~gone]

    cycle = 0
    while live["ids"].size:
        count = live["ids"].size
        if cycle >= max_cycles:
            leave(np.ones(count, dtype=bool), {},
                  np.zeros(count, dtype=bool), cycle)
            break
        cycle += 1
        Yd, Z1, DX, zz, xx, a, b, phi_mat, omega, E, obj = (
            live[k] for k in ("Yd", "Z1", "DX", "zz", "xx", "a", "b",
                              "phi_mat", "omega", "E", "obj"))
        errors = {}
        if r:
            # A block: exact least squares, precision weighting cancels
            M = T_(b) @ Z1
            D = Yd - (phi_mat @ DX if p else 0.0)
            g = M @ T_(M)
            cond, errors = per_matrix(np.linalg.cond, g)
            well = cond < 1e12
            a_new = np.empty(a.shape)
            if well.any():
                sol, failed = per_matrix(np.linalg.solve, g[well],
                                         (M @ T_(D))[well])
                a_new[well] = T_(sol)
                _first_errors(errors, np.flatnonzero(well), failed)
            if not well.all():
                pinv, failed = per_matrix(np.linalg.pinv, M[~well])
                a_new[~well] = D[~well] @ pinv
                _first_errors(errors, np.flatnonzero(~well), failed)
            take = (_pml_objective(D - a_new @ M, omega, b, phi_mat, lam, n)
                    <= obj + 1e-12)[:, None, None]
            E = np.where(take, E + (a - a_new) @ M, E)
            a = np.where(take, a_new, a)
            # B block: b'[j, i] has curvature (A'ΩA)_jj (Z1Z1')_ii
            oa = omega @ a
            b_new = T_(soft_threshold_sweep(T_(b), T_(oa) @ E @ T_(Z1),
                                            T_(oa) @ a, zz,
                                            n * lam[0] / 2.0))
            E = E - a @ T_(b_new - b) @ Z1
            b = b_new
        if p:
            # short-run block: Φ[i, k] has curvature Ω_ii (DX DX')_kk
            phi_new = soft_threshold_sweep(phi_mat, omega @ E @ T_(DX),
                                           omega, xx, n * lam[1] / 2.0)
            E = E - (phi_new - phi_mat) @ DX
            phi_mat = phi_new
        S = E @ T_(E) / n
        omega_new, _ = per_matrix(np.linalg.inv, S)
        # the A step's threshold, 1e12, on the 1-norm condition number
        # (the A step's is the 2-norm one), from the inverse already made;
        # NaN fails
        one = partial(np.linalg.norm, ord=1, axis=(-2, -1))
        for i in np.flatnonzero(~(one(S) * one(omega_new) < 1e12)).tolist():
            errors.setdefault(
                i, NumericalError("residual covariance is singular"))
        with np.errstate(invalid="ignore"):     # a singular window's NaN
            new_obj = _pml_objective(E, omega_new, b, phi_mat, lam, n)
        better = new_obj <= obj + 1e-10
        omega = np.where(better[:, None, None], omega_new, omega)
        if not better.all():
            new_obj = np.where(better, new_obj, _pml_objective(
                E, omega, b, phi_mat, lam, n))
        last = live["path"][:, cycle - 1]
        for i in np.flatnonzero(new_obj > last + 1e-10).tolist():
            errors.setdefault(i, ConvergenceError(
                f"objective increased from {last[i]:.12g} to "
                f"{new_obj[i]:.12g}; subproblem fault"))
        live["path"][:, cycle] = new_obj
        size = np.abs(last)
        converged = np.abs(last - new_obj) < 1e-7 * np.where(size > 1.0,
                                                               size, 1.0)
        live.update(a=a, b=b, phi_mat=phi_mat, omega=omega, E=E)
        gone = converged.copy()
        gone[list(errors)] = True
        if gone.any():
            leave(gone, errors, converged, cycle)
    return fits


def _first_errors(errors: dict, at, new: dict) -> None:
    """Give the window at position ``at[j]`` the error ``new[j]`` unless it
    already has one."""
    for j, e in new.items():
        errors.setdefault(int(at[j]), e)
