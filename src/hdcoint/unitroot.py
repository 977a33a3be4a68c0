"""Augmented Dickey-Fuller and GLS-detrended unit-root statistics.

Every Dickey-Fuller regression is read off one Gram matrix per series.
:func:`_grams` writes ``M = X X'`` into one ``(B, p + 4, p + 4)`` array
in the order the regressions factor it, ``[dy_{t-1}, ..., dy_{t-p}, 1,
t, y_{t-1}, dy_t]``.  Only its last four rows are multiplied out, one
``4 x (p + 4)`` product per replication from a design buffer of
:data:`_BLOCK_BYTES` reused across the batch.  The lag rows are windows
of one difference series, each starting a period before the last, so the
row of lag ``i`` is that of lag ``i - 1`` (the response for ``i = 1``)
shifted by one column plus the products of the window's first and last
differences: ``S(i, j) = S(i-1, j-1) + d[p-i] d[p-j] - d[p-i+n]
d[p-j+n]``, one slice add per row from one outer-product array.  The
lags' sums of squares are summed again without the subtraction, so a
large difference at the end of the sample cannot cancel them away
(:func:`_grams` states the accuracy off the diagonal).  The
outer-product array is symmetric and the product rows are mirrored, so
``M`` is exactly symmetric.

A regression is the sub-Gram ``S`` of ``[other regressors, level,
response]``; with ``L`` the Cholesky factor of ``S`` and ``k``
regressors, the level has coefficient ``L[k, k-1] / L[k-1, k-1]`` and
t-statistic ``L[k, k-1] sqrt(n - k) / L[k, k]`` (:func:`_level_fit`).
Every entry point takes a series, a batch of one, or a ``(B, T)`` batch
and fits it at once; no row's bits depend on its batch.
:func:`four_stats` gives each of a sequence of batches its statistics
or the window error it raised (``errors.attempt``).  It cuts its batches
into fixed row blocks and per block factors ``M`` once, as it is, and
reads the ADF trend, ADF mean and DF-GLS mean regressions off that one
factor; the DF-GLS trend regression is ``A' M A``, where ``A``
(:func:`_gls_map`) subtracts the GLS deterministics per replication:
``b1`` from every difference and ``(b0 - b1) + b1 t`` from the level,
one period behind the trend column.  A row whose Gram is not positive
definite, and only that row, falls back to the pseudo-inverse, one
regression at a time, and a residual norm below :data:`_EXACT_FIT` of
the response norm is an exact fit, reported as zero residual variance;
so is a GLS-detrended series whose norm falls below :data:`_EXACT_FIT`
of the input's.  Regressions with deterministics shift each series to
start at zero first, which leaves the statistics unchanged.

Lag selection uses a modified AIC with a variance-rescaling step that
standardizes increments by a rolling-window volatility estimate before
the criterion is evaluated, which keeps the choice stable under
permanent volatility shifts.  It reads the regression of every candidate
lag off one Gram of the rescaled series, through :func:`_level_terms`.

References
----------
Elliott, G., Rothenberg, T. J., Stock, J. H. (1996). Efficient tests for
an autoregressive unit root. Econometrica 64, 813-836.
Ng, S., Perron, P. (2001). Lag length selection and the construction of
unit root tests with good size and power. Econometrica 69, 1519-1554.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._numeric import check_level
from .errors import (DataError, NumericalError, ParameterError, per_matrix,
                     per_window)
from .panel import DeterministicSpec, detrend, unstack

__all__ = [
    "VARIANTS",
    "CriticalValueSet",
    "adf_stat",
    "dfgls_stat",
    "select_lags",
    "default_max_lags",
    "union_stat",
    "four_stats",
    "adf_rho",
]

#: canonical ordering of the four component tests of the union statistic
VARIANTS = ("adf_mean", "adf_trend", "dfgls_mean", "dfgls_trend")

_GLS_CBAR = {DeterministicSpec.MEAN: -7.0, DeterministicSpec.TREND: -13.5}


def _as_batch(series) -> np.ndarray:
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2:
        raise ParameterError("series must be a vector or a (B, T) batch")
    return y


def _trim_leading_nan(y: np.ndarray) -> np.ndarray:
    """Drop a shared leading-NaN block; interior NaNs are a data error."""
    finite = np.isfinite(y).all(axis=0)
    if not finite.any():
        raise DataError("series has no observations")
    first = int(np.argmax(finite))
    if not finite[first:].all():
        raise DataError("series has interior missing values")
    return y[:, first:]


#: bytes of the DF design buffer of :func:`_grams`: a buffer block and the
#: differences it is copied from stay in L2 cache
_BLOCK_BYTES = 1 << 19

#: rows per block of :func:`four_stats`: fixed, so the bits do not depend
#: on the worker count, and smaller than a 999-replication batch
_ROW_BLOCK = 256

#: relative residual norm below which a DF regression is an exact fit.
#: Read off a Gram, the exact fit of a pure linear trend leaves rounding
#: noise of up to ~6e-5, which would give huge arbitrary t-statistics.
_EXACT_FIT = 1e-4


def _effective_sample(T: int, det: int, lags: int) -> int:
    """Rows of the ADF regression, checked against its regressor count."""
    if lags < 0:
        raise ParameterError("lags must be non-negative")
    n = T - lags - 1
    if n < lags + det + 3:
        raise DataError(
            f"series too short for an ADF regression with {lags} lags: "
            f"effective sample {n}, need at least {lags + det + 3}")
    return n


def _rows(det: int, lags: int, p: int) -> np.ndarray:
    """Rows of an ADF regression with ``lags`` lags in a :func:`_grams`
    matrix of ``p`` lags: lags, deterministics, level, response."""
    return np.array([*range(lags), *range(p, p + det), p + 2, p + 3])


def _grams(y: np.ndarray, lags: int) -> np.ndarray:
    """Augmented Gram matrices ``M = X X'`` of the DF design, shape (B, m, m).

    ``X`` is the series-major design whose ``m = lags + 4`` rows are
    ``[dy_{t-1}, ..., dy_{t-lags}, 1, t, y_{t-1}, dy_t]`` over the
    ``n = T - lags - 1`` usable periods, ``t`` counted from 1: the order
    in which :func:`four_stats` factors ``M``, lags first and response
    last, so no caller reorders it.  Only its last four rows are
    multiplied out: ``X[-4:] X'`` is one small product per replication,
    formed in blocks of about :data:`_BLOCK_BYTES` with one design buffer
    reused.  In the block ``S`` of lags ``0..p`` (``p = lags``, lag 0 the
    response), lag ``i`` is the window ``d[p-i : p-i+n]`` of the
    differences ``d``, one period before lag ``i - 1``, so each row
    follows from the row above it: ``S(i, j) = S(i-1, j-1) + d[p-i]
    d[p-j] - d[p-i+n] d[p-j+n]``, one slice add per row from one
    outer-product array ``E``; lag 1 follows from the response row.
    ``E`` is symmetric and the product rows are mirrored, so ``M`` is
    exactly symmetric.

    A subtracted product leaves its rounding behind, so ``S(i, i+k)`` is
    only as accurate as the largest ``sqrt(S(s, s) S(s+k, s+k))``,
    ``s <= i``, on its line up to the response row: a large difference
    at the end of the sample, which only the upper rows hold, costs the
    lower rows digits off the diagonal (at most about
    ``eps J^2 / (n sigma^2)`` relative, for differences of size ``J``
    among others of size ``sigma``).
    The diagonal is summed again without subtraction, as the squares
    over the periods every window covers (``p <= a < n``) plus those at
    the window's head and tail, so each lag's sum of squares keeps the
    rounding of a direct product.
    """
    (B, T), p = y.shape, lags
    m, n = p + 4, T - p - 1
    M = np.empty((B, m, m))
    d = np.diff(y, axis=1)
    step = max(1, _BLOCK_BYTES // (8 * m * n))
    X = np.empty((min(step, B), m, n))
    X[:, p:p + 2] = DeterministicSpec.TREND.design(n, p + 2).T
    W = sliding_window_view(d, n, axis=1)       # W[:, k] = d[k:k + n]
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        Xb = X[:hi - lo]
        Xb[:, :p] = W[lo:hi, :p][:, ::-1]
        Xb[:, p + 2] = y[lo:hi, p:T - 1]
        Xb[:, p + 3] = W[lo:hi, p]
        np.matmul(Xb[:, p:], Xb.transpose(0, 2, 1), out=M[lo:hi, p:])
    X = Xb = None                               # free the buffer first
    M[:, :p, p:] = M[:, p:, :p].transpose(0, 2, 1)
    for i in range(p, m - 1):
        M[:, i + 1:, i] = M[:, i, i + 1:]
    if p:
        head, tail = d[:, :p], d[:, n:n + p]
        E = head[:, :, None] * head[:, None, :]
        E -= tail[:, :, None] * tail[:, None, :]
        E = E[:, ::-1, ::-1]                    # E[i - 1, j - 1]: lags i, j
        np.add(M[:, -1, :p - 1], E[:, 1:, 0], out=M[:, 1:p, 0])  # lag 1
        M[:, 0, 0] = 0.0                        # summed again below
        for i in range(p):                      # row -1 is the response
            np.add(M[:, i - 1, :p - 1], E[:, i, 1:], out=M[:, i, 1:p])
        core = d[:, p:n]
        diag = np.zeros((B, p + 1))
        diag[:, 1:] = np.cumsum(head[:, ::-1] ** 2, axis=1)
        diag[:, :-1] += np.cumsum(tail ** 2, axis=1)[:, ::-1]
        diag += np.einsum("bt,bt->b", core, core)[:, None]
        lag = np.array([m - 1, *range(p)])      # lag 0, the response, first
        M[:, lag, lag] = diag
    return M


def _exact(rss: np.ndarray, denom: np.ndarray, yy: np.ndarray) -> np.ndarray:
    """Rows whose fit is exact: ``rss <= _EXACT_FIT^2 yy``, or no variance."""
    return (rss <= _EXACT_FIT ** 2 * yy) | (denom <= 0) | ~np.isfinite(denom)


def _checked(beta: np.ndarray, rss: np.ndarray, denom: np.ndarray,
             yy: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(beta, t, rss)`` of a level fit; rejects an :func:`_exact` fit."""
    if _exact(rss, denom, yy).any():
        raise NumericalError("singular ADF regression (zero residual variance)")
    return beta, beta / np.sqrt(denom), rss


def _factor_terms(L: np.ndarray, dof: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(beta, rss, denom)`` of the level from the Cholesky factor ``L`` of
    ``[regressors, level, response]``: ``beta = L[k, k-1] / L[k-1, k-1]``."""
    k = L.shape[-1] - 1
    beta = L[:, k, k - 1] / L[:, k - 1, k - 1]
    rss = L[:, k, k] ** 2
    return beta, rss, (L[:, k, k] / L[:, k - 1, k - 1]) ** 2 / dof


def _partial_fit(x: np.ndarray, r: np.ndarray, yy: np.ndarray, dof: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level fit from the level row ``x`` and response row ``r`` of a
    Cholesky factor, given in the columns of every variable the fit does
    not partial out: ``a = x'x`` is the level's residual sum of squares,
    ``beta = x'r / a`` and ``rss = r'r - beta x'r``."""
    a = np.einsum("bi,bi->b", x, x)
    xr = np.einsum("bi,bi->b", x, r)
    beta = xr / a
    rss = np.einsum("bi,bi->b", r, r) - beta * xr
    return _checked(beta, rss, rss / (a * dof), yy)


def _level_terms(S: np.ndarray, n: int) -> np.ndarray:
    """``(beta, rss, denom)`` of the level from augmented Grams, unchecked.

    ``S`` has shape ``(B, k + 1, k + 1)`` and is the Gram matrix of
    ``[other regressors, level, response]`` over ``n`` rows.  With
    ``L`` its Cholesky factor, ``L[k, k]`` is the residual norm and
    ``beta = L[k, k-1] / L[k-1, k-1]``, ``t = L[k, k-1] sqrt(n - k) / L[k, k]``.
    A row whose ``S`` is not positive definite, and only that row, falls
    back to the pseudo-inverse of its regressor block.
    """
    k = S.shape[-1] - 1
    dof = n - k
    if dof < 1:
        raise DataError("no degrees of freedom left in the ADF regression")
    L, failed = per_matrix(np.linalg.cholesky, S)
    terms = np.array(_factor_terms(L, dof))
    if failed:
        bad = list(failed)
        G = S[bad]
        Gpinv = np.linalg.pinv(G[:, :k, :k])
        coef = np.einsum("bij,bj->bi", Gpinv, G[:, :k, k])
        rss = G[:, k, k] - np.einsum("bi,bi->b", coef, G[:, :k, k])
        terms[:, bad] = coef[:, k - 1], rss, rss / dof * Gpinv[:, k - 1, k - 1]
    return terms


def _level_fit(S: np.ndarray, n: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked ``(beta, t, rss)`` of the level (:func:`_level_terms`)."""
    return _checked(*_level_terms(S, n), S[:, -1, -1])


def _adf_fit_batch(y: np.ndarray, det: int,
                   lags: int) -> Tuple[np.ndarray, np.ndarray]:
    """Level coefficient and t-statistic of the ADF regressions of a
    ``(B, T)`` batch without missing values, with ``det`` deterministics
    (0 none, 1 constant, 2 constant and trend) and ``lags`` lags."""
    n = _effective_sample(y.shape[1], det, lags)
    if det:
        y = y - y[:, :1]        # shift-invariant; keeps the Gram well scaled
    rows = _rows(det, lags, lags)
    return _level_fit(_grams(y, lags)[:, rows[:, None], rows], n)[:2]


def _adf_tstat_batch(y: np.ndarray, det: int, lags: int) -> np.ndarray:
    """t-statistic on the lagged level in ADF regressions, batched."""
    return _adf_fit_batch(y, det, lags)[1]


def _gls_coef_batch(y: np.ndarray, spec: DeterministicSpec
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Local-to-unity GLS coefficients ``(B, d)`` and deterministics ``(T, d)``."""
    if spec not in _GLS_CBAR:
        raise ParameterError("GLS detrending requires spec 'mean' or 'trend'")
    if y.shape[1] < 4:
        raise DataError("series too short for GLS detrending")
    weights, Z = _gls_weights(spec, y.shape[1])
    # yq Zq G^-1 for the quasi-differenced yq, without forming yq: one
    # product per row, so a row's bits do not depend on the rows batched
    # with it, as they can in one (B, T) product or a many-column solve
    return (y[:, None, :] @ weights)[:, 0], Z


@lru_cache(maxsize=64)
def _gls_weights(spec: DeterministicSpec, T: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``W G^-1`` (``yq Zq G^-1 = y W G^-1``) and ``Z``, shared, read-only."""
    rho = 1.0 + _GLS_CBAR[spec] / T
    Z = spec.design(T)
    Zq = np.empty_like(Z)
    Zq[0] = Z[0]
    Zq[1:] = Z[1:] - rho * Z[:-1]
    W = Zq.copy()
    W[:-1] -= rho * Zq[1:]
    # G is 1x1 and at least 1 under mean; under trend its columns
    # [1, a, ..., a] and [1, 1 + a, ...], a = 13.5/T, are independent
    weights = W @ np.linalg.inv(Zq.T @ Zq).T
    weights.flags.writeable = Z.flags.writeable = False
    return weights, Z


def _gls_detrend_batch(y: np.ndarray, spec: DeterministicSpec) -> np.ndarray:
    """Local-to-unity GLS demeaning/detrending of a batch of series."""
    beta, Z = _gls_coef_batch(y, spec)
    return y - beta @ Z.T


def _gls_map(beta: np.ndarray, lags: int) -> np.ndarray:
    """Map ``A`` with ``A' M A`` the DF-GLS Gram, per replication.

    Takes the rows ``[lags, 1, t, level, response]`` of the
    :func:`_grams` design to ``[lags, level, response]`` of the
    GLS-detrended series.  With coefficients ``(b0, b1)`` on ``(1, t)``
    each difference drops by ``b1``; the level lags the trend column by
    one period, so it drops by ``(b0 - b1) + b1 t``.
    """
    A = np.zeros((beta.shape[0], lags + 4, lags + 2))
    A[:, _rows(0, lags, lags), np.arange(lags + 2)] = 1.0
    if beta.shape[1] == 1:
        A[:, lags, lags] = -beta[:, 0]
    else:
        b0, b1 = beta[:, 0], beta[:, 1]
        A[:, lags, :] = -b1[:, None]
        A[:, lags, lags] = b1 - b0
        A[:, lags + 1, lags] = -b1
    return A


def _gls_tstat(M: np.ndarray, beta: np.ndarray, n: int) -> np.ndarray:
    """DF-GLS t-statistics from Grams ``M`` and GLS coefficients ``beta``."""
    A = _gls_map(beta, M.shape[-1] - 4)
    return _level_fit(A.transpose(0, 2, 1) @ M @ A, n)[1]


def adf_stat(series, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
             lags: int = 0) -> float:
    """ADF t-statistic with deterministics included in the regression."""
    det = DeterministicSpec.parse(spec).n_terms
    y = _trim_leading_nan(_as_batch(series))
    return float(_adf_tstat_batch(y, det, lags)[0])


def dfgls_stat(series, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
               lags: int = 0) -> float:
    """Dickey-Fuller statistic on GLS-demeaned/detrended data.

    The local-to-unity noncentrality is fixed at -7 (demeaning) and -13.5
    (detrending), the values of Elliott, Rothenberg & Stock (1996); the
    test regression contains no deterministics.
    """
    spec = DeterministicSpec.parse(spec)
    y = _trim_leading_nan(_as_batch(series))
    y = y - y[:, :1]
    yd = _gls_detrend_batch(y, spec)
    if np.linalg.norm(yd) <= _EXACT_FIT * np.linalg.norm(y):
        raise NumericalError("GLS detrending leaves only rounding noise")
    return float(_adf_tstat_batch(yd, 0, lags)[0])


def adf_rho(series, lags: int = 0) -> Union[float, np.ndarray]:
    """Largest-autoregressive-root estimate ``1 + b0`` from an ADF
    regression without deterministics (of a series detrended before), off
    its factor-ordered :func:`_grams` matrix.  A series gives a float; a
    ``(B, T)`` batch, as in :func:`four_stats`, the ``(B,)`` row results."""
    y = _trim_leading_nan(_as_batch(series))
    rho = 1.0 + _adf_fit_batch(y, 0, lags)[0]
    return float(rho[0]) if np.ndim(series) == 1 else rho


def default_max_lags(T: int) -> int:
    """Conventional cap ``floor(12 * (T / 100) ** 0.25)``."""
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))


def _variance_rescale(x: np.ndarray) -> np.ndarray:
    """Standardize each row's increments by their centered rolling standard
    deviation, edge windows shrinking, and re-accumulate.  One convolution
    per row keeps a row's bits its own."""
    d = np.diff(x, axis=1)
    kernel = np.ones(max(2, int(round(np.sqrt(x.shape[1])))))
    s2 = np.empty(d.shape)
    for i, row in enumerate(d):
        s2[i] = np.convolve(row * row, kernel, mode="same")
    sd = np.sqrt(s2 / np.convolve(np.ones(d.shape[1]), kernel, mode="same"))
    floor = 1e-8 * np.maximum(np.sqrt(np.mean(d * d, axis=1)), 1e-300)
    out = np.zeros(x.shape)
    np.cumsum(d / np.maximum(sd, floor[:, None]), axis=1, out=out[:, 1:])
    return out


def select_lags(series, max_lags: Optional[int] = None
                ) -> Union[int, np.ndarray]:
    """Rescaled modified-AIC lag choice for the ADF regressions.

    A series gives an int; a ``(B, T)`` batch, as in :func:`four_stats`,
    a ``(B,)`` array, each row's lag the one its own call gives.  Each
    series is OLS-detrended on [1, t], increments are standardized by a
    rolling-window volatility estimate (window about ``sqrt(T)``), and
    the Ng-Perron modified AIC is minimized over ``0..max_lags`` on a
    common estimation sample, ``max_lags`` (default
    :func:`default_max_lags`) lowered until :func:`four_stats` can fit
    it.  Every candidate regression (no deterministics) is a sub-Gram of
    the series' factor-ordered :func:`_grams` matrix, one
    :func:`_level_terms` call per candidate for the whole batch; exact
    fits are skipped.  Ties break toward the smaller lag.
    """
    y = _trim_leading_nan(_as_batch(series))
    T = y.shape[1]
    if max_lags is None:
        max_lags = default_max_lags(T)
    if max_lags < 0:
        raise ParameterError("max_lags must be non-negative")
    # feasibility: four_stats' trend ADF regression at the largest candidate
    while max_lags > 0 and (T - max_lags - 1) < (max_lags + 5):
        max_lags -= 1
    lags = np.zeros(len(y), dtype=int)
    if max_lags:
        x = np.array([detrend(row)[0] for row in y]).reshape(y.shape)
        d = np.diff(x, axis=1)
        live = np.any(np.abs(d) > 0, axis=1) & np.all(np.isfinite(d), axis=1)
        n = T - max_lags - 1           # common estimation sample
        M = _grams(_variance_rescale(x[live]), max_lags)
        best = np.full(len(M), np.inf)
        pick = np.zeros(len(M), dtype=int)
        for k in range(max_lags + 1):
            rows = _rows(0, k, max_lags)
            beta, rss, denom = _level_terms(M[:, rows[:, None], rows], n)
            sigma2 = rss / n
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = beta ** 2 * M[:, -2, -2] / sigma2
                maic = np.log(sigma2) + 2.0 * (tau + k) / n
            better = (maic < best - 1e-12) & ~_exact(rss, denom, M[:, -1, -1])
            best[better] = maic[better]
            pick[better] = k
        lags[live] = pick
    return int(lags[0]) if np.ndim(series) == 1 else lags


@dataclass(frozen=True)
class CriticalValueSet:
    """Level-``alpha`` critical values of the four component tests."""

    adf_mean: float
    adf_trend: float
    dfgls_mean: float
    dfgls_trend: float
    alpha: float

    def __post_init__(self):
        check_level(self.alpha)
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise NumericalError("critical values must be finite")
        if self.alpha <= 0.10 and np.any(vals >= 0.0):
            raise NumericalError(
                "left-tail critical values must be negative at "
                f"alpha={self.alpha}; got {vals.tolist()}")

    def as_array(self) -> np.ndarray:
        return np.array([self.adf_mean, self.adf_trend,
                         self.dfgls_mean, self.dfgls_trend])


def union_stat(stats, critvals: CriticalValueSet, x: float = -1.0) -> float:
    """Scale-and-minimize union of the four tests.

    Each statistic is scaled by ``x / c`` with ``c`` its critical value;
    the union statistic is the minimum of the four scaled values and the
    union test rejects when it falls below ``x``.
    """
    if x >= 0:
        raise ParameterError("scaling constant x must be negative")
    s = np.asarray(stats, dtype=float)
    if s.shape != (4,):
        raise ParameterError("expected the four component statistics")
    c = critvals.as_array()
    if np.any(c == 0.0):
        raise ParameterError("critical values must be non-zero")
    return float(np.min(x / c * s))


def four_stats(series_or_batch, lags: Union[int, Sequence[int]],
               workers: Optional[int] = 1) -> Union[np.ndarray, list]:
    """All four component statistics, batched.

    Returns shape ``(B, 4)`` with columns ordered as :data:`VARIANTS`.
    When ``lags`` is a sequence, ``series_or_batch`` is a sequence of as
    many batches, batch ``j`` fitted with ``lags[j]`` lags, and the
    result lists, in batch order, each batch's ``(B_j, 4)`` array or the
    window error (``errors.WINDOW_ERRORS``) it raised in its check or its
    fit; a single batch raises its error (``panel.unstack``).

    A batch is a series, a ``(B, T)`` array, whose shared leading-NaN
    block is dropped and whose rows are shifted to start at zero, or any
    object with a ``shape`` ``(B, T)`` whose row slices ``batch[lo:hi]``
    are finite arrays starting at zero.  ``errors.per_window`` runs one
    task of :func:`_fit_batch` per batch, which checks it and fits its
    blocks of :data:`_ROW_BLOCK` rows, each taking its own slice, on
    ``workers`` worker processes (``None``: every usable CPU) or in this
    process, the same bits and errors for any ``workers``.
    """
    stack = np.ndim(lags) != 0
    batches, lags = (series_or_batch, lags) if stack else (
        [series_or_batch], [lags])
    if len(batches) != len(lags):
        raise ParameterError("need one lag per batch")
    return unstack(per_window(_fit_batch, batches, map(int, lags),
                              workers=workers), stack)


def _fit_batch(y, lags) -> np.ndarray:
    """One batch checked for a fit with ``lags`` lags, then its
    statistics, its row blocks fitted in order."""
    if isinstance(y, np.ndarray) or not hasattr(y, "shape"):
        y = _trim_leading_nan(_as_batch(y))
        y = y - y[:, :1]
    n = _effective_sample(y.shape[1], 2, lags)
    return np.concatenate([_four_stats_block(y, lo, lags, n)
                           for lo in range(0, y.shape[0], _ROW_BLOCK)])


def _four_stats_block(batch, lo: int, lags: int, n: int) -> np.ndarray:
    """The four statistics of rows ``lo`` to ``lo + _ROW_BLOCK`` of
    ``batch``, shape ``(B, 4)``.

    One Cholesky factor ``L`` of each Gram ``M`` (:func:`_grams`), taken
    in its order ``[lags, 1, t, level, response]``, gives three of them:

    * ADF trend: the whole factor (:func:`_factor_terms`);
    * ADF mean: the trailing 4 x 4 block ``L4`` of ``L`` is the factor
      of ``[1, t, level, response]`` with the lags partialled out.  Its
      level and response rows without the constant's column condition
      on the constant alone (:func:`_partial_fit`);
    * DF-GLS mean: GLS demeaning by ``b0`` leaves the differences as
      they are and maps the level to ``level - b0``, whose row of ``L4``
      is the level row minus ``b0`` times the constant row.

    DF-GLS trend is ``A' M A`` with the per-replication :func:`_gls_map`,
    whose level column carries the one-period trend offset
    ``-(b0 - b1) - b1 t``, fitted by :func:`_level_fit`.  A replication
    whose ``M`` is not positive definite falls back to one
    :func:`_level_fit` per regression for its ADF and DF-GLS mean
    statistics, pseudo-inverse included; the other rows keep the shared
    factor.  The rows start at zero (:func:`four_stats`).  It calls no
    name the benchmark's tracer wraps, as it may run on a worker process.
    """
    y = batch[lo:lo + _ROW_BLOCK]
    gls_mean = _gls_coef_batch(y, DeterministicSpec.MEAN)[0]
    gls_trend = _gls_coef_batch(y, DeterministicSpec.TREND)[0]
    M = _grams(y, lags)
    out = np.empty((y.shape[0], 4))
    out[:, 3] = _gls_tstat(M, gls_trend, n)
    L, failed = per_matrix(np.linalg.cholesky, M)
    ok = np.ones(len(M), dtype=bool)
    if failed:
        ok[list(failed)] = False
        L = L[ok]
    yy = M[ok, -1, -1]
    L4 = L[:, lags:, lags:]
    out[ok, 0] = _partial_fit(L4[:, 2, 1:], L4[:, 3, 1:], yy,
                              n - lags - 2)[1]
    out[ok, 1] = _checked(*_factor_terms(L, n - lags - 3), yy)[1]
    level = L4[:, 2].copy()
    level[:, 0] -= gls_mean[ok, 0] * L4[:, 0, 0]
    out[ok, 2] = _partial_fit(level, L4[:, 3], yy, n - lags - 1)[1]
    if failed:
        bad = M[~ok]
        for col, det in ((0, 1), (1, 2)):
            rows = _rows(det, lags, lags)
            out[~ok, col] = _level_fit(bad[:, rows[:, None], rows], n)[1]
        out[~ok, 2] = _gls_tstat(bad, gls_mean[~ok], n)
    return out
