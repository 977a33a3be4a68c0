"""Augmented Dickey-Fuller and GLS-detrended unit-root statistics.

Every Dickey-Fuller regression is read off one Gram matrix per series.
:func:`_grams` builds the series-major design ``X`` with rows ``[1, t,
y_{t-1}, dy_{t-1}, ..., dy_{t-p}, dy_t]`` in blocks of about
:data:`_BLOCK_BYTES` (1 MiB, so a block and its Gram stay in L2 cache)
and writes each block's ``M = X X'`` into one ``(B, p + 4, p + 4)``
array.  A regression is the sub-Gram ``S`` of ``[other regressors,
level, response]``; with ``L`` the Cholesky factor of ``S`` and ``k``
regressors, the level has coefficient ``L[k, k-1] / L[k-1, k-1]`` and
t-statistic ``L[k, k-1] sqrt(n - k) / L[k, k]`` (:func:`_level_fit`).
Every caller fits its whole batch at once; :func:`four_stats` does so
in fixed row blocks, on worker threads when given a pool, and per block
factors ``M`` once with the lags first and reads the ADF trend, ADF mean
and DF-GLS mean regressions off that one factor; the DF-GLS trend
regression is ``A' M A``, where ``A`` (:func:`_gls_map`) subtracts the
GLS deterministics per replication: ``b1`` from every difference and
``(b0 - b1) + b1 t`` from the level, which sits one period behind the
trend column.  A Gram that is not positive definite falls back to the
pseudo-inverse, one regression at a time, and a residual norm below
:data:`_EXACT_FIT` of the response norm is an exact fit, reported as
zero residual variance; so is a GLS-detrended series whose norm falls
below :data:`_EXACT_FIT` of the input's.  Regressions with
deterministics shift each series to start at zero first, which leaves
the statistics unchanged.  The scalar entry points are thin wrappers
over batches of size one.

Lag selection uses a modified AIC with a variance-rescaling step that
standardizes increments by a rolling-window volatility estimate before
the criterion is evaluated, which keeps the choice stable under
permanent volatility shifts.  It reads the regression of every candidate
lag off one Gram of the rescaled series, through :func:`_level_fit`.

References
----------
Elliott, G., Rothenberg, T. J., Stock, J. H. (1996). Efficient tests for
an autoregressive unit root. Econometrica 64, 813-836.
Ng, S., Perron, P. (2001). Lag length selection and the construction of
unit root tests with good size and power. Econometrica 69, 1519-1554.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError, ParameterError
from .panel import DeterministicSpec, detrend

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


#: bytes of DF design per block: a block and its Gram stay in L2 cache
_BLOCK_BYTES = 1 << 20

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


def _rows(det: int, lags: int) -> np.ndarray:
    """Gram rows of an ADF regression: deterministics, lags, level, response."""
    return np.array([0, 1][:det] + list(range(3, 3 + lags)) + [2, 3 + lags])


def _grams(y: np.ndarray, lags: int) -> np.ndarray:
    """Augmented Gram matrices ``M = X X'`` of the DF design, shape (B, m, m).

    ``X`` is the series-major design whose ``m = lags + 4`` rows are
    ``[1, t, y_{t-1}, dy_{t-1}, ..., dy_{t-lags}, dy_t]`` over the
    ``n = T - lags - 1`` usable periods, ``t`` counted from 1.  It is
    built in blocks of about :data:`_BLOCK_BYTES`, one buffer reused, and
    each block's Gram is written straight into ``M``.
    """
    B, T = y.shape
    m, n = lags + 4, T - lags - 1
    M = np.empty((B, m, m))
    step = max(1, _BLOCK_BYTES // (8 * m * n))
    X = np.empty((min(step, B), m, n))
    X[:, :2] = DeterministicSpec.TREND.design(n, lags + 2).T
    W = sliding_window_view(np.diff(y, axis=1), n, axis=1)  # dy from j
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        Xb = X[:hi - lo]
        Xb[:, 2] = y[lo:hi, lags:T - 1]
        Xb[:, 3:3 + lags] = W[lo:hi, :lags][:, ::-1]
        Xb[:, 3 + lags] = W[lo:hi, lags]
        np.matmul(Xb, Xb.transpose(0, 2, 1), out=M[lo:hi])
    return M


def _checked(beta: np.ndarray, rss: np.ndarray, denom: np.ndarray,
             yy: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(beta, t, rss)`` of a level fit whose squared standard error is
    ``denom``; rejects exact fits of a response whose sum of squares is
    ``yy``."""
    if (np.any(rss <= _EXACT_FIT ** 2 * yy) or np.any(denom <= 0)
            or not np.all(np.isfinite(denom))):
        raise NumericalError("singular ADF regression (zero residual variance)")
    return beta, beta / np.sqrt(denom), rss


def _factor_fit(L: np.ndarray, yy: np.ndarray, dof: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level fit from the Cholesky factor ``L`` of ``[regressors, level,
    response]``: ``beta = L[k, k-1] / L[k-1, k-1]``, ``rss = L[k, k]^2``."""
    k = L.shape[-1] - 1
    beta = L[:, k, k - 1] / L[:, k - 1, k - 1]
    rss = L[:, k, k] ** 2
    denom = (L[:, k, k] / L[:, k - 1, k - 1]) ** 2 / dof
    return _checked(beta, rss, denom, yy)


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


def _level_fit(S: np.ndarray, n: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient, t-statistic and residual sum of squares of the level
    from an augmented Gram.

    ``S`` has shape ``(B, k + 1, k + 1)`` and is the Gram matrix of
    ``[other regressors, level, response]`` over ``n`` rows.  With
    ``L`` its Cholesky factor, ``L[k, k]`` is the residual norm and
    ``beta = L[k, k-1] / L[k-1, k-1]``, ``t = L[k, k-1] sqrt(n - k) / L[k, k]``.
    A singular ``S`` falls back to the pseudo-inverse of the regressor block.
    A residual norm below :data:`_EXACT_FIT` times the response norm
    ``sqrt(S[k, k])`` counts as zero residual variance.
    """
    k = S.shape[-1] - 1
    dof = n - k
    if dof < 1:
        raise DataError("no degrees of freedom left in the ADF regression")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        Gpinv = np.linalg.pinv(S[:, :k, :k])
        coef = np.einsum("bij,bj->bi", Gpinv, S[:, :k, k])
        rss = S[:, k, k] - np.einsum("bi,bi->b", coef, S[:, :k, k])
        return _checked(coef[:, k - 1], rss,
                        rss / dof * Gpinv[:, k - 1, k - 1], S[:, k, k])
    return _factor_fit(L, S[:, k, k], dof)


def _adf_fit_batch(y: np.ndarray, det: int,
                   lags: int) -> Tuple[np.ndarray, np.ndarray]:
    """Level coefficient and t-statistic of ADF regressions, batched.

    Parameters
    ----------
    y : ndarray, shape (B, T)
        Batch of series without missing values.
    det : int
        Number of deterministic regressors: 0 none, 1 constant,
        2 constant and trend.
    lags : int
        Number of lagged differences augmenting the regression.
    """
    n = _effective_sample(y.shape[1], det, lags)
    if det:
        y = y - y[:, :1]        # shift-invariant; keeps the Gram well scaled
    rows = _rows(det, lags)
    return _level_fit(_grams(y, lags)[:, rows[:, None], rows], n)[:2]


def _adf_tstat_batch(y: np.ndarray, det: int, lags: int) -> np.ndarray:
    """t-statistic on the lagged level in ADF regressions, batched."""
    return _adf_fit_batch(y, det, lags)[1]


def _gls_coef_batch(y: np.ndarray, spec: DeterministicSpec
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Local-to-unity GLS coefficients ``(B, d)`` and deterministics ``(T, d)``."""
    if spec not in _GLS_CBAR:
        raise ParameterError("GLS detrending requires spec 'mean' or 'trend'")
    B, T = y.shape
    if T < 4:
        raise DataError("series too short for GLS detrending")
    rho = 1.0 + _GLS_CBAR[spec] / T
    Z = spec.design(T)
    Zq = np.empty_like(Z)
    Zq[0] = Z[0]
    Zq[1:] = Z[1:] - rho * Z[:-1]
    # yq @ Zq for the quasi-differenced yq, without forming yq
    W = Zq.copy()
    W[:-1] -= rho * Zq[1:]
    G = Zq.T @ Zq
    try:
        beta = np.linalg.solve(G, (y @ W).T).T
    except np.linalg.LinAlgError:
        beta = (np.linalg.pinv(G) @ (y @ W).T).T
    return beta, Z


def _gls_detrend_batch(y: np.ndarray, spec: DeterministicSpec) -> np.ndarray:
    """Local-to-unity GLS demeaning/detrending of a batch of series."""
    beta, Z = _gls_coef_batch(y, spec)
    return y - beta @ Z.T


def _gls_map(beta: np.ndarray, lags: int) -> np.ndarray:
    """Map ``A`` with ``A' M A`` the DF-GLS Gram, per replication.

    Takes the rows ``[1, t, level, lags, response]`` of the
    :func:`_grams` design to ``[lags, level, response]`` of the
    GLS-detrended series.  With coefficients ``(b0, b1)`` on ``(1, t)``
    each difference drops by ``b1``; the level lags the trend column by
    one period, so it drops by ``(b0 - b1) + b1 t``.
    """
    A = np.zeros((beta.shape[0], lags + 4, lags + 2))
    A[:, _rows(0, lags), np.arange(lags + 2)] = 1.0
    if beta.shape[1] == 1:
        A[:, 0, lags] = -beta[:, 0]
    else:
        b0, b1 = beta[:, 0], beta[:, 1]
        A[:, 0, :] = -b1[:, None]
        A[:, 0, lags] = b1 - b0
        A[:, 1, lags] = -b1
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


def adf_rho(series, lags: int = 0,
            spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND) -> float:
    """Largest-autoregressive-root estimate ``1 + b0`` from an ADF regression."""
    det = DeterministicSpec.parse(spec).n_terms
    y = _trim_leading_nan(_as_batch(series))
    return float(1.0 + _adf_fit_batch(y, det, lags)[0][0])


def default_max_lags(T: int) -> int:
    """Conventional cap ``floor(12 * (T / 100) ** 0.25)``."""
    return int(np.floor(12.0 * (T / 100.0) ** 0.25))


def _rolling_std(d: np.ndarray, window: int) -> np.ndarray:
    """Centered rolling standard deviation with shrinking edge windows."""
    m = d.shape[0]
    kernel = np.ones(window)
    counts = np.convolve(np.ones(m), kernel, mode="same")
    s2 = np.convolve(d * d, kernel, mode="same") / counts
    return np.sqrt(s2)


def _variance_rescale(x: np.ndarray) -> np.ndarray:
    """Standardize increments by local volatility and re-accumulate."""
    T = x.shape[0]
    d = np.diff(x)
    window = max(2, int(round(np.sqrt(T))))
    sd = _rolling_std(d, window)
    floor = 1e-8 * max(float(np.sqrt(np.mean(d * d))), 1e-300)
    sd = np.maximum(sd, floor)
    out = np.empty(T)
    out[0] = 0.0
    out[1:] = np.cumsum(d / sd)
    return out


def select_lags(series, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
                max_lags: Optional[int] = None) -> int:
    """Rescaled modified-AIC lag choice for the ADF regressions.

    The series is OLS-detrended per ``spec``, increments are standardized
    by a rolling-window volatility estimate (window about ``sqrt(T)``),
    and the Ng-Perron modified AIC is minimized over ``0..max_lags`` on a
    common estimation sample.  Every candidate regression (no
    deterministics) is a sub-Gram of one :func:`_grams` matrix, solved by
    :func:`_level_fit`, which also rejects the exact fits skipped here.
    Ties break toward the smaller lag.
    """
    spec = DeterministicSpec.parse(spec)
    y = _trim_leading_nan(_as_batch(series))[0]
    T = y.shape[0]
    if max_lags is None:
        max_lags = default_max_lags(T)
    if max_lags < 0:
        raise ParameterError("max_lags must be non-negative")
    # feasibility: the largest candidate still needs its regression sample
    while max_lags > 0 and (T - max_lags - 1) < (max_lags + 3):
        max_lags -= 1
    if max_lags == 0:
        return 0
    y = detrend(y, spec)[0]
    d = np.diff(y)
    if not np.any(np.abs(d) > 0) or not np.all(np.isfinite(d)):
        return 0
    z = _variance_rescale(y)
    n = T - max_lags - 1               # common estimation sample
    M = _grams(z[None], max_lags)
    best = (np.inf, 0)
    for k in range(max_lags + 1):
        rows = _rows(0, k)
        rows[-1] = 3 + max_lags        # the response row of the larger Gram
        try:
            beta, _, rss = _level_fit(M[:, rows[:, None], rows], n)
        except NumericalError:
            continue                   # zero residual variance
        sigma2 = rss[0] / n
        tau = beta[0] ** 2 * M[0, 2, 2] / sigma2
        maic = np.log(sigma2) + 2.0 * (tau + k) / n
        if maic < best[0] - 1e-12:
            best = (maic, k)
    return best[1]


@dataclass(frozen=True)
class CriticalValueSet:
    """Level-``alpha`` critical values of the four component tests."""

    adf_mean: float
    adf_trend: float
    dfgls_mean: float
    dfgls_trend: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
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


def four_stats(series_or_batch, lags: int,
               pool: Optional[Executor] = None) -> np.ndarray:
    """All four component statistics, batched.

    Returns shape ``(B, 4)`` with columns ordered as :data:`VARIANTS`.
    Blocks of :data:`_ROW_BLOCK` rows (:func:`_four_stats_block`) run on
    ``pool``'s threads, or on the calling thread without one; the bits are
    the same for any number of workers, and so is the error raised.
    """
    y = _trim_leading_nan(_as_batch(series_or_batch))
    n = _effective_sample(y.shape[1], 2, lags)
    blocks = [y[lo:lo + _ROW_BLOCK] for lo in range(0, y.shape[0], _ROW_BLOCK)]
    fits = (pool.map if pool is not None else map)(
        lambda block: _four_stats_block(block, lags, n), blocks)
    return np.concatenate(list(fits))


def _four_stats_block(y: np.ndarray, lags: int, n: int) -> np.ndarray:
    """The four statistics of one row block, shape ``(B, 4)``.

    One Cholesky factor ``L`` of each Gram ``M`` (:func:`_grams`), its
    rows ordered ``[lags, 1, t, level, response]``, gives three of them:

    * ADF trend: the whole factor (:func:`_factor_fit`);
    * ADF mean: the trailing 4 x 4 block ``L4`` of ``L`` is the factor
      of ``[1, t, level, response]`` with the lags partialled out.  Its
      level and response rows without the constant's column condition
      on the constant alone (:func:`_partial_fit`);
    * DF-GLS mean: GLS demeaning by ``b0`` leaves the differences as
      they are and maps the level to ``level - b0``, whose row of ``L4``
      is the level row minus ``b0`` times the constant row.

    DF-GLS trend is ``A' M A`` with the per-replication :func:`_gls_map`,
    whose level column carries the one-period trend offset
    ``-(b0 - b1) - b1 t``, fitted by :func:`_level_fit`.  If some
    replication's ``M`` is not positive definite, the ADF and DF-GLS mean
    statistics of its block fall back to one :func:`_level_fit` per
    regression, pseudo-inverse included.  The series are first shifted to
    start at zero, which leaves all four statistics unchanged and keeps
    the constant from dominating the level in the Gram.  Runs on worker
    threads, so it calls no name that the benchmark's tracer wraps.
    """
    y = y - y[:, :1]
    gls_mean = _gls_coef_batch(y, DeterministicSpec.MEAN)[0]
    gls_trend = _gls_coef_batch(y, DeterministicSpec.TREND)[0]
    M = _grams(y, lags)
    out = np.empty((y.shape[0], 4))
    order = np.r_[3:3 + lags, 0, 1, 2, 3 + lags]
    try:
        L = np.linalg.cholesky(M[:, order[:, None], order])
    except np.linalg.LinAlgError:
        for col, det in ((0, 1), (1, 2)):
            rows = _rows(det, lags)
            out[:, col] = _level_fit(M[:, rows[:, None], rows], n)[1]
        out[:, 2] = _gls_tstat(M, gls_mean, n)
    else:
        yy = M[:, 3 + lags, 3 + lags]
        L4 = L[:, lags:, lags:]
        out[:, 0] = _partial_fit(L4[:, 2, 1:], L4[:, 3, 1:], yy,
                                 n - lags - 2)[1]
        out[:, 1] = _factor_fit(L, yy, n - lags - 3)[1]
        level = L4[:, 2].copy()
        level[:, 0] -= gls_mean[:, 0] * L4[:, 0, 0]
        out[:, 2] = _partial_fit(level, L4[:, 3], yy, n - lags - 1)[1]
    out[:, 3] = _gls_tstat(M, gls_trend, n)
    return out
