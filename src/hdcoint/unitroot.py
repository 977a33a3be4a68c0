"""Augmented Dickey-Fuller and GLS-detrended unit-root statistics.

Every Dickey-Fuller regression is read off one Gram matrix.  For each
chunk of :data:`_CHUNK` (128) replications, :func:`_grams` builds the
series-major design ``X`` with rows ``[1, t, y_{t-1}, dy_{t-1}, ...,
dy_{t-p}, dy_t]`` and forms ``M = X X'`` once.  A regression is the
sub-Gram ``S`` of ``[other regressors, level, response]``; with ``L``
the Cholesky factor of ``S`` and ``k`` regressors, the level has
coefficient ``L[k, k-1] / L[k-1, k-1]`` and t-statistic
``L[k, k-1] sqrt(n - k) / L[k, k]`` (:func:`_level_fit`).  The ADF mean
and trend regressions select rows of ``M``; the DF-GLS regressions are
``A' M A``, where ``A`` (:func:`_gls_map`) subtracts the GLS
deterministics per replication: ``b1`` from every difference and
``(b0 - b1) + b1 t`` from the level, which sits one period behind the
trend column.  Chunking bounds the design at ``128 (p + 4) n`` values.
A singular sub-Gram falls back to the pseudo-inverse.  The scalar entry
points are thin wrappers over batches of size one.

Lag selection uses a modified AIC with a variance-rescaling step that
standardizes increments by a rolling-window volatility estimate before
the criterion is evaluated, which keeps the choice stable under
permanent volatility shifts.

References
----------
Elliott, G., Rothenberg, T. J., Stock, J. H. (1996). Efficient tests for
an autoregressive unit root. Econometrica 64, 813-836.
Ng, S., Perron, P. (2001). Lag length selection and the construction of
unit root tests with good size and power. Econometrica 69, 1519-1554.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .panel import DeterministicSpec

__all__ = [
    "VARIANTS",
    "UnitRootStat",
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


#: replications per Gram chunk; bounds the (chunk, lags + 4, n) design
_CHUNK = 128


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


def _grams(y: np.ndarray, lags: int):
    """Augmented Gram matrices of the DF design, by replication chunk.

    Yields ``(lo, hi, M)`` with ``M = X X'`` of shape ``(hi - lo, m, m)``
    for the series-major design ``X`` whose ``m = lags + 4`` rows are
    ``[1, t, y_{t-1}, dy_{t-1}, ..., dy_{t-lags}, dy_t]`` over the
    ``n = T - lags - 1`` usable periods, ``t`` counted from 1.
    """
    B, T = y.shape
    s = lags + 1                       # first usable level index
    dy = np.diff(y, axis=1)
    for lo in range(0, B, _CHUNK):
        hi = min(lo + _CHUNK, B)
        X = np.empty((hi - lo, lags + 4, T - s))
        X[:, 0] = 1.0
        X[:, 1] = np.arange(s + 1.0, T + 1.0)
        X[:, 2] = y[lo:hi, s - 1:T - 1]
        for j in range(1, lags + 1):
            X[:, 2 + j] = dy[lo:hi, s - 1 - j:T - 1 - j]
        X[:, 3 + lags] = dy[lo:hi, s - 1:]
        yield lo, hi, X @ X.transpose(0, 2, 1)


def _level_fit(S: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Coefficient and t-statistic of the level from an augmented Gram.

    ``S`` has shape ``(B, k + 1, k + 1)`` and is the Gram matrix of
    ``[other regressors, level, response]`` over ``n`` rows.  With
    ``L`` its Cholesky factor, ``L[k, k]`` is the residual norm and
    ``beta = L[k, k-1] / L[k-1, k-1]``, ``t = L[k, k-1] sqrt(n - k) / L[k, k]``.
    A singular ``S`` falls back to the pseudo-inverse of the regressor block.
    """
    k = S.shape[-1] - 1
    dof = n - k
    if dof < 1:
        raise DataError("no degrees of freedom left in the ADF regression")
    try:
        L = np.linalg.cholesky(S)
        beta = L[:, k, k - 1] / L[:, k - 1, k - 1]
        denom = (L[:, k, k] / L[:, k - 1, k - 1]) ** 2 / dof
    except np.linalg.LinAlgError:
        Gpinv = np.linalg.pinv(S[:, :k, :k])
        coef = np.einsum("bij,bj->bi", Gpinv, S[:, :k, k])
        rss = S[:, k, k] - np.einsum("bi,bi->b", coef, S[:, :k, k])
        beta = coef[:, k - 1]
        denom = rss / dof * Gpinv[:, k - 1, k - 1]
    if np.any(denom <= 0) or not np.all(np.isfinite(denom)):
        raise NumericalError("singular ADF regression (zero residual variance)")
    return beta, beta / np.sqrt(denom)


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
    rows = _rows(det, lags)
    beta, tstat = np.empty(y.shape[0]), np.empty(y.shape[0])
    for lo, hi, M in _grams(y, lags):
        beta[lo:hi], tstat[lo:hi] = _level_fit(M[:, rows[:, None], rows], n)
    return beta, tstat


def _adf_tstat_batch(y: np.ndarray, det: int, lags: int) -> np.ndarray:
    """t-statistic on the lagged level in ADF regressions, batched."""
    return _adf_fit_batch(y, det, lags)[1]


def _gls_coef_batch(y: np.ndarray, spec: DeterministicSpec,
                    cbar: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Local-to-unity GLS coefficients ``(B, d)`` and deterministics ``(T, d)``."""
    if spec not in _GLS_CBAR:
        raise ParameterError("GLS detrending requires spec 'mean' or 'trend'")
    B, T = y.shape
    if T < 4:
        raise DataError("series too short for GLS detrending")
    cbar = _GLS_CBAR[spec] if cbar is None else float(cbar)
    rho = 1.0 + cbar / T
    t = np.arange(1.0, T + 1.0)
    Z = np.ones((T, 1)) if spec is DeterministicSpec.MEAN else np.column_stack([np.ones(T), t])
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


def _gls_detrend_batch(y: np.ndarray, spec: DeterministicSpec,
                       cbar: Optional[float] = None) -> np.ndarray:
    """Local-to-unity GLS demeaning/detrending of a batch of series."""
    beta, Z = _gls_coef_batch(y, spec, cbar)
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


def adf_stat(series, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
             lags: int = 0) -> float:
    """ADF t-statistic with deterministics included in the regression."""
    spec = DeterministicSpec.parse(spec)
    det = {DeterministicSpec.NONE: 0, DeterministicSpec.MEAN: 1,
           DeterministicSpec.TREND: 2}[spec]
    y = _trim_leading_nan(_as_batch(series))
    return float(_adf_tstat_batch(y, det, lags)[0])


def dfgls_stat(series, spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
               lags: int = 0, cbar: Optional[float] = None) -> float:
    """Dickey-Fuller statistic on GLS-demeaned/detrended data.

    The noncentrality parameter defaults to -7 (demeaning) and -13.5
    (detrending); the test regression contains no deterministics.
    """
    spec = DeterministicSpec.parse(spec)
    y = _trim_leading_nan(_as_batch(series))
    yd = _gls_detrend_batch(y, spec, cbar)
    return float(_adf_tstat_batch(yd, 0, lags)[0])


def adf_rho(series, lags: int = 0,
            spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND) -> float:
    """Largest-autoregressive-root estimate ``1 + b0`` from an ADF regression."""
    spec = DeterministicSpec.parse(spec)
    det = {DeterministicSpec.NONE: 0, DeterministicSpec.MEAN: 1,
           DeterministicSpec.TREND: 2}[spec]
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
    common estimation sample.  Ties break toward the smaller lag.
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
    if spec is not DeterministicSpec.NONE:
        t = np.arange(1.0, T + 1.0)
        X = np.ones((T, 1)) if spec is DeterministicSpec.MEAN else np.column_stack([np.ones(T), t])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        y = y - X @ beta
    d = np.diff(y)
    if not np.any(np.abs(d) > 0) or not np.all(np.isfinite(d)):
        return 0
    z = _variance_rescale(y)
    dz = np.diff(z)
    s = max_lags + 1                   # common first usable level index
    n = T - s
    lhs = dz[s - 1:]
    lag_level = z[s - 1:T - 1]
    best = (np.inf, 0)
    for k in range(max_lags + 1):
        cols = [lag_level]
        for j in range(1, k + 1):
            cols.append(dz[s - 1 - j:T - 1 - j])
        X = np.column_stack(cols)
        beta, *_ = np.linalg.lstsq(X, lhs, rcond=None)
        resid = lhs - X @ beta
        sigma2 = float(resid @ resid) / n
        if sigma2 <= 0:
            continue
        tau = beta[0] ** 2 * float(lag_level @ lag_level) / sigma2
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


@dataclass(frozen=True)
class UnitRootStat:
    """The four component statistics for one series plus the union value."""

    name: str
    stats: np.ndarray              # aligned with VARIANTS
    lag: int
    union: Optional[float] = None

    def __post_init__(self):
        arr = np.asarray(self.stats, dtype=float)
        if arr.shape != (4,):
            raise ParameterError("stats must contain the four component tests")
        object.__setattr__(self, "stats", arr)


def union_stat(stats, critvals: CriticalValueSet, x: float = -1.0) -> float:
    """Scale-and-minimize union of the four tests.

    Each statistic is scaled by ``x / c`` with ``c`` its critical value;
    the union statistic is the minimum of the four scaled values and the
    union test rejects when it falls below ``x``.
    """
    if x >= 0:
        raise ParameterError("scaling constant x must be negative")
    s = stats.stats if isinstance(stats, UnitRootStat) else np.asarray(stats, dtype=float)
    if s.shape != (4,):
        raise ParameterError("expected the four component statistics")
    c = critvals.as_array()
    if np.any(c == 0.0):
        raise ParameterError("critical values must be non-zero")
    return float(np.min(x / c * s))


def four_stats(series_or_batch, lags: int) -> np.ndarray:
    """All four component statistics, batched.

    Returns shape ``(B, 4)`` with columns ordered as :data:`VARIANTS`.
    Each chunk of :data:`_CHUNK` (128) replications builds one Gram
    matrix ``M`` (:func:`_grams`).  The ADF mean and trend regressions
    are sub-Grams of ``M``, the mean one nested in the trend one; the
    DF-GLS regressions are ``A' M A`` with the per-replication
    :func:`_gls_map`, whose level column carries the one-period trend
    offset ``-(b0 - b1) - b1 t``.  Each t-statistic is
    ``L[k, k-1] sqrt(n - k) / L[k, k]`` from the Cholesky factor ``L``
    (:func:`_level_fit`).  The series are first shifted to start at
    zero, which leaves all four statistics unchanged and keeps the
    constant from dominating the level in the Gram.
    """
    y = _trim_leading_nan(_as_batch(series_or_batch))
    y = y - y[:, :1]
    n = _effective_sample(y.shape[1], 2, lags)
    gls_mean = _gls_coef_batch(y, DeterministicSpec.MEAN)[0]
    gls_trend = _gls_coef_batch(y, DeterministicSpec.TREND)[0]
    mean_rows, trend_rows = _rows(1, lags), _rows(2, lags)
    out = np.empty((y.shape[0], 4))
    for lo, hi, M in _grams(y, lags):
        out[lo:hi, 0] = _level_fit(M[:, mean_rows[:, None], mean_rows], n)[1]
        out[lo:hi, 1] = _level_fit(M[:, trend_rows[:, None], trend_rows], n)[1]
        for col, beta in ((2, gls_mean), (3, gls_trend)):
            A = _gls_map(beta[lo:hi], lags)
            out[lo:hi, col] = _level_fit(A.transpose(0, 2, 1) @ M @ A, n)[1]
    return out
