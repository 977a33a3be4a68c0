"""Factor models for large panels: extraction, counting, forecasting.

Two extraction routes coexist.  The differences route estimates loadings
from the covariance of differenced, slope-detrended data and recovers
factor paths by cross-sectional averaging.  The levels route reads factor
paths directly off the dominant left singular vectors of the data matrix
as supplied, with separate normalization rates for stochastic-trend and
stationary factors.  The two forecasters combine either route with the
reduced-rank VECM machinery.  :func:`var_bic_forecast` is the one
AR/VAR-by-BIC routine of the package, for one system or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ._numeric import (column_scales, column_signs, nested_residual_factors,
                       singular_pivots)
from .errors import DataError, NumericalError, ParameterError
from .panel import DeterministicSpec, as_values, detrend, resolve_targets
# select_rank_ic is unused here, but the benchmark's tracer still looks
# it up in this module
from .vecm import (johansen_ml, select_lag_bic,  # noqa: F401
                   select_rank_ic, vecm_iterated_forecast)

__all__ = [
    "FactorModel",
    "extract_factors_diff",
    "extract_factors_levels",
    "pca_factors",
    "count_factors",
    "ndfm_forecast",
    "fecm_forecast",
    "var_bic_forecast",
]

COUNT_MODES = ("diff_ic", "levels_ipc")


def _slope_detrend(z: np.ndarray) -> np.ndarray:
    """Remove the per-column OLS trend slope, keeping the intercept."""
    T = z.shape[0]
    t = np.arange(1.0, T + 1.0)
    tc = t - t.mean()
    tau = (tc @ z) / (tc @ tc)
    return z - np.outer(t, tau)


@dataclass(frozen=True)
class FactorModel:
    """Estimated loadings and factor paths with their normalization tag.

    Attributes
    ----------
    loadings : ndarray, shape (N, k)
    factors : ndarray, shape (T, k)
        Factor paths in levels of whatever the extractor consumed.
    normalization : str
        "differences" pins loadings to Λ'Λ/N = I; "levels" pins factor
        paths, the first ``r_ns`` at the T² rate ((1/T²)Σff' = I) and the
        next ``r_s`` at the T rate.
    r_ns, r_s : int
        Stochastic-trend and stationary factor counts.  The differences
        route does not distinguish them and stores (k, 0).
    eigenvalues : ndarray or None
        Spectrum of the extraction problem, non-increasing.
    """

    loadings: np.ndarray
    factors: np.ndarray
    normalization: str
    r_ns: int
    r_s: int
    eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self):
        k = self.loadings.shape[1]
        if self.factors.shape[1] != k or self.r_ns + self.r_s != k:
            raise ParameterError("loading/factor/count dimensions disagree")
        if k == 0:
            return
        if self.normalization == "differences":
            gram = self.loadings.T @ self.loadings / self.loadings.shape[0]
            if np.max(np.abs(gram - np.eye(k))) > 1e-8:
                raise NumericalError("loading normalization violated")
        elif self.normalization == "levels":
            T = self.factors.shape[0]
            scale = np.concatenate([np.full(self.r_ns, float(T)),
                                    np.full(self.r_s, np.sqrt(float(T)))])
            gram = (self.factors / scale).T @ (self.factors / scale)
            if np.max(np.abs(gram - np.eye(k))) > 1e-8:
                raise NumericalError("factor-path normalization violated")
        else:
            raise ParameterError(
                f"unknown normalization '{self.normalization}'")

    def common_component(self) -> np.ndarray:
        """Fitted common part Λf' as a (T, N) matrix."""
        return self.factors @ self.loadings.T


def _principal_components(x: np.ndarray, paths: np.ndarray,
                          k: int) -> FactorModel:
    """Loadings sqrt(N) times the ``k`` leading eigenvectors of x'x/T, and
    factor paths (1/N)·paths·Λ, with T the rows of ``paths``."""
    T, N = paths.shape
    vals, vecs = np.linalg.eigh(x.T @ x / T)
    order = np.argsort(vals)[::-1][:k]
    loadings = np.sqrt(N) * vecs[:, order]
    signs = column_signs(loadings)
    return FactorModel(loadings * signs, paths @ loadings / N * signs,
                       "differences", k, 0,
                       eigenvalues=vals[order])


def extract_factors_diff(data, k: int) -> FactorModel:
    """Loadings from differenced data, factor paths from detrended levels.

    The data is trend-slope detrended; loadings are sqrt(N) times the
    leading eigenvectors of the covariance of its first differences, and
    factor paths are the cross-sectional averages f_t = (1/N) Λ' z_t of
    the detrended levels.
    """
    z = as_values(data)
    T, N = z.shape
    if not 0 <= k <= min(N, T - 2):
        raise ParameterError(
            f"factor count {k} outside [0, min(N, T-2)] = [0, {min(N, T - 2)}]")
    zt = _slope_detrend(z)
    return _principal_components(np.diff(zt, axis=0), zt, k)


def extract_factors_levels(data, r_ns: int, r_s: int = 0) -> FactorModel:
    """Factor paths from the leading left singular vectors of the levels.

    The first ``r_ns`` paths are normalized at the T² rate appropriate
    for stochastic trends, the next ``r_s`` at the stationary T rate;
    loadings follow by least squares.  The data enters as given; any
    detrending is the caller's choice.
    """
    z = as_values(data)
    T, N = z.shape
    r = r_ns + r_s
    if r_ns < 0 or r_s < 0 or r > min(N, T):
        raise ParameterError(
            f"factor counts ({r_ns}, {r_s}) outside [0, min(N, T)]")
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    factors = np.hstack([T * u[:, :r_ns], np.sqrt(T) * u[:, r_ns:r]])
    coef, *_ = np.linalg.lstsq(factors, z, rcond=None)
    loadings = coef.T.copy()
    signs = column_signs(loadings)
    return FactorModel(loadings * signs, factors * signs, "levels", r_ns, r_s,
                       eigenvalues=s[:r] ** 2)


def pca_factors(data, k: int, demean: bool = True) -> FactorModel:
    """Principal-component factors of a stationary panel.

    Same normalization as the differences route; used by the
    factor-augmented forecasters on transformed data.
    """
    x = as_values(data)
    T, N = x.shape
    if not 0 <= k <= min(N, T - 1):
        raise ParameterError(f"factor count {k} outside [0, {min(N, T - 1)}]")
    xc = x - x.mean(axis=0) if demean else x
    return _principal_components(xc, xc, k)


def _tail_variance(x: np.ndarray) -> np.ndarray:
    """V(k) for k = 0..min dimension: mean squared residual after k PCs."""
    s2 = np.linalg.svd(x, compute_uv=False) ** 2
    tail = np.concatenate([[s2.sum()], s2.sum() - np.cumsum(s2)])
    return tail / x.size


def count_factors(data, mode: str = "diff_ic", kmax: int = 8) -> int:
    """Information-criterion factor count over 0..kmax.

    "diff_ic" applies the (N+T)/(NT)·log(min(N,T)) penalty to standardized
    first differences; "levels_ipc" applies the heavier levels penalty with
    rate multiplier T/(4 log log T) directly to the data, which consistently
    counts stochastic-trend factors without differencing.
    """
    z = as_values(data)
    T, N = z.shape
    if kmax < 0 or 2 * kmax > min(N, T):
        raise ParameterError(f"kmax {kmax} outside [0, min(N, T)/2]")
    if kmax == 0:
        return 0
    if mode == "diff_ic":
        x = np.diff(z, axis=0)
        x = (x - x.mean(axis=0)) / column_scales(x)
        Tx = x.shape[0]
        v = _tail_variance(x)[:kmax + 1]
        penalty = (N + Tx) / (N * Tx) * np.log(min(N, Tx))
        with np.errstate(divide="ignore"):
            crit = np.where(v > 0, np.log(np.maximum(v, 1e-300)), -np.inf)
        crit = crit + penalty * np.arange(kmax + 1)
    elif mode == "levels_ipc":
        if T < 3:
            raise DataError("levels criterion needs at least three rows")
        v = _tail_variance(z)[:kmax + 1]
        alpha_T = T / (4.0 * np.log(np.log(T)))
        penalty = v[kmax] * alpha_T * (N + T) / (N * T) * np.log(min(N, T))
        crit = v + penalty * np.arange(kmax + 1)
    else:
        raise ParameterError(f"unknown mode '{mode}'; choose from {COUNT_MODES}")
    return int(np.argmin(crit))


def var_bic_forecast(x, h: int, p_max: int, p_min: int) -> np.ndarray:
    """Point forecasts 1..h from a VAR(p) with intercept, p chosen by BIC.

    ``x`` is a (T, k) array, a single series (1-D path) or a (B, T, k)
    stack of systems with a lag each ((B, h, k) paths); an AR is k = 1.
    The lag runs over ``p_min..p_max`` on a common sample; ``p_max`` is
    capped so that each equation keeps ``k + 1`` residual degrees of
    freedom.  The criterion is ``n log det(Sigma + 1e-12 I) + log(n) k (k p
    + 1)``.  A singular residual covariance ends the search at its lag:
    a pivot of its residual factor is singular by :func:`singular_pivots`
    (as in :func:`select_lag_bic`), or ``Sigma + 1e-12 I`` is not positive
    definite.  One QR scores every lag (:func:`nested_residual_factors`);
    least squares fits the chosen one.
    """
    v = np.asarray(x, dtype=float)
    z = v if v.ndim == 3 else v.reshape(1, v.shape[0], -1)
    B, T, k = z.shape
    p_max = max(p_min, min(p_max, (T - k - 2) // (k + 1)))
    n = T - p_max
    if n < k + 2:
        raise DataError("window too short for the autoregression")
    lagged = np.concatenate([np.ones((B, n, 1))] + [
        z[:, p_max - j:T - j] for j in range(1, p_max + 1)], axis=2)
    lags = np.arange(p_min, p_max + 1)
    F = nested_residual_factors(lagged, z[:, p_max:], 1 + k * lags)
    signs, logdets = np.linalg.slogdet(
        np.swapaxes(F, -1, -2) @ F / n + 1e-12 * np.eye(k))
    norms = np.linalg.norm(z[:, p_max:], axis=1)[:, None]
    singular = singular_pivots(F, norms, n).any(axis=2) | (signs <= 0)
    pen = np.log(n) * k * (k * lags + 1)
    bic = np.where(singular, -np.inf, n * logdets + pen)
    # a singular covariance ends the search at its lag, which wins at -inf
    bic[np.cumsum(singular, axis=1) > singular] = np.inf
    if not (bic < np.inf).any(axis=1).all():
        raise DataError("autoregression could not be fitted")
    paths = np.empty((B, h, k))
    for b, p in enumerate(np.argmin(bic, axis=1) + p_min):
        beta, *_ = np.linalg.lstsq(lagged[b, :, :1 + k * p], z[b, p_max:],
                                   rcond=None)
        hist = [z[b, -j] for j in range(1, p + 1)]
        for s in range(h):
            row = beta[0] + sum(hist[j - 1] @ beta[1 + (j - 1) * k: 1 + j * k]
                                for j in range(1, p + 1))
            paths[b, s] = row
            hist = [row] + hist[:-1]
    return paths if v.ndim == 3 else paths[0].reshape(h, *v.shape[1:])


def _factor_path(factors: np.ndarray, h: int, rank: Optional[int],
                 p: Optional[int], p_max: int) -> np.ndarray:
    """Iterated factor forecasts; falls back to a frozen path only when
    automatic selection hits an infeasible window."""
    k = factors.shape[1]
    if k == 0:
        return np.zeros((h, 0))
    auto = rank is None and p is None
    try:
        p_f = select_lag_bic(factors, p_max=p_max,
                             det=DeterministicSpec.MEAN) if p is None else p
        model = johansen_ml(factors, rank, p_f, det=DeterministicSpec.MEAN)
        return vecm_iterated_forecast(model, factors, h)
    except (DataError, NumericalError):
        if not auto:
            raise
        return np.repeat(factors[-1:], h, axis=0)


def ndfm_forecast(data, k: Optional[int] = None, rank: Optional[int] = None,
                  p: Optional[int] = None, h: int = 1, idio_ar: bool = True,
                  p_max: int = 3) -> np.ndarray:
    """Level forecasts for every series from the nonstationary factor model.

    Factors come from the differences route, ``k`` of them or, when not
    given, the :func:`count_factors` choice of at most min(8, N/2, T/2).
    Their joint dynamics are a VECM fitted by reduced-rank ML (rank and
    lag by information criteria when not given, the lag at most
    ``p_max``), iterated one step at a time.  Per-series intercept and trend are re-estimated by OLS holding
    the loadings fixed, and optional BIC-selected AR(≤ ``p_max``)s, one
    stack of them, carry the idiosyncratic remainders.
    ``h=0`` returns the fitted value at the last observation as a (1, N)
    row; ``h≥1`` returns the (h, N) forecast path.
    """
    z = as_values(data)
    T, N = z.shape
    if h < 0:
        raise ParameterError("forecast horizon must be nonnegative")
    if k is None:
        k = count_factors(z, "diff_ic", min(8, min(N, T) // 2))
    fm = extract_factors_diff(z, k)
    common = fm.common_component()
    uhat, coef = detrend(z - common)
    steps = np.array([float(T)]) if h == 0 else np.arange(T + 1.0, T + h + 1.0)
    if h == 0:
        fpath = fm.factors[-1:]
        upath = uhat[-1:] if idio_ar else np.zeros((1, N))
    else:
        fpath = _factor_path(fm.factors, h, rank, p, p_max)
        upath = var_bic_forecast(uhat.T[:, :, None], h, p_max, 0)[:, :, 0].T \
            if idio_ar else np.zeros((h, N))
    det = np.outer(np.ones_like(steps), coef[0]) + np.outer(steps, coef[1])
    return det + fpath @ fm.loadings.T + upath


def fecm_forecast(data, targets: Optional[Sequence[Union[int, str]]] = None,
                  r_ns: int = 0, r_s: int = 0, rank: Optional[int] = None,
                  p: Optional[int] = None, h: int = 1,
                  det: Union[str, DeterministicSpec] = DeterministicSpec.TREND,
                  p_max: int = 3) -> np.ndarray:
    """Level forecasts for the target block from a factor-augmented VECM.

    Levels-extracted factors are stacked under the target series and the
    joint system is estimated by reduced-rank ML; by default with an
    unrestricted intercept and a trend restricted to the cointegrating
    space, while already-detrended inputs can pass ``det="none"``.  Rank
    and lag (at most ``p_max``) come from the information criteria when
    not given.  With ``r_ns = r_s = 0`` this is a plain VECM on the
    targets.  Factors of a panel of targets only are combinations of
    them: :class:`DataError`.
    """
    z, _, idx = resolve_targets(data, targets)
    spec = DeterministicSpec.parse(det)
    blocks = [z[:, idx]]
    if r_ns + r_s > 0:
        if idx.size == z.shape[1]:
            raise DataError("factors of an all-target panel would make "
                            "the factor-augmented system singular")
        blocks.append(extract_factors_levels(z, r_ns, r_s).factors)
    x = np.hstack(blocks)
    p_x = select_lag_bic(x, p_max=p_max, det=spec) if p is None else p
    model = johansen_ml(x, rank, p_x, det=spec)
    return vecm_iterated_forecast(model, x, h)[:, :idx.shape[0]]
