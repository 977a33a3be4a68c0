"""Factor models for large panels: extraction, counting, forecasting.

Two extraction routes coexist.  The differences route estimates loadings
from the covariance of differenced, slope-detrended data and recovers
factor paths by cross-sectional averaging.  The levels route reads factor
paths directly off the dominant left singular vectors of the data matrix
as supplied, normalized at the T² rate of stochastic trends.  The two
forecasters combine either route with the reduced-rank VECM machinery,
at the lag and rank of its information criteria.  Each follows the
stack contract of :func:`panel.as_stack`: the factors are extracted
window by window, and the VECMs of all windows are one stacked lag
choice and one stacked fit.
:func:`var_bic_forecast` is the one AR/VAR-by-BIC routine of the
package, for one system or a stack of them; one QR of its design scores
every lag and fits the chosen ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from ._numeric import (column_scales, column_signs, key_positions,
                       nested_residual_factors, singular_pivots,
                       triangular_factors)
from .errors import (WINDOW_ERRORS, DataError, NumericalError,
                     ParameterError, per_window)
from .panel import (DeterministicSpec, as_stack, as_values, detrend,
                    resolve_targets, unstack)
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
        paths at the T² rate ((1/T²)Σff' = I).
    eigenvalues : ndarray or None
        Spectrum of the extraction problem, non-increasing.
    """

    loadings: np.ndarray
    factors: np.ndarray
    normalization: str
    eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self):
        k = self.loadings.shape[1]
        if self.factors.shape[1] != k:
            raise ParameterError("loading/factor dimensions disagree")
        if k == 0:
            return
        if self.normalization == "differences":
            gram = self.loadings.T @ self.loadings / self.loadings.shape[0]
            if np.max(np.abs(gram - np.eye(k))) > 1e-8:
                raise NumericalError("loading normalization violated")
        elif self.normalization == "levels":
            scaled = self.factors / float(self.factors.shape[0])
            gram = scaled.T @ scaled
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
                       "differences", eigenvalues=vals[order])


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


def extract_factors_levels(data, r_ns: int) -> FactorModel:
    """``r_ns`` factor paths from the leading left singular vectors of the
    levels, normalized at the T² rate appropriate for stochastic trends;
    loadings follow by least squares.  The data enters as given; any
    detrending is the caller's choice.
    """
    z = as_values(data)
    T, N = z.shape
    if not 0 <= r_ns <= min(N, T):
        raise ParameterError(f"factor count {r_ns} outside [0, min(N, T)]")
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    factors = T * u[:, :r_ns]
    coef, *_ = np.linalg.lstsq(factors, z, rcond=None)
    loadings = coef.T.copy()
    signs = column_signs(loadings)
    return FactorModel(loadings * signs, factors * signs, "levels",
                       eigenvalues=s[:r_ns] ** 2)


def pca_factors(data, k: int) -> FactorModel:
    """Principal-component factors of a demeaned stationary panel.

    Same normalization as the differences route; used by the
    factor-augmented forecasters on transformed data.
    """
    x = as_values(data)
    T, N = x.shape
    if not 0 <= k <= min(N, T - 1):
        raise ParameterError(f"factor count {k} outside [0, {min(N, T - 1)}]")
    xc = x - x.mean(axis=0)
    return _principal_components(xc, xc, k)


def _tail_variance(x: np.ndarray) -> np.ndarray:
    """V(k) for k = 0..min dimension: mean squared residual after k PCs."""
    s2 = np.linalg.svd(x, compute_uv=False) ** 2
    tail = np.concatenate([[s2.sum()], s2.sum() - np.cumsum(s2)])
    return tail / x.size


def count_factors(data, kmax: int = 8) -> int:
    """Information-criterion factor count over 0..kmax: the
    (N+T)/(NT)·log(min(N,T)) penalty on the log mean squared residual of
    the standardized first differences after k principal components.
    """
    z = as_values(data)
    T, N = z.shape
    if kmax < 0 or 2 * kmax > min(N, T):
        raise ParameterError(f"kmax {kmax} outside [0, min(N, T)/2]")
    if kmax == 0:
        return 0
    x = np.diff(z, axis=0)
    x = (x - x.mean(axis=0)) / column_scales(x)
    Tx = x.shape[0]
    v = _tail_variance(x)[:kmax + 1]
    penalty = (N + Tx) / (N * Tx) * np.log(min(N, Tx))
    with np.errstate(divide="ignore"):
        crit = np.where(v > 0, np.log(np.maximum(v, 1e-300)), -np.inf)
    return int(np.argmin(crit + penalty * np.arange(kmax + 1)))


def var_bic_forecast(x, h: int, p_max: int, p_min: int) -> np.ndarray:
    """Point forecasts 1..h from a VAR(p) with intercept, p chosen by BIC.

    ``x`` is a (T, k) array, a single series (1-D path) or a (B, T, k)
    stack of systems with a lag each ((B, h, k) paths); an AR is k = 1.
    The lag runs over ``p_min..p_max`` on a common sample; ``p_max`` is
    capped so that each equation keeps ``k + 1`` residual degrees of
    freedom, and a common sample of fewer than ``max(k + 2, 1 + k p_min)``
    rows raises :class:`DataError`.  The criterion is ``n log det(Sigma +
    1e-12 I) + log(n) k (k p + 1)``.  A singular residual covariance ends
    the search at its lag: a pivot of its residual factor is singular by
    :func:`singular_pivots` (as in :func:`select_lag_bic`), or ``Sigma +
    1e-12 I`` is not positive definite.  One QR of the largest design
    [X, y] scores every lag (:func:`nested_residual_factors`), and its R
    fits the chosen one: with c = 1 + kp, beta = R[:c, :c]^-1 R[:c, m:],
    one solve per distinct lag.  A system whose R[:c, :c] has a pivot that
    :func:`singular_pivots` reads as singular takes the pseudo-inverse
    there, at ``lstsq``'s cutoff: the minimum-norm least-squares fit.
    """
    v = np.asarray(x, dtype=float)
    z = v if v.ndim == 3 else v.reshape(1, v.shape[0], -1)
    B, T, k = z.shape
    p_max = max(p_min, min(p_max, (T - k - 2) // (k + 1)))
    n = T - p_max
    if n < max(k + 2, 1 + k * p_min):
        raise DataError("window too short for the autoregression")
    # [1, the p_max lags, the response]: the lags' design is its head
    lagged = np.concatenate([np.ones((B, n, 1))] + [
        z[:, p_max - j:T - j] for j in range(1, p_max + 1)] + [z[:, p_max:]],
        axis=2)
    lags = np.arange(p_min, p_max + 1)
    m = 1 + k * p_max
    R = triangular_factors(lagged)
    F = nested_residual_factors(R[..., m:], 1 + k * lags)
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
    chosen = np.argmin(bic, axis=1) + p_min
    # the systems of one lag are fitted and iterate together: (G, 1, k) rows
    for p, group in key_positions(chosen.tolist()).items():
        c = 1 + k * p
        tri, rhs = R[group, :c, :c], R[group, :c, m:]
        # ||X b - y||^2 = ||tri b - rhs||^2 + const, and ||X e_j|| = ||R e_j||:
        # a design with a singular pivot takes lstsq's minimum-norm fit
        flat = singular_pivots(tri, np.linalg.norm(tri, axis=1),
                               n).any(axis=1)
        beta = np.empty(rhs.shape)
        if not flat.all():
            beta[~flat] = np.linalg.solve(tri[~flat], rhs[~flat])
        if flat.any():
            beta[flat] = np.linalg.pinv(
                tri[flat], rcond=max(n, c) * np.finfo(float).eps) @ rhs[flat]
        hist = [z[group, -j, None] for j in range(1, p + 1)]
        for s in range(h):
            row = beta[:, :1] + sum(
                hist[j - 1] @ beta[:, 1 + (j - 1) * k: 1 + j * k]
                for j in range(1, p + 1))
            paths[group, s] = row[:, 0]
            hist = [row] + hist[:-1]
    return paths if v.ndim == 3 else paths[0].reshape(h, *v.shape[1:])


def _factor_path(factors: Sequence[np.ndarray], h: int,
                 p_max: int) -> list:
    """Iterated forecasts of each window's (T, k) factor paths from a VECM
    at the criteria's lag and rank, one stacked lag choice and fit for the
    windows of each factor count; a window whose fit or forecast raised a
    window error gets the frozen path."""
    paths = [np.repeat(f[-1:], h, axis=0) for f in factors]
    for k, group in key_positions(f.shape[1] for f in factors).items():
        if not k:
            continue
        stack = np.stack([factors[i] for i in group])
        lags = select_lag_bic(stack, p_max=p_max, det=DeterministicSpec.MEAN)
        models = johansen_ml(stack, None, lags, det=DeterministicSpec.MEAN)
        for i, path in zip(group, per_window(
                partial(vecm_iterated_forecast, h=h), models, stack)):
            if not isinstance(path, WINDOW_ERRORS):
                paths[i] = path
    return paths


def ndfm_forecast(data, k: Optional[int] = None, h: int = 1,
                  p_max: int = 3) -> Union[np.ndarray, list]:
    """Level forecasts (h, N) for every series from the nonstationary
    factor model.

    Factors come from the differences route, ``k`` of them or, when not
    given, the :func:`count_factors` choice of at most min(8, N/2, T/2).
    Their joint dynamics are a VECM fitted by reduced-rank ML at the
    rank and lag (at most ``p_max``) of the information criteria, iterated
    one step at a time; where that fit fails the factors keep their last
    value.  Per-series intercept and trend are re-estimated by OLS holding
    the loadings fixed, and BIC-selected AR(≤ ``p_max``)s carry the
    idiosyncratic remainders.

    ``data`` and the result follow the stack contract of
    :func:`panel.as_stack`.  Each window's factors and deterministics are
    its own; the idiosyncratic ARs of every series of every window are
    one :func:`var_bic_forecast` stack, and the factor VECMs one stacked
    lag choice and fit per factor count.
    """
    z, stack, out = as_stack(data)
    _, T, N = z.shape
    if h < 1:
        raise ParameterError("forecast horizon must be positive")
    live = [w for w, e in enumerate(out) if e is None]
    if not live:
        return unstack(out, stack)
    steps = np.arange(T + 1.0, T + h + 1.0)
    fms, dets = [], []
    # the windows' idiosyncratic residuals side by side, one AR a column
    resid = np.empty((T, len(live) * N))
    for i, w in enumerate(live):
        fm = extract_factors_diff(z[w], count_factors(
            z[w], min(8, min(N, T) // 2)) if k is None else k)
        resid[:, i * N:(i + 1) * N], coef = detrend(
            z[w] - fm.common_component())
        fms.append(fm)
        dets.append(np.outer(np.ones_like(steps), coef[0])
                    + np.outer(steps, coef[1]))
    upath = var_bic_forecast(resid.T[:, :, None], h, p_max, 0)[:, :, 0]
    fpaths = _factor_path([fm.factors for fm in fms], h, p_max)
    for i, w in enumerate(live):
        out[w] = dets[i] + fpaths[i] @ fms[i].loadings.T \
            + upath[i * N:(i + 1) * N].T
    return unstack(out, stack)


def fecm_forecast(data, targets: Optional[Sequence[Union[int, str]]] = None,
                  r_ns: int = 0, h: int = 1,
                  p_max: int = 3) -> Union[np.ndarray, list]:
    """Level forecasts for the target block from a factor-augmented VECM.

    ``r_ns`` levels-extracted factors are stacked under the target series
    and the joint system is estimated by reduced-rank ML at the rank and
    lag (at most ``p_max``) of the information criteria, without
    deterministic terms: the input is taken as detrended already.  With
    ``r_ns = 0`` this is a plain VECM on the targets.  The factors and the
    targets all lie in the span of the panel's N series, so more targets
    and factors than N would make the system singular: :class:`DataError`.

    ``data`` and the result follow the stack contract of
    :func:`panel.as_stack`.  Each window's factors are its own; the
    systems of all windows get one stacked lag choice and one stacked
    :func:`johansen_ml` call.
    """
    z, stack, out = as_stack(data)
    idx = resolve_targets(data, targets)[2]
    if h < 1:
        raise ParameterError("forecast horizon must be positive")
    if r_ns > 0 and idx.size + r_ns > z.shape[2]:
        raise DataError(
            f"{idx.size} targets and {r_ns} factors exceed the "
            f"{z.shape[2]} series that span them; the factor-augmented "
            f"system would be singular")
    live = [w for w, e in enumerate(out) if e is None]
    if not live:
        return unstack(out, stack)

    def system(window: np.ndarray) -> np.ndarray:
        blocks = [window[:, idx]]
        if r_ns > 0:
            blocks.append(extract_factors_levels(window, r_ns).factors)
        return np.hstack(blocks)

    x = np.stack([system(z[w]) for w in live])
    models = johansen_ml(x, None, select_lag_bic(x, p_max=p_max))
    paths = per_window(partial(vecm_iterated_forecast, h=h), models, x)
    for w, path in zip(live, per_window(lambda fc: fc[:, :idx.size], paths)):
        out[w] = path
    return unstack(out, stack)
