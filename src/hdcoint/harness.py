"""Rolling-window forecast evaluation and model confidence sets.

Each window is an isolated slice: series are detrended inside it, every
method sees only that window's observations, forecasts are mapped back
to levels by adding the window's own deterministic extrapolation, and
squared level errors feed relative MSFEs against an autoregressive
benchmark.  Surviving-method sets come from an elimination procedure on
loss differentials bootstrapped with the autoregressive wild multiplier.
Each forecasting method is one :class:`Lane` record of one table: its
body, whether it also nowcasts and whether it extracts factors; the run's
checks read the records.  Lanes difference and integrate only through
``panel``'s one rule and its inverse; an integration order outside
{0, 1, 2} stops the run up front.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import column_scales
from .bootstrap import _multiplier_matrix, check_multiplier
from .errors import DataError, ParameterError, ToolkitError
from .factors import (extract_factors_diff, fecm_forecast, ndfm_forecast,
                      pca_factors, var_bic_forecast)
from .panel import (DeterministicSpec, detrend, difference_columns,
                    invert_differences, resolve_targets, validate_orders)
from .singleeq import padl_fit, specs_fit
# select_rank_ic is unused here, but the benchmark's tracer still looks
# it up in this module
from .vecm import (johansen_ml, pml_vecm, qr_vecm,  # noqa: F401
                   select_lag_bic, select_rank_ic, vecm_iterated_forecast)

__all__ = [
    "HarnessConfig",
    "ForecastReport",
    "McsResult",
    "run_rolling",
    "mcs",
    "ar_benchmark",
    "register_method",
    "SINGLE_EQUATION_METHODS",
]


def ar_benchmark(series, order: int = 1, p_max: int = 3, h: int = 1) -> float:
    """Level forecast from a BIC-selected autoregression.

    The series is differenced down to stationarity per ``order``, an
    AR(p <= p_max) is fitted, iterated ``h`` steps and integrated back
    (:func:`_ar_levels` on one column).  ``h = 0`` refits without the
    final observation and nowcasts it from one step behind.
    """
    v = np.asarray(series, dtype=float).ravel()
    if h < 0:
        raise ParameterError("horizon must be nonnegative")
    v = v[:-1] if h == 0 else v
    return float(_ar_levels(v[:, None], order, p_max, max(h, 1))[-1, 0])


def _ar_levels(v: np.ndarray, order: int, p_max: int,
               steps: int) -> np.ndarray:
    """Level paths 1..steps of each column of the (T, B) block ``v``, from
    BIC-selected AR(p <= p_max)s of the ``order``-th differences, stacked."""
    x = difference_columns(v, [order] * v.shape[1])[order:]
    if x.shape[0] < 8:
        raise DataError("series too short for the autoregressive benchmark")
    path = var_bic_forecast(x.T[:, :, None], steps, p_max, p_min=0)
    return invert_differences(v, path[:, :, 0].T, int(order))


# -- per-window context ------------------------------------------------------


class _Window:
    """One isolated window: detrended residuals plus forecast bookkeeping."""

    def __init__(self, values: np.ndarray, targets: np.ndarray,
                 horizons: Tuple[int, ...], orders: np.ndarray,
                 cfg: HarnessConfig, window_start: int):
        self.values = values
        self.targets = targets
        self.horizons = tuple(horizons)
        self.orders = orders
        self.cfg = cfg
        self.window_start = window_start
        self.resid, self.trend_coef = detrend(values)
        self._now_cache: Dict[int, Tuple[np.ndarray, float]] = {}

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    def deterministic(self, j: int, h: int) -> float:
        a, b = self.trend_coef[:, j]
        return float(a + b * (self.n_obs + h))

    def now_parts(self, ti: int) -> Tuple[np.ndarray, float]:
        """Residual panel and deterministic value for an h=0 nowcast.

        The target column is detrended without its final observation, so
        the value being nowcast never enters any estimate.
        """
        if ti not in self._now_cache:
            n = self.n_obs
            coef = detrend(self.values[:-1, ti])[1]
            col = self.values[:, ti] - DeterministicSpec.TREND.design(n) @ coef
            panel = self.resid.copy()
            panel[:, ti] = col
            det = float(coef[0] + coef[1] * n)
            self._now_cache[ti] = (panel, det)
        return self._now_cache[ti]

    def coint_panel(self, resid: Optional[np.ndarray] = None) -> np.ndarray:
        """Levels for the cointegration lane: I(2) columns differenced once."""
        r = self.resid if resid is None else resid
        if (self.orders < 2).all():
            return r
        return difference_columns(r, self.orders == 2)[1:]

    def coint_invert(self, ti: int, path: np.ndarray) -> np.ndarray:
        """Map a cointegration-lane forecast path back to residual levels."""
        return invert_differences(self.resid[:, ti], path,
                                  int(self.orders[ti] == 2))


def _max_h(ctx: _Window) -> int:
    return max(max(ctx.horizons), 1)


def _at_horizons(ctx: _Window, levels) -> Dict[Tuple[int, int], float]:
    """Level forecasts {(target, h): value} for every h >= 1 from
    (target, residual-level path) pairs."""
    return {(ti, h): lev[h - 1] + ctx.deterministic(ti, h)
            for ti, lev in levels for h in ctx.horizons if h >= 1}


# -- lanes -------------------------------------------------------------------
# A lane body looks its estimators up by module-global name when it runs, so
# a wrapper installed on that name sees every call.


def _ar(ctx: _Window) -> Dict[Tuple[int, int], float]:
    out = {}
    for d in np.unique(ctx.orders[ctx.targets]) if max(ctx.horizons) else ():
        tis = ctx.targets[ctx.orders[ctx.targets] == d]
        lev = _ar_levels(ctx.resid[:, tis], d, ctx.cfg.p_max, _max_h(ctx))
        out.update(_at_horizons(ctx, zip(tis, lev.T)))
    for ti in ctx.targets if 0 in ctx.horizons else ():
        panel, det = ctx.now_parts(ti)
        out[(ti, 0)] = det + ar_benchmark(panel[:, ti], int(ctx.orders[ti]),
                                          ctx.cfg.p_max, 0)
    return out


def _stationary_system(ctx: _Window, augment: bool) -> Dict[Tuple[int, int], float]:
    """Shared VAR / factor-augmented VAR lane on transformed residuals."""
    orders = ctx.orders[ctx.targets]
    x = difference_columns(ctx.resid[:, ctx.targets], orders)[orders.max():]
    if augment:
        full = difference_columns(ctx.resid, ctx.orders)[ctx.orders.max():]
        rows = min(x.shape[0], full.shape[0])
        fac = pca_factors(full / column_scales(full), ctx.cfg.factors).factors
        x = np.hstack([x[-rows:], fac[-rows:]])
    path = var_bic_forecast(x, _max_h(ctx), ctx.cfg.p_max, p_min=1)
    return _at_horizons(ctx, [(ti, invert_differences(
        ctx.resid[:, ti], path[:, pos], int(ctx.orders[ti])))
        for pos, ti in enumerate(ctx.targets)])


def _cointegrated(ctx: _Window, path: Callable, block: bool = True
                  ) -> Dict[Tuple[int, int], float]:
    """The cointegration lanes' one body: ``path(ctx, z)`` forecasts the
    targets ``_max_h`` steps from the cointegration panel ``z`` (its
    targets' block when ``block``), mapped back to residual levels."""
    z = ctx.coint_panel()
    fc = path(ctx, z[:, ctx.targets] if block else z)
    return _at_horizons(ctx, [(ti, ctx.coint_invert(ti, fc[:, k]))
                              for k, ti in enumerate(ctx.targets)])


def _ml_path(ctx: _Window, zb: np.ndarray) -> np.ndarray:
    model = johansen_ml(zb, None, select_lag_bic(zb, p_max=ctx.cfg.p_max))
    return vecm_iterated_forecast(model, zb, _max_h(ctx))


def _qr_vecm_path(ctx: _Window, zb: np.ndarray) -> np.ndarray:
    return vecm_iterated_forecast(qr_vecm(zb, p=1), zb, _max_h(ctx))


def _pml_path(ctx: _Window, zb: np.ndarray) -> np.ndarray:
    sd = column_scales(zb)
    zs = zb / sd
    model = pml_vecm(zs, None, p=1, lambdas=(0.1, 0.1))
    return vecm_iterated_forecast(model, zs, _max_h(ctx)) * sd


def _fecm_path(ctx: _Window, z: np.ndarray) -> np.ndarray:
    return fecm_forecast(z, targets=list(ctx.targets), r_ns=ctx.cfg.factors,
                         r_s=0, h=_max_h(ctx), det="none",
                         p_max=ctx.cfg.p_max)


def _ndfm_path(ctx: _Window, z: np.ndarray) -> np.ndarray:
    return ndfm_forecast(z, k=ctx.cfg.factors, h=_max_h(ctx),
                         p_max=ctx.cfg.p_max)[:, ctx.targets]


def _single_eq(ctx: _Window, specs: bool, augment: bool = False
               ) -> Dict[Tuple[int, int], float]:
    """SPECS (``specs``) or PADL per target and horizon, on the window or,
    when ``augment``, on the target and ``cfg.factors`` factors."""
    out = {}
    for ti in ctx.targets:
        d = int(ctx.orders[ti])
        if specs and d > 1:
            raise DataError("the selector models at most I(1) targets")
        for h in ctx.horizons:
            resid, det = ctx.now_parts(ti) if h == 0 else (
                ctx.resid, ctx.deterministic(ti, h))
            if augment:
                # a nowcast value must stay hidden, so at h = 0 the factor
                # space comes from the other series only
                src = np.delete(resid, int(ti), axis=1) if h == 0 else resid
                fac = extract_factors_diff(src, ctx.cfg.factors).factors
                z, pos = np.column_stack([resid[:, int(ti)], fac]), 0
                orders = np.concatenate([[d], np.ones(ctx.cfg.factors,
                                                      dtype=int)])
            else:
                z, pos, orders = resid, int(ti), ctx.orders
            if specs:   # factors and an I(0)/I(1) target stay in levels
                fit = specs_fit(z if augment else ctx.coint_panel(z), pos,
                                p=ctx.cfg.p_max, h=h)
            else:
                fit = padl_fit(z, pos, orders, p=ctx.cfg.p_max, h=h)
            out[(ti, h)] = fit.forecast + det
    return out


@dataclass(frozen=True)
class Lane:
    """One forecasting method: ``forecast(window)`` gives {(target index,
    horizon): level forecast}; ``nowcasts``: a single equation that also
    fits h = 0; ``factors``: it extracts ``cfg.factors`` factors, from the
    N - 1 other series when it also nowcasts."""

    forecast: Callable[[_Window], Dict[Tuple[int, int], float]]
    nowcasts: bool = False
    factors: bool = False


_LANES: Dict[str, Lane] = {
    "ar": Lane(_ar, nowcasts=True),
    "var": Lane(partial(_stationary_system, augment=False)),
    "favar": Lane(partial(_stationary_system, augment=True), factors=True),
    "ml": Lane(partial(_cointegrated, path=_ml_path)),
    "qr_vecm": Lane(partial(_cointegrated, path=_qr_vecm_path)),
    "pml": Lane(partial(_cointegrated, path=_pml_path)),
    "fecm": Lane(partial(_cointegrated, path=_fecm_path, block=False),
                 factors=True),
    "ndfm": Lane(partial(_cointegrated, path=_ndfm_path, block=False),
                 factors=True),
    "specs": Lane(partial(_single_eq, specs=True), nowcasts=True),
    "fa_specs": Lane(partial(_single_eq, specs=True, augment=True),
                     nowcasts=True, factors=True),
    "padl": Lane(partial(_single_eq, specs=False), nowcasts=True),
    "fapadl": Lane(partial(_single_eq, specs=False, augment=True),
                   nowcasts=True, factors=True),
}

SINGLE_EQUATION_METHODS = tuple(m for m in _LANES if _LANES[m].nowcasts)

# run_rolling dispatches through this copy: the benchmark's tracer wraps it
_REGISTRY = {m: lane.forecast for m, lane in _LANES.items()}


def register_method(name: str, fn: Callable) -> None:
    """Add or replace a forecasting method in the harness's lane table.

    ``fn(window)`` receives the isolated window context and returns a
    mapping {(target index, horizon): level forecast}.  Its record
    ``Lane(fn)`` neither nowcasts nor extracts factors.
    """
    _LANES[name] = Lane(fn)
    _REGISTRY[name] = fn


@dataclass(frozen=True)
class HarnessConfig:
    """Evaluation design: window, horizons, targets, methods, seeds."""

    window: int = 120
    horizons: Tuple[int, ...] = (1,)
    targets: Optional[Tuple[Union[int, str], ...]] = None
    #: the table's first two lanes: the autoregressive benchmark and a VAR
    methods: Tuple[str, ...] = tuple(_LANES)[:2]
    benchmark: str = methods[0]
    orders: Optional[Tuple[int, ...]] = None
    mcs_level: float = 0.10
    gamma: float = 0.85
    boot_reps: int = 999
    seed: int = 0
    factors: int = 4
    p_max: int = 3

    def __post_init__(self):
        if self.window < 60:
            raise ParameterError("evaluation window must hold at least 60 "
                                 "observations")
        if not self.horizons:
            raise ParameterError("at least one horizon is required")
        if any(h < 0 or h > 24 for h in self.horizons):
            raise ParameterError("horizons must lie in 0..24")
        if len(set(self.methods)) < len(self.methods):
            raise ParameterError(f"methods {self.methods} repeat a name")
        if self.benchmark not in self.methods:
            raise ParameterError(
                f"benchmark '{self.benchmark}' missing from methods")
        if self.p_max < 0:
            raise ParameterError("p_max must be non-negative")
        if self.factors < 0:
            raise ParameterError("factor count must be non-negative")
        if not 0 < self.mcs_level < 1:
            raise ParameterError("the MCS level --alpha must lie in (0, 1)")
        check_multiplier(self.boot_reps, self.gamma)


# -- model confidence sets ---------------------------------------------------


@dataclass(frozen=True)
class McsResult:
    """Surviving methods with elimination-order p-values."""

    names: Tuple[str, ...]
    pvalues: Dict[str, float]
    members: Tuple[str, ...]
    eliminated: Tuple[str, ...]
    alpha: float

    def __contains__(self, name: str) -> bool:
        return name in self.members


def mcs(losses, alpha: float = 0.10, gamma: float = 0.85, reps: int = 999,
        seed: int = 0, names: Optional[Sequence[str]] = None) -> McsResult:
    """Model confidence set by iterated elimination on loss differentials.

    Means of pairwise loss differentials are bootstrapped with the
    autoregressive wild multiplier; the equivalence statistic is the
    largest |t| over pairs, the worst sample-mean method is eliminated
    while the hypothesis rejects, and running-max p-values make the
    member set monotone in the level.
    """
    L = np.asarray(losses, dtype=float)
    if L.ndim != 2 or L.shape[1] < 2:
        raise ParameterError("loss matrix must hold at least two methods")
    if not np.isfinite(L).all():
        raise DataError("loss matrix contains non-finite entries")
    n, K = L.shape
    if n < 30:
        raise DataError("model confidence sets need at least 30 joint "
                        "loss observations")
    names = tuple(names) if names is not None else tuple(
        f"m{i + 1}" for i in range(K))
    if len(names) != K:
        raise ParameterError("one name per loss column is required")
    if len(set(names)) < K:
        raise ParameterError(f"method names {names} repeat a name")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie strictly inside (0, 1)")
    check_multiplier(reps, gamma)
    return _eliminate(L, _multiplier_matrix(reps, n, gamma, seed), alpha,
                      names)


def _eliminate(L: np.ndarray, xi: np.ndarray, alpha: float,
               names: Tuple[str, ...]) -> McsResult:
    """The elimination rounds of :func:`mcs` on multipliers ``xi``
    (replications by the rows of ``L``).

    A pair's differential, bootstrap and t-statistics do not depend on
    which other methods are still active, so they are formed once for
    all K(K-1)/2 pairs, and each round takes its maxima over the pairs
    whose two methods are both active.
    """
    n, K = L.shape
    means = L.mean(axis=0)
    first, second = np.triu_indices(K, 1)
    D = L[:, first] - L[:, second]
    dbar = D.mean(axis=0)
    boot = xi @ (D - dbar) / n
    se = boot.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_obs = np.where(se > 0, np.abs(dbar) / se,
                         np.where(dbar == 0, 0.0, np.inf))
        t_boot = np.abs(np.where(se > 0, boot / se, 0.0))
    active = np.ones(K, dtype=bool)
    pvalues: Dict[str, float] = {}
    eliminated: List[str] = []
    running = 0.0
    while active.sum() > 1:
        live = active[first] & active[second]
        T_obs = float(np.max(t_obs[live]))
        T_boot = t_boot[:, live].max(axis=1)
        p_round = 1.0 if T_obs == 0 else float(np.mean(T_boot >= T_obs))
        running = max(running, p_round)
        left = np.flatnonzero(active)
        worst = int(left[np.argmax(means[left])])
        pvalues[names[worst]] = running
        eliminated.append(names[worst])
        active[worst] = False
    pvalues[names[int(np.flatnonzero(active)[0])]] = 1.0
    members = tuple(nm for nm in names if pvalues[nm] >= alpha)
    return McsResult(names, pvalues, members, tuple(eliminated), alpha)


# -- report ------------------------------------------------------------------


@dataclass(frozen=True)
class ForecastReport:
    """Losses, forecasts, relative MSFEs and member sets per target/horizon."""

    targets: Tuple[str, ...]
    horizons: Tuple[int, ...]
    methods: Tuple[str, ...]
    benchmark: str
    window: int
    window_starts: Tuple[int, ...]
    forecasts: Dict[Tuple[str, int], np.ndarray]
    losses: Dict[Tuple[str, int], np.ndarray]
    rel_msfe: Dict[Tuple[str, int], Dict[str, Optional[float]]]
    mcs_members: Dict[Tuple[str, int], Optional[Tuple[str, ...]]]
    mcs_pvalues: Dict[Tuple[str, int], Optional[Dict[str, float]]]
    diagnostics: Tuple[Tuple[int, str, int, str, str], ...]
    seed: int

    def to_dict(self) -> dict:
        results = []
        for tgt in self.targets:
            for h in self.horizons:
                key = (tgt, h)
                members = self.mcs_members[key]
                results.append({
                    "target": tgt,
                    "horizon": h,
                    "methods": {
                        m: {
                            "rel_msfe": self.rel_msfe[key][m],
                            "in_mcs": (None if members is None
                                       else m in members),
                            "mcs_pvalue": (None if self.mcs_pvalues[key] is None
                                           else self.mcs_pvalues[key].get(m)),
                        } for m in self.methods},
                })
        return {
            "window": self.window,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "n_windows": len(self.window_starts),
            "results": results,
            "diagnostics": [list(d) for d in self.diagnostics],
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target", "horizon", "method", "rel_msfe",
                             "in_mcs"])
            for tgt in self.targets:
                for h in self.horizons:
                    key = (tgt, h)
                    members = self.mcs_members[key]
                    for m in self.methods:
                        val = self.rel_msfe[key][m]
                        writer.writerow([
                            tgt, h, m,
                            "" if val is None else repr(val),
                            "" if members is None else int(m in members)])


def _relative_msfe(losses: np.ndarray, methods: Tuple[str, ...],
                   benchmark: str) -> Dict[str, Optional[float]]:
    b = methods.index(benchmark)
    out: Dict[str, Optional[float]] = {}
    for m, name in enumerate(methods):
        both = np.isfinite(losses[:, m]) & np.isfinite(losses[:, b])
        if not both.any():
            out[name] = None
        elif m == b:
            out[name] = 1.0
        else:
            denom = losses[both, b].mean()
            out[name] = float(losses[both, m].mean() / denom) \
                if denom > 0 else None
    return out


def run_rolling(data, cfg: HarnessConfig) -> ForecastReport:
    """Roll the evaluation window over the panel and score every method.

    Windows are scored only where all horizons can be evaluated, so the
    loss matrices are aligned across horizons.  Method failures inside a
    window are recorded as diagnostics and missing losses, never raised;
    a factor count above N (N - 1 with a factor-augmented single
    equation) raises :class:`ParameterError` before the first window.
    """
    z, names, targets = resolve_targets(data, cfg.targets)
    T, N = z.shape
    unknown = [m for m in cfg.methods if m not in _LANES]
    if unknown:
        raise ParameterError(
            f"unknown methods {unknown}; available: {sorted(_LANES)}")
    orders = validate_orders([1] * N if cfg.orders is None else cfg.orders, N)
    factor_lanes = sorted(m for m in cfg.methods if _LANES[m].factors)
    # N factors span the target itself, which leaves a factor-augmented
    # single equation collinear (and a nowcast has only N - 1 series)
    most = N - 1 if any(_LANES[m].nowcasts for m in factor_lanes) else N
    if factor_lanes and cfg.factors > most:
        raise ParameterError(
            f"{cfg.factors} factors exceed the {most} that "
            f"{', '.join(factor_lanes)} can use on {N} series")
    h_max = max(cfg.horizons)
    last_start = T - cfg.window - h_max
    if last_start < 0:
        raise DataError(
            f"need at least window+h_max = {cfg.window + h_max} rows, "
            f"got {T}")
    starts = tuple(range(0, last_start + 1))
    n_win, n_meth = len(starts), len(cfg.methods)

    forecasts = {(names[ti], h): np.full((n_win, n_meth), np.nan)
                 for ti in targets for h in cfg.horizons}
    diagnostics: List[Tuple[int, str, int, str, str]] = []

    for w, s in enumerate(starts):
        ctx = _Window(z[s:s + cfg.window].copy(), targets, cfg.horizons,
                      orders, cfg, s)
        for m, meth in enumerate(cfg.methods):
            nowcasts = _LANES[meth].nowcasts
            if 0 in cfg.horizons and not nowcasts:
                if w == 0:
                    diagnostics.append((s, "*", 0, meth,
                                        "h=0 needs a single-equation method"))
                if all(h == 0 for h in cfg.horizons):
                    continue
            try:
                fc = _REGISTRY[meth](ctx)
            except (ToolkitError, np.linalg.LinAlgError) as exc:
                diagnostics.append((s, "*", -1, meth, str(exc)))
                continue
            for ti in targets:
                for h in cfg.horizons:
                    val = fc.get((int(ti), h)) if h or nowcasts else None
                    if val is not None and np.isfinite(val):
                        forecasts[(names[ti], h)][w, m] = val

    losses = {}
    rel = {}
    members = {}
    pvals = {}
    xi = None
    for ti in targets:
        for h in cfg.horizons:
            key = (names[ti], h)
            truth = np.array([z[s + cfg.window - 1 + h, ti] for s in starts])
            loss = (forecasts[key] - truth[:, None]) ** 2
            losses[key] = loss
            rel[key] = _relative_msfe(loss, cfg.methods, cfg.benchmark)
            ok = np.isfinite(loss).all(axis=1)
            n_ok = int(ok.sum())
            if n_meth >= 2 and n_ok >= 30:
                if xi is None:
                    # every key shares reps, gamma and seed, and each
                    # multiplier path is causal, so its first n_ok
                    # columns equal a fresh draw over n_ok windows
                    xi = _multiplier_matrix(cfg.boot_reps, n_win, cfg.gamma,
                                            cfg.seed)
                res = _eliminate(loss[ok], np.ascontiguousarray(xi[:, :n_ok]),
                                 cfg.mcs_level, cfg.methods)
                members[key] = res.members
                pvals[key] = res.pvalues
            else:
                members[key] = None
                pvals[key] = None

    return ForecastReport(
        targets=tuple(names[ti] for ti in targets),
        horizons=tuple(cfg.horizons), methods=tuple(cfg.methods),
        benchmark=cfg.benchmark, window=cfg.window, window_starts=starts,
        forecasts=forecasts, losses=losses, rel_msfe=rel,
        mcs_members=members, mcs_pvalues=pvals,
        diagnostics=tuple(diagnostics), seed=cfg.seed)
