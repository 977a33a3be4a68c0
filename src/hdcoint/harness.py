"""Rolling-window forecast evaluation and model confidence sets.

The run takes its windows in blocks, each one :class:`_Block` of their
values and residuals side by side, with the run's settings held once.  Each
window is detrended alone, and at h = 0 each target without its final value;
every method sees only its observations, forecasts are mapped back to levels
by adding its own deterministic extrapolation, and squared level errors feed
relative MSFEs against an autoregressive benchmark.  Surviving-method sets
come from an elimination procedure on loss differentials bootstrapped with
the autoregressive wild multiplier.  Each forecasting method is one
:class:`Lane` record of one table: its body, whether it also nowcasts and
whether it extracts factors; the run's checks read the records.  Lanes
difference and integrate only through ``panel``'s one rule and its inverse;
an integration order outside {0, 1, 2} stops the run up front.

Every lane takes a block of ``_WINDOW_BLOCK`` windows and yields per
window, in order, its forecasts or the window error it raised (the one
rule of :mod:`errors`: :func:`attempt` and :func:`per_window`); the run
records them window by window, in the order of the lane table, whatever
the block size.  The single equations and registered lanes are
one-window bodies that :func:`per_window` calls on each window, in this
process.  Every other built-in lane is one stacked body: it fits the
block's stack of inputs in one call (the stack contract of
:func:`panel.as_stack`) and finishes each window's result, integrating a
target's path back to levels.  The AR lane makes one autoregression call
per integration order (and per order at h = 0), the VAR lanes one for
the systems, and the five cointegration lanes one lag choice and one
Johansen-family fit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import check_level, column_scales, key_positions
from .bootstrap import _multiplier_matrix, check_multiplier
from .errors import (WINDOW_ERRORS, DataError, ParameterError, attempt,
                     per_window)
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


# -- window blocks -----------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """Windows in order: their values and residuals on [1, t] (W, T, N),
    trend coefficients (W, 2, N), starts and, at h = 0, each target's now
    column (W, T, K) and deterministic value (W, K), all read-only, with the
    run's config, targets and orders once.  ``block[w]`` is window w alone."""

    values: np.ndarray
    resid: np.ndarray
    trend_coef: np.ndarray
    now_resid: np.ndarray
    now_det: np.ndarray
    window_start: Union[Tuple[int, ...], int]
    targets: np.ndarray
    orders: np.ndarray
    cfg: HarnessConfig

    @classmethod
    def build(cls, z: np.ndarray, starts: Sequence[int], targets: np.ndarray,
              orders: np.ndarray, cfg: HarnessConfig) -> _Block:
        """The ``cfg.window``-row windows of ``z`` at ``starts``, each window
        and h = 0 target column detrended alone (side by side, bits move)."""
        n, now = cfg.window, targets if 0 in cfg.horizons else targets[:0]
        values = np.empty((len(starts), n, z.shape[1]))
        resid = np.empty_like(values)
        coef = np.empty((len(starts), 2, z.shape[1]))
        now_resid = np.empty((len(starts), n, now.size))
        now_det = np.empty((len(starts), now.size))
        trend = DeterministicSpec.TREND.design(n)
        for w, s in enumerate(starts):
            values[w] = z[s:s + n]
            resid[w], coef[w] = detrend(values[w])
            for k, ti in enumerate(now):
                c = detrend(values[w, :-1, ti])[1]
                now_resid[w, :, k] = values[w, :, ti] - trend @ c
                now_det[w, k] = c[0] + c[1] * n
        for a in (values, resid, coef, now_resid, now_det):
            a.flags.writeable = False
        return cls(values, resid, coef, now_resid, now_det, tuple(starts),
                   targets, orders, cfg)

    def __getitem__(self, w: int) -> _Block:
        return replace(self, values=self.values[w], resid=self.resid[w],
                       trend_coef=self.trend_coef[w],
                       now_resid=self.now_resid[w], now_det=self.now_det[w],
                       window_start=self.window_start[w])

    @property
    def n_obs(self) -> int:
        return self.values.shape[-2]

    @property
    def horizons(self) -> Tuple[int, ...]:
        return self.cfg.horizons

    def deterministic(self, j: int, h: int) -> float:
        a, b = self.trend_coef[:, j]
        return float(a + b * (self.n_obs + h))

    def now_parts(self, ti: int) -> Tuple[np.ndarray, float]:
        """A window's residual panel and deterministic value at h = 0 for
        a target ``ti`` of a run with h = 0, built once: its column is
        detrended without the final observation, which no estimate sees."""
        k = list(self.targets).index(ti)
        panel = self.resid.copy()
        panel[:, ti] = self.now_resid[:, k]
        return panel, float(self.now_det[k])

    def coint_panel(self, resid: Optional[np.ndarray] = None) -> np.ndarray:
        """Levels for the cointegration lanes, of the block or of a window
        (``resid`` in place of its own): I(2) columns differenced once."""
        r = self.resid if resid is None else resid
        if (self.orders < 2).all():
            return r
        return difference_columns(r, self.orders == 2)[..., 1:, :]


def _at_horizons(ctx: _Block, levels) -> Dict[Tuple[int, int], float]:
    """A window's level forecasts {(target, h): value} for every h >= 1
    from (target, residual-level path) pairs."""
    return {(ti, h): lev[h - 1] + ctx.deterministic(ti, h)
            for ti, lev in levels for h in ctx.horizons if h >= 1}


# -- lanes -------------------------------------------------------------------
# A lane body looks its estimators up by module-global name when it runs, so
# a wrapper installed on that name sees every call.


def _stacked(block: _Block, prepare: Callable, fit: Callable,
             finish: Callable) -> list:
    """The stacked lanes' one body.  ``prepare(block)`` gives the stack of
    the windows' inputs, ``fit(block, stack)`` fits it in one call and
    gives per window a result or its error, and ``finish(result, window)``
    maps a window's result to its forecasts.  A window error of ``fit`` or
    ``finish`` fails its window alone; one that ``prepare`` or ``fit``
    raises for the whole stack fails each of its windows.  On the finite
    windows ``run_rolling`` admits, a prepare step raises for all alike
    or none (the factor-augmented VAR's factor count above its rows)."""
    results = attempt(lambda: fit(block, prepare(block)))
    if isinstance(results, WINDOW_ERRORS):
        results = [results] * len(block.window_start)
    return per_window(finish, results, block)


def _ar_paths(block: _Block, resid: np.ndarray) -> list:
    """The AR lane's fit: per window, (target, residual-level path) pairs
    of the residuals ``resid`` for h >= 1 and {(target, 0): nowcast} one
    step ahead of the now columns; per order, one :func:`_ar_levels` call
    on the block for each."""
    paths: list = [([], {}) for _ in resid]
    orders, p_max = block.orders[block.targets], block.cfg.p_max
    for d, on in key_positions(orders.tolist()).items():
        tis = block.targets[on]
        if max(block.horizons):
            lev = _ar_levels(np.hstack(resid[:, :, tis]), d, p_max,
                             max(block.horizons))
            for w, part in enumerate(np.hsplit(lev, len(resid))):
                paths[w][0].extend(zip(tis, part.T))
        if 0 in block.horizons:
            lev = _ar_levels(np.hstack(block.now_resid[:, :-1, on]), d,
                             p_max, 1)[0] + block.now_det[:, on].ravel()
            for w, part in enumerate(np.split(lev, len(resid))):
                paths[w][1].update(zip([(ti, 0) for ti in tis], part))
    return paths


def _ar_forecasts(paths: tuple, ctx: _Block) -> Dict[Tuple[int, int], float]:
    return {**_at_horizons(ctx, paths[0]), **paths[1]}


def _target_levels(path: np.ndarray, ctx: _Block,
                   d: np.ndarray) -> Dict[Tuple[int, int], float]:
    """The system lanes' one finish step: a window's forecasts from its
    targets' path, column k of ``path`` integrated back to residual levels
    ``d[target]`` times."""
    return _at_horizons(ctx, [(ti, invert_differences(
        ctx.resid[:, ti], path[:, k], int(d[ti])))
        for k, ti in enumerate(ctx.targets)])


def _stationary_system(block: _Block, augment: bool) -> list:
    """The VAR / factor-augmented VAR lane on transformed residuals: one
    :func:`var_bic_forecast` call on the block's stack of systems, whose
    paths are integrated back each target's order."""
    return _stacked(block, partial(_system_input, augment=augment),
                    _system_paths, partial(_target_levels, d=block.orders))


def _system_input(block: _Block, augment: bool) -> np.ndarray:
    """The VAR / factor-augmented VAR systems of a block: each window's
    targets' transformed residuals, with ``cfg.factors`` principal
    components of all its series when ``augment``."""
    d = block.orders[block.targets]
    x = difference_columns(block.resid[..., block.targets], d)[:, d.max():]
    if augment:
        full = difference_columns(block.resid, block.orders)
        full = full[:, block.orders.max():]
        fac = [pca_factors(f / column_scales(f), block.cfg.factors).factors
               for f in full]
        x = np.concatenate([x[:, -full.shape[1]:], np.stack(fac)], axis=2)
    return x


def _system_paths(block: _Block, x: np.ndarray) -> np.ndarray:
    return var_bic_forecast(x, max(block.horizons), block.cfg.p_max, p_min=1)


def _cointegrated(block: _Block, path: Callable,
                  targets_only: bool = True) -> list:
    """The cointegration lanes' one body: ``path(block, zs)`` forecasts the
    targets from the stack ``zs`` of the windows' cointegration panels
    (their targets' columns when ``targets_only``) in one call, and an
    I(2) target's path, of its differences, is integrated back once."""
    cols = block.targets if targets_only else slice(None)
    return _stacked(block, lambda b: b.coint_panel()[..., cols], path,
                    partial(_target_levels, d=block.orders == 2))


def _ml_paths(block: _Block, zs: np.ndarray) -> list:
    models = johansen_ml(zs, None, select_lag_bic(zs, p_max=block.cfg.p_max))
    return per_window(partial(vecm_iterated_forecast, h=max(block.horizons)),
                      models, zs)


def _qr_vecm_paths(block: _Block, zs: np.ndarray) -> list:
    return per_window(partial(vecm_iterated_forecast, h=max(block.horizons)),
                      qr_vecm(zs, p=1), zs)


def _pml_paths(block: _Block, zs: np.ndarray) -> list:
    sd = np.stack([column_scales(zb) for zb in zs])[:, None]
    scaled = zs / sd
    models = pml_vecm(scaled, None, p=1, lambdas=(0.1, 0.1))
    return per_window(lambda model, z, s: vecm_iterated_forecast(
        model, z, max(block.horizons)) * s, models, scaled, sd)


def _fecm_paths(block: _Block, zs: np.ndarray) -> list:
    return fecm_forecast(zs, targets=list(block.targets),
                         r_ns=block.cfg.factors, h=max(block.horizons),
                         p_max=block.cfg.p_max)


def _ndfm_paths(block: _Block, zs: np.ndarray) -> list:
    fcs = ndfm_forecast(zs, k=block.cfg.factors, h=max(block.horizons),
                        p_max=block.cfg.p_max)
    return per_window(lambda fc: fc[:, block.targets], fcs)


def _single_eq(ctx: _Block, specs: bool, augment: bool = False
               ) -> Dict[Tuple[int, int], float]:
    """SPECS (``specs``) or PADL per target and horizon, on the window or,
    when ``augment``, on the target and ``cfg.factors`` factors."""
    out, facs = {}, {}
    for ti in ctx.targets:
        d = int(ctx.orders[ti])
        if specs and d > 1:
            raise DataError("the selector models at most I(1) targets")
        for h in ctx.horizons:
            resid, det = ctx.now_parts(ti) if h == 0 else (
                ctx.resid, ctx.deterministic(ti, h))
            if augment:
                # a nowcast value must stay hidden, so at h = 0 the factor
                # space comes from the other series only; every h >= 1
                # shares the window's one extraction
                key = int(ti) if h == 0 else None
                if key not in facs:
                    src = resid if key is None else np.delete(resid, key, 1)
                    facs[key] = extract_factors_diff(
                        src, ctx.cfg.factors).factors
                z, pos = np.column_stack([resid[:, int(ti)], facs[key]]), 0
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
    """One forecasting method.  ``forecast(block)`` takes a :class:`_Block`
    and gives per window, in order, its {(target index, horizon): level
    forecast} or the window error it raised; ``nowcasts``: a single
    equation that also fits h = 0; ``factors``: it extracts
    ``cfg.factors`` factors, from the N - 1 other series when it also
    nowcasts; ``with_targets``: those factors join the targets in one
    system, so the targets and factors together may not outnumber the N
    series that span them.  The single equations are one-window bodies
    that :func:`per_window` calls window by window; every other built-in
    lane is one :func:`_stacked` body."""

    forecast: Callable
    nowcasts: bool = False
    factors: bool = False
    with_targets: bool = False


_LANES: Dict[str, Lane] = {
    "ar": Lane(partial(_stacked, prepare=attrgetter("resid"), fit=_ar_paths,
                       finish=_ar_forecasts), nowcasts=True),
    "var": Lane(partial(_stationary_system, augment=False)),
    "favar": Lane(partial(_stationary_system, augment=True), factors=True),
    "ml": Lane(partial(_cointegrated, path=_ml_paths)),
    "qr_vecm": Lane(partial(_cointegrated, path=_qr_vecm_paths)),
    "pml": Lane(partial(_cointegrated, path=_pml_paths)),
    "fecm": Lane(partial(_cointegrated, path=_fecm_paths, targets_only=False),
                 factors=True, with_targets=True),
    "ndfm": Lane(partial(_cointegrated, path=_ndfm_paths, targets_only=False),
                 factors=True),
    "specs": Lane(partial(per_window, partial(_single_eq, specs=True)),
                  nowcasts=True),
    "fa_specs": Lane(partial(per_window, partial(_single_eq, specs=True,
                                                 augment=True)),
                     nowcasts=True, factors=True),
    "padl": Lane(partial(per_window, partial(_single_eq, specs=False)),
                 nowcasts=True),
    "fapadl": Lane(partial(per_window, partial(_single_eq, specs=False,
                                               augment=True)),
                   nowcasts=True, factors=True),
}

SINGLE_EQUATION_METHODS = tuple(m for m in _LANES if _LANES[m].nowcasts)

# run_rolling dispatches through this copy: the benchmark's tracer wraps it
_REGISTRY = {m: lane.forecast for m, lane in _LANES.items()}

#: windows built and handed to each lane at a time: a stacked lane fits
#: them in one pass, and the block bounds the windows held in memory
_WINDOW_BLOCK = 32


def register_method(name: str, fn: Callable) -> None:
    """Add or replace a forecasting method in the harness's lane table.

    ``fn(window)`` receives one window of a block and returns a mapping
    {(target index, horizon): level forecast}.  The window's attributes are
    the lane contract: ``values`` and ``resid`` (T, N), ``window_start``,
    ``n_obs``, ``targets``, ``orders``, ``horizons``, ``cfg``,
    ``deterministic(j, h)`` and, for the targets of a run with h = 0,
    ``now_parts(ti)``.  ``Lane(partial(per_window, fn))`` neither nowcasts
    (the run drops its h = 0 values) nor extracts factors; it calls ``fn``
    on each window of a block, in order, in this process.  A
    :class:`ToolkitError` or ``LinAlgError`` fails only that window, as a
    diagnostic; any other error stops the run.
    """
    _LANES[name] = Lane(partial(per_window, fn))
    _REGISTRY[name] = _LANES[name].forecast


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
        check_level(self.mcs_level, "the MCS level --alpha")
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
    check_level(alpha)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target", "horizon", "method", "rel_msfe",
                             "in_mcs"])
            for row in self.to_dict()["results"]:
                for m, res in row["methods"].items():
                    val, member = res["rel_msfe"], res["in_mcs"]
                    writer.writerow([row["target"], row["horizon"], m,
                                     "" if val is None else repr(val),
                                     "" if member is None else int(member)])


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
    loss matrices are aligned across horizons.  Each lane is called on
    blocks of ``_WINDOW_BLOCK`` windows, and forecasts and diagnostics are
    recorded window by window, in method order, so the report does not
    depend on the block size.  Method failures inside a window are
    recorded as diagnostics and missing losses, never raised.  Before the
    first window, a panel with missing values raises :class:`DataError`,
    and a factor count above N (N - 1 with a factor-augmented single
    equation), or targets plus factors above N for a lane whose factors
    join the targets, raises :class:`ParameterError`.
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
    joint = [m for m in factor_lanes if _LANES[m].with_targets]
    if joint and cfg.factors and targets.size + cfg.factors > N:
        raise ParameterError(
            f"{targets.size} targets and {cfg.factors} factors exceed the {N} "
            f"series that span {', '.join(joint)}'s system; targets plus "
            f"factors must be at most {N}")
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

    for first in range(0, n_win, _WINDOW_BLOCK):
        block = _Block.build(z, starts[first:first + _WINDOW_BLOCK],
                             targets, orders, cfg)
        # a lane that cannot nowcast has nothing to do at h = 0 alone
        results = {meth: _REGISTRY[meth](block) for meth in cfg.methods
                   if _LANES[meth].nowcasts or any(cfg.horizons)}
        for w, s in enumerate(block.window_start, start=first):
            for m, meth in enumerate(cfg.methods):
                nowcasts = _LANES[meth].nowcasts
                if 0 in cfg.horizons and not nowcasts and w == 0:
                    diagnostics.append((s, "*", 0, meth,
                                        "h=0 needs a single-equation method"))
                if meth not in results:
                    continue
                fc = results[meth][w - first]
                if isinstance(fc, WINDOW_ERRORS):
                    diagnostics.append((s, "*", -1, meth, str(fc)))
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
