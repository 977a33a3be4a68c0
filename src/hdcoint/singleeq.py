"""Sparse single-equation estimators for cointegrated data.

The centerpiece is a sparse-group-lasso solver whose group block carries
the lagged levels of an error-correction equation: shrinking that block
to zero removes the long-run relation from the model, while adaptive
individual penalties prune every remaining coefficient.  The solver works
on the Gram matrix of the design, so its sweeps cost nothing per row.  On
top of it sit the error-correction selector (levels retained), its purely
differenced autoregressive counterpart, factor augmentation, and
expanding-window cross-validation for the penalty levels, in which each
fold warm-starts a candidate from its solution at the same individual
penalties (Friedman, Hastie & Tibshirani, 2010); the final fit at the
chosen penalties starts cold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ._numeric import soft_threshold
from .errors import ConvergenceError, DataError, ParameterError
from .factors import extract_factors_diff
from .panel import Panel, from_values, resolve_targets

__all__ = [
    "PenaltyConfig",
    "SingleEqDesign",
    "SingleEqFit",
    "sgl_solve",
    "kkt_residual",
    "specs_fit",
    "padl_fit",
    "factor_augment",
    "tscv_tune",
]

INITIALIZERS = ("ols", "ridge")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty levels, adaptive-weight exponents, and initializer choice.

    ``lam_group`` acts on the lagged-levels block as a whole,
    ``lam_levels`` and ``lam_w`` on individual coefficients of the levels
    and short-run blocks.  Weights are 1/|initial estimate|^exponent; an
    exactly zero initial estimate excludes its coefficient permanently.
    The "ols" initializer falls back to ridge whenever the design has at
    least as many columns as rows.
    """

    lam_group: float = 0.0
    lam_levels: float = 0.0
    lam_w: float = 0.0
    k_levels: float = 1.0
    k_w: float = 1.0
    initializer: str = "ols"
    max_sweeps: int = 10_000
    tol: float = 1e-6

    def __post_init__(self):
        if min(self.lam_group, self.lam_levels, self.lam_w) < 0:
            raise ParameterError("penalty levels must be nonnegative")
        if min(self.k_levels, self.k_w) < 0:
            raise ParameterError("weight exponents must be nonnegative")
        if self.initializer not in INITIALIZERS:
            raise ParameterError(
                f"initializer must be one of {INITIALIZERS}")


@dataclass(frozen=True)
class SingleEqDesign:
    """Aligned response, lagged-levels block and short-run block.

    ``levels`` holds the N lagged levels whose coefficients form the
    group; ``w`` holds the contemporaneous differences of the
    conditioning variables followed by lagged differences of everything.
    """

    target: str
    response: np.ndarray
    levels: np.ndarray
    w: np.ndarray
    level_labels: Tuple[str, ...]
    w_labels: Tuple[str, ...]

    def __post_init__(self):
        n = self.response.shape[0]
        if self.levels.shape[0] != n or self.w.shape[0] != n:
            raise ParameterError("design blocks have mismatched row counts")
        if self.levels.shape[1] != len(self.level_labels) \
                or self.w.shape[1] != len(self.w_labels):
            raise ParameterError("design labels do not match column counts")
        if not (np.isfinite(self.response).all()
                and np.isfinite(self.levels).all()
                and np.isfinite(self.w).all()):
            raise DataError("design contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.response.shape[0]


def _initial_estimates(X: np.ndarray, y: np.ndarray, tag: str
                       ) -> Tuple[np.ndarray, str]:
    """OLS when overdetermined, trace-scaled ridge otherwise."""
    n, m = X.shape
    if tag == "ols" and n > m:
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        return beta, "ols"
    kappa = 1e-2 * np.trace(X.T @ X) / max(m, 1)
    beta = np.linalg.solve(X.T @ X + max(kappa, 1e-12) * np.eye(m), X.T @ y)
    return beta, "ridge"


def _adaptive_weights(init: np.ndarray, exponent: float) -> np.ndarray:
    """1/|init|^k with exact zeros mapped to +inf (permanent exclusion)."""
    out = np.full(init.shape, np.inf)
    nz = init != 0
    out[nz] = 1.0 / np.abs(init[nz]) ** exponent
    return out


def _weights(X: np.ndarray, y: np.ndarray, nz: int, cfg: PenaltyConfig
             ) -> Tuple[np.ndarray, str]:
    """Adaptive weights of [levels, w] from the configured initializer."""
    init, tag = _initial_estimates(X, y, cfg.initializer)
    return np.concatenate([_adaptive_weights(init[:nz], cfg.k_levels),
                           _adaptive_weights(init[nz:], cfg.k_w)]), tag


def _l1_penalties(weights: np.ndarray, nz: int, cfg: PenaltyConfig
                  ) -> np.ndarray:
    """Per-coordinate L1 strength; +inf marks an excluded coordinate."""
    lam = np.full(weights.shape, cfg.lam_w)
    lam[:nz] = cfg.lam_levels
    pen = np.full(weights.shape, np.inf)
    fin = np.isfinite(weights)
    pen[fin] = lam[fin] * weights[fin]
    return pen


def kkt_residual(design: SingleEqDesign, cfg: PenaltyConfig,
                 delta: np.ndarray, pi: np.ndarray,
                 weights_levels: Optional[np.ndarray] = None,
                 weights_w: Optional[np.ndarray] = None) -> float:
    """Scale-free stationarity violation of a candidate solution.

    The raw violation (in gradient units) is divided by
    max(1, ||2 X'y||_inf); excluded coordinates (infinite weight) never
    violate.  Zero means an exact minimizer.
    """
    X = np.hstack([design.levels, design.w])
    y = design.response
    nz = design.levels.shape[1]
    if weights_levels is None or weights_w is None:
        weights, _ = _weights(X, y, nz, cfg)
    else:
        weights = np.concatenate([weights_levels, weights_w])
    theta = np.concatenate([delta, pi])
    raw, scale = _kkt(X.T @ (y - X @ theta), X.T @ y, theta, nz,
                      cfg.lam_group, _l1_penalties(weights, nz, cfg))
    return raw / scale


def _kkt(q: np.ndarray, c: np.ndarray, theta: np.ndarray, nz: int,
         lam_g: float, pen: np.ndarray) -> Tuple[float, float]:
    """Raw stationarity violation and its scale from q = X'e and c = X'y.

    The first ``nz`` coordinates form the group; ``pen`` holds each
    coordinate's L1 strength, +inf for excluded ones.
    """
    fin = np.isfinite(pen)
    g = 2.0 * q
    scale = max(1.0, np.max(np.abs(2.0 * c[fin]), initial=0.0))
    viol = 0.0
    check = fin.copy()
    delta = theta[:nz]
    if nz and not delta.any():
        grp = fin[:nz]
        slack = np.linalg.norm(soft_threshold(g[:nz][grp], pen[:nz][grp]))
        viol = max(0.0, slack - lam_g)
        check[:nz] = False
    elif nz:
        g[:nz] -= lam_g * delta / np.linalg.norm(delta)
    on = check & (theta != 0)
    off = check & (theta == 0)
    viol = max(viol, np.max(np.abs(g[on] - pen[on] * np.sign(theta[on])),
                            initial=0.0),
               np.max(np.abs(g[off]) - pen[off], initial=0.0))
    return viol, scale


def _newton_refine(G: np.ndarray, c: np.ndarray, theta: np.ndarray, nz: int,
                   lam_g: float, pen: np.ndarray) -> np.ndarray:
    """Newton refinement on the fixed support within its sign orthant.

    Works on the support's block of G = X'X and c = X'y; the objective is
    the quadratic form t'Gt - 2c't plus the penalties (||y||^2 dropped).
    """
    S = np.flatnonzero(theta)
    if not S.size:
        return theta
    kd = int(np.count_nonzero(S < nz))
    th = theta[S]
    signs = np.sign(th)
    GS = G[np.ix_(S, S)]
    cS = c[S]
    lin = pen[S] * signs
    group = kd and lam_g > 0

    def value(t):
        return float(t @ (GS @ t) - 2.0 * (cS @ t) + lin @ t
                     + lam_g * np.linalg.norm(t[:kd]))

    cur = value(th)
    for _ in range(40):
        grad = 2.0 * (GS @ th - cS) + lin
        H = 2.0 * GS
        if group:
            d = th[:kd]
            nrm = np.linalg.norm(d)
            grad[:kd] += lam_g * d / nrm
            H[:kd, :kd] += lam_g * (np.eye(kd) / nrm
                                    - np.outer(d, d) / nrm ** 3)
        if np.max(np.abs(grad)) < 1e-13 * max(1.0, 2.0 * np.max(np.abs(cS))):
            break
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, grad, rcond=None)
        # halving from t = 1 first enters the orthant at 2^-k, the largest
        # power of two below the distance to the nearest sign change
        toward = step * signs > 0
        limit = np.min(th[toward] / step[toward], initial=np.inf)
        k0 = 0 if limit > 1.0 else int(np.floor(-np.log2(limit))) + 1
        improved = False
        for k in range(k0, 25):
            cand = th - 0.5 ** k * step
            if np.all(np.sign(cand) * signs > 0):
                v = value(cand)
                if v <= cur:
                    th, cur, improved = cand, v, True
                    break
        if not improved:
            break
    out = theta.copy()
    out[S] = th
    return out


def sgl_solve(design: SingleEqDesign, cfg: PenaltyConfig,
              start: Optional[Tuple[np.ndarray, np.ndarray]] = None
              ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """Minimize the sparse-group-lasso objective over (delta, pi).

    Objective: ||y - Z delta - W pi||^2 + lam_group ||delta||_2
    + lam_levels sum_i w_i |delta_i| + lam_w sum_j w_j |pi_j|, with
    adaptive weights from the configured initializer.  The solver works
    in Gram form: G = X'X and c = X'y (X = [Z, W]) are formed once, and
    q = c - G theta is updated with one column of G per coordinate change,
    so a sweep costs O(p^2) whatever the row count.  Block coordinate
    descent (coordinate steps on pi, proximal-gradient steps with an exact
    group-zero test on delta) runs until the scale-free stationarity
    violation reported in the diagnostics drops below ``cfg.tol``; a
    Newton polish on the active set sharpens the finish.  ``start`` =
    (delta, pi) warm-starts the descent (excluded coordinates are forced
    to zero); by default it starts from zero.
    """
    Z, W, y = design.levels, design.w, design.response
    nz = Z.shape[1]
    X = np.hstack([Z, W])
    weights, tag = _weights(X, y, nz, cfg)
    pen = _l1_penalties(weights, nz, cfg)
    fin = np.isfinite(pen)
    G = X.T @ X
    c = X.T @ y
    theta = np.zeros(X.shape[1])
    if start is not None:
        theta[:] = np.concatenate(start)
        theta[~fin] = 0.0
    col_sq = np.diag(G)
    active_p = nz + np.flatnonzero(fin[nz:] & (col_sq[nz:] > 0))
    a = np.flatnonzero(fin[:nz])
    Gaa = G[np.ix_(a, a)]
    if a.size:
        lip = max(2.0 * float(np.linalg.eigvalsh(Gaa)[-1]), 1e-12)

    def current_kkt():
        q = c - G @ theta
        return q, *_kkt(q, c, theta, nz, cfg.lam_group, pen)

    sweeps = 0
    q, raw, scale = current_kkt()
    while raw / scale > cfg.tol:
        if sweeps >= cfg.max_sweeps:
            raise ConvergenceError(
                f"no convergence after {cfg.max_sweeps} sweeps; "
                f"KKT residual {raw / scale:.3e}")
        sweeps += 1
        for j in active_p:
            old = theta[j]
            new = soft_threshold(q[j] + col_sq[j] * old,
                                 pen[j] / 2.0) / col_sq[j]
            if new != old:
                q -= G[j] * (new - old)
                theta[j] = new
        if a.size:
            da = theta[a]
            b = q[a] + Gaa @ da
            slack = soft_threshold(2.0 * b, pen[a])
            if np.linalg.norm(slack) <= cfg.lam_group:
                new = np.zeros_like(da)
            else:
                new = da
                for _ in range(3):
                    v = new + (2.0 / lip) * (b - Gaa @ new)
                    st = soft_threshold(v, pen[a] / lip)
                    nrm = np.linalg.norm(st)
                    if nrm <= cfg.lam_group / lip:
                        new = np.zeros_like(da)
                        break
                    new = st * (1.0 - cfg.lam_group / (lip * nrm))
            theta[a] = new
        q, raw, scale = current_kkt()
        if sweeps % 5 == 0 or sweeps <= 2:
            polished = _newton_refine(G, c, theta, nz, cfg.lam_group, pen)
            q2 = c - G @ polished
            raw2, _ = _kkt(q2, c, polished, nz, cfg.lam_group, pen)
            if raw2 <= raw:
                theta, q, raw = polished, q2, raw2
    e = y - X @ theta
    objective = float(e @ e) + cfg.lam_group * np.linalg.norm(theta[:nz]) \
        + float(np.abs(theta[theta != 0]) @ pen[theta != 0])
    diagnostics = {"kkt": raw / scale, "sweeps": float(sweeps),
                   "objective": objective, "initializer": tag,
                   "scale": scale}
    return theta[:nz].copy(), theta[nz:].copy(), diagnostics


# -- design construction ----------------------------------------------------


def _diff_matrix(z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, np.nan)
    out[1:] = np.diff(z, axis=0)
    return out


@dataclass(frozen=True)
class _DesignParts:
    """Fit design plus the evaluation row and forecast anchor."""
    design: SingleEqDesign
    eval_levels: np.ndarray
    eval_w: np.ndarray
    anchor: float


def _build_specs_parts(z: np.ndarray, names: Tuple[str, ...], ti: int,
                       p: int, h: int, rows: np.ndarray) -> _DesignParts:
    T, N = z.shape
    dz = _diff_matrix(z)
    others = [j for j in range(N) if j != ti]

    def w_block(t_idx):
        cols = [dz[t_idx][:, others]]
        cols += [dz[t_idx - j] for j in range(1, p + 1)]
        return np.hstack(cols)

    if h >= 1:
        resp = z[rows + h, ti] - z[rows, ti]
        anchor = z[T - 1, ti]
    else:
        resp = z[rows, ti] - z[rows - 1, ti]
        anchor = z[T - 2, ti]
    levels = z[rows - 1]
    w = w_block(rows)
    w_labels = tuple(f"d.{names[j]}" for j in others) + tuple(
        f"d.{names[j]}.l{k}" for k in range(1, p + 1) for j in range(N))
    design = SingleEqDesign(names[ti], resp, levels, w, names, w_labels)
    t_e = np.array([T - 1])
    return _DesignParts(design, z[T - 2], w_block(t_e)[0], float(anchor))


def _specs_rows(T: int, p: int, h: int) -> np.ndarray:
    t0 = p + 1
    stop = T - 1 - h if h >= 1 else T - 2
    if stop - t0 + 1 < 10:
        raise DataError(
            f"window of {T} rows is too short for p={p}, h={h}")
    return np.arange(t0, stop + 1)


def specs_fit(data, target, p: int = 3, h: int = 1,
              lambda_grids=None, cfg: Optional[PenaltyConfig] = None,
              folds: int = 5) -> "SingleEqFit":
    """Error-correction selector with direct h-step (or h=0) forecasting.

    The response is y_{t+h} - y_t (at h=0 the one-step difference, so the
    last target value never enters the fit); regressors are all lagged
    levels plus the short-run block.  The penalty triple is tuned by
    expanding-window cross-validation and the forecast is assembled as
    anchor + fitted value at the final regressor row.
    """
    z, names, (ti,) = resolve_targets(data, [target])
    cfg = cfg or PenaltyConfig()
    rows = _specs_rows(z.shape[0], p, h)
    parts = _build_specs_parts(z, names, ti, p, h, rows)
    lam = _tune_triple(parts.design, lambda_grids, cfg, folds,
                       group_block=True)
    return _finish_fit(parts, replace(cfg, lam_group=lam[0],
                                      lam_levels=lam[1], lam_w=lam[2]),
                       method="specs", h=h, orders=None)


def _transform_columns(z: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    x = np.full_like(z, np.nan)
    for j, d in enumerate(orders):
        col = z[:, j]
        for _ in range(int(d)):
            col = np.concatenate([[np.nan], np.diff(col)])
        x[:, j] = col
    return x


def _orders_array(orders, names: Tuple[str, ...]) -> np.ndarray:
    """Accept an IntegrationReport-like object or a plain sequence."""
    if hasattr(orders, "order_of"):
        return np.array([int(orders.order_of(n)) for n in names])
    arr = np.asarray(list(orders), dtype=int)
    if arr.shape != (len(names),):
        raise ParameterError("orders must give one value per series")
    if arr.min() < 0 or arr.max() > 2:
        raise ParameterError("integration orders must lie in {0, 1, 2}")
    return arr


def _build_padl_parts(z: np.ndarray, names: Tuple[str, ...], ti: int,
                      orders: np.ndarray, p: int, h: int) -> _DesignParts:
    T, N = z.shape
    x = _transform_columns(z, orders)
    d_t = int(orders[ti])
    others = [j for j in range(N) if j != ti]
    t0 = int(orders.max()) + p
    t0 = max(t0, d_t + 1)
    stop = T - 1 - h if h >= 1 else T - 2
    if stop - t0 + 1 < 10:
        raise DataError(f"window of {T} rows is too short for p={p}, h={h}")
    rows = np.arange(t0, stop + 1)

    def w_block(t_idx):
        cols = [x[t_idx][:, others]]
        cols += [x[t_idx - j] for j in range(1, p + 1)]
        return np.hstack(cols)

    if h >= 1:
        if d_t == 0:
            resp = z[rows + h, ti]
            anchor = 0.0
        elif d_t == 1:
            resp = z[rows + h, ti] - z[rows, ti]
            anchor = z[T - 1, ti]
        else:
            resp = z[rows + h, ti] - z[rows, ti] - (z[rows, ti]
                                                    - z[rows - 1, ti])
            anchor = 2.0 * z[T - 1, ti] - z[T - 2, ti]
    else:
        resp = x[rows, ti]
        if d_t == 0:
            anchor = 0.0
        elif d_t == 1:
            anchor = z[T - 2, ti]
        else:
            anchor = 2.0 * z[T - 2, ti] - z[T - 3, ti]
    pre = tuple(f"t.{names[j]}" for j in others)
    lagged = tuple(f"t.{names[j]}.l{k}"
                   for k in range(1, p + 1) for j in range(N))
    w = w_block(rows)
    design = SingleEqDesign(names[ti], resp, np.empty((rows.shape[0], 0)),
                            w, (), pre + lagged)
    t_e = np.array([T - 1])
    return _DesignParts(design, np.empty(0), w_block(t_e)[0], float(anchor))


def padl_fit(data, target, orders, p: int = 3, h: int = 1,
             lambda_grid=None, cfg: Optional[PenaltyConfig] = None,
             folds: int = 5) -> "SingleEqFit":
    """Adaptive-lasso distributed-lag fit on stationarity-transformed data.

    Every series is differenced down to I(0) according to ``orders``;
    the response depends on the target's own order (level for I(0),
    h-step difference for I(1), additionally dropping one lagged
    difference for I(2)) and forecasts invert that definition.  There is
    no levels block: this is the sparse selector with the long-run group
    forced to zero.
    """
    z, names, (ti,) = resolve_targets(data, [target])
    cfg = cfg or PenaltyConfig()
    orders = _orders_array(orders, names)
    parts = _build_padl_parts(z, names, ti, orders, p, h)
    lam = _tune_triple(parts.design, lambda_grid, cfg, folds,
                       group_block=False)
    return _finish_fit(parts, replace(cfg, lam_group=0.0, lam_levels=0.0,
                                      lam_w=lam[2]),
                       method="padl", h=h, orders=tuple(int(d) for d in orders))


# -- tuning ------------------------------------------------------------------


def tscv_tune(builder: Callable, grid: Sequence, n_rows: int,
              folds: int = 5, first: Optional[int] = None):
    """Expanding-window cross-validation over a penalty grid.

    ``builder(stop)`` must return a scorer ``f(candidate, rows) ->
    squared errors`` trained on design rows [0, stop).  Validation blocks
    partition [first, n_rows); every training segment strictly precedes
    its validation block.  Mean pooled loss decides; ties go to the later
    grid entry, so grids should ascend in penalty strength.
    """
    grid = list(grid)
    if not grid:
        raise ParameterError("empty tuning grid")
    if len(grid) == 1:
        return grid[0]
    if folds < 2:
        raise ParameterError("cross-validation needs at least two folds")
    if first is None:
        first = max(10, n_rows // 2)
    first = min(max(first, 2), n_rows - 1)
    edges = np.linspace(first, n_rows, folds + 1).astype(int)
    losses = np.zeros(len(grid))
    counts = 0
    for f in range(folds):
        lo, hi = int(edges[f]), int(edges[f + 1])
        if hi <= lo:
            continue
        scorer = builder(lo)
        rows = np.arange(lo, hi)
        counts += rows.shape[0]
        for g, cand in enumerate(grid):
            losses[g] += float(np.sum(scorer(cand, rows)))
    if counts == 0:
        raise DataError("no validation rows available")
    best, best_loss = 0, np.inf
    for g, loss in enumerate(losses):
        if loss <= best_loss:
            best, best_loss = g, loss
    return grid[best]


def _grid_from_scale(top: float, points: int = 4) -> np.ndarray:
    top = max(top, 1e-12)
    return np.geomspace(top * 1e-3, top, points)


def _tune_triple(design: SingleEqDesign, grids, cfg: PenaltyConfig,
                 folds: int, group_block: bool) -> Tuple[float, float, float]:
    """Pick (lam_group, lam_levels, lam_w) by expanding-window CV."""
    Z, W, y = design.levels, design.w, design.response
    n = design.n_rows
    if grids is None:
        yc = y - y.mean()
        init, _ = _initial_estimates(
            np.hstack([Z - Z.mean(0) if Z.size else Z,
                       W - W.mean(0)]), yc, cfg.initializer)
        nz = Z.shape[1]
        wp = _adaptive_weights(init[nz:], cfg.k_w)
        fin = np.isfinite(wp)
        top_w = np.max(np.abs(2.0 * (W - W.mean(0)).T[fin] @ yc)
                       / wp[fin], initial=0.0)
        ind = _grid_from_scale(top_w)
        if group_block and nz:
            top_g = float(np.linalg.norm(2.0 * (Z - Z.mean(0)).T @ yc))
            grp = np.concatenate([[0.0], _grid_from_scale(top_g)])
        else:
            grp = np.array([0.0])
        grid = [(float(g), float(i), float(i)) for g in grp for i in ind]
    else:
        grid = [tuple(float(v) for v in lam) if np.ndim(lam) else
                (0.0, 0.0, float(lam)) for lam in grids]
        grid = [(g if len(g) == 3 else (0.0, 0.0) + g) for g in grid]
    if len(grid) == 1:
        return grid[0]

    def builder(stop):
        sl = slice(0, stop)
        mz = Z[sl].mean(0) if Z.size else np.zeros(Z.shape[1])
        mw = W[sl].mean(0)
        my = y[sl].mean()
        sub = SingleEqDesign(design.target, y[sl] - my,
                             Z[sl] - mz, W[sl] - mw,
                             design.level_labels, design.w_labels)
        # warm starts: this fold's solution at the same individual
        # penalties, else the previous candidate's
        solved, last = {}, None

        def scorer(lam, rows):
            nonlocal last
            local = replace(cfg, lam_group=lam[0], lam_levels=lam[1],
                            lam_w=lam[2])
            delta, pi, _ = sgl_solve(sub, local,
                                     start=solved.get(lam[1:], last))
            solved[lam[1:]] = last = (delta, pi)
            pred = my + (Z[rows] - mz) @ delta + (W[rows] - mw) @ pi
            return (y[rows] - pred) ** 2

        return scorer

    return tscv_tune(builder, grid, n_rows=n, folds=folds)


def _finish_fit(parts: _DesignParts, cfg: PenaltyConfig, method: str,
                h: int, orders) -> "SingleEqFit":
    design = parts.design
    Z, W, y = design.levels, design.w, design.response
    mz = Z.mean(0) if Z.size else np.zeros(Z.shape[1])
    mw = W.mean(0) if W.size else np.zeros(W.shape[1])
    my = float(y.mean())
    centered = SingleEqDesign(design.target, y - my, Z - mz, W - mw,
                              design.level_labels, design.w_labels)
    delta, pi, diag = sgl_solve(centered, cfg)
    intercept = my - float(mz @ delta) - float(mw @ pi)
    fitted = intercept + float(parts.eval_levels @ delta) \
        + float(parts.eval_w @ pi)
    return SingleEqFit(
        target=design.target, h=h, method=method, delta=delta, pi=pi,
        level_labels=design.level_labels, w_labels=design.w_labels,
        lambdas={"group": cfg.lam_group, "levels": cfg.lam_levels,
                 "w": cfg.lam_w},
        intercept=intercept, anchor=parts.anchor,
        forecast=parts.anchor + fitted, diagnostics=diag, orders=orders)


@dataclass(frozen=True)
class SingleEqFit:
    """Fitted sparse single-equation model and its point forecast."""

    target: str
    h: int
    method: str
    delta: np.ndarray
    pi: np.ndarray
    level_labels: Tuple[str, ...]
    w_labels: Tuple[str, ...]
    lambdas: Dict[str, float]
    intercept: float
    anchor: float
    forecast: float
    diagnostics: Dict[str, float]
    orders: Optional[Tuple[int, ...]] = None

    def nonzero(self) -> Dict[str, float]:
        out = {}
        for lab, val in zip(self.level_labels, self.delta):
            if val != 0:
                out[lab] = float(val)
        for lab, val in zip(self.w_labels, self.pi):
            if val != 0:
                out[lab] = float(val)
        return out

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "h": self.h,
            "method": self.method,
            "lambda": dict(self.lambdas),
            "nonzero": self.nonzero(),
            "intercept": self.intercept,
            "anchor": self.anchor,
            "forecast": self.forecast,
            "kkt": self.diagnostics.get("kkt"),
            "orders": list(self.orders) if self.orders is not None else None,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def factor_augment(data, targets, k: int) -> Panel:
    """Panel of target columns plus k difference-extracted factor paths.

    Downstream estimators treat the factor columns as ordinary series;
    labels are made unique against the target names.
    """
    z, names, idx = resolve_targets(data, targets)
    keep = tuple(names[j] for j in idx)
    fm = extract_factors_diff(z, k)
    labels = []
    for i in range(k):
        lab = f"factor{i + 1}"
        while lab in keep or lab in labels:
            lab += "_"
        labels.append(lab)
    values = np.hstack([z[:, idx], fm.factors])
    dates = data.dates if isinstance(data, Panel) else None
    return from_values(values, keep + tuple(labels), dates=dates)
