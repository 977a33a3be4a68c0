"""Sparse single-equation estimators for cointegrated data.

The centerpiece is a sparse-group-lasso solver whose group block carries
the lagged levels of an error-correction equation: shrinking that block
to zero removes the long-run relation, while adaptive individual
penalties prune every remaining coefficient.  Everything works on the
Gram matrix of the design, formed once per cross-validation fold.  A
weighted-lasso homotopy path solves every penalty without a group term,
and every one whose levels block is zero, exactly; it carries one
inverse of G[S, S] across its events, bordered on each join and
refactored on each drop.  The rest run block coordinate descent,
warm-started within a fold (Friedman, Hastie & Tibshirani, 2010), with
an active-set Newton finish that builds each support's Hessian once.
On top sit the error-correction selector (SPECS) and its differenced
counterpart (PADL), tuned by expanding-window cross-validation.  One
builder makes both designs: SPECS is PADL with every order 1 plus the
lagged-levels block.  One rule reads both grids: an entry is a scalar
lam_w, meaning (0, 0, lam_w), or a finite, non-negative triple
(lam_group, lam_levels, lam_w), whose first two are 0 for PADL.

Like every module of the package, it runs on numpy alone: scipy is no
dependency, since its import and the second OpenBLAS its LAPACK loads
cost every run start-up time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ._numeric import penalty_levels, soft_threshold, tscv_tune
from .errors import ConvergenceError, DataError, ParameterError
from .panel import difference_columns, resolve_targets, validate_orders

__all__ = [
    "PenaltyConfig",
    "SingleEqDesign",
    "SingleEqFit",
    "sgl_solve",
    "kkt_residual",
    "specs_fit",
    "padl_fit",
    "tscv_tune",
]

#: scale-free stationarity violation below which a solve has converged
_TOL = 1e-6

#: descent sweeps after which a solve that has not converged fails
_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty levels.

    ``lam_group`` acts on the lagged-levels block as a whole,
    ``lam_levels`` and ``lam_w`` on individual coefficients of the levels
    and short-run blocks; each must be finite and non-negative.  Weights
    are 1/|initial estimate|, OLS when the design has more rows than
    columns and ridge otherwise; an exactly zero initial estimate
    excludes its coefficient permanently.
    """

    lam_group: float = 0.0
    lam_levels: float = 0.0
    lam_w: float = 0.0

    def __post_init__(self):
        penalty_levels((self.lam_group, self.lam_levels, self.lam_w),
                       "penalty levels")


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


def _initial_estimates(X: np.ndarray, y: np.ndarray
                       ) -> Tuple[np.ndarray, str]:
    """OLS when overdetermined, trace-scaled ridge otherwise, and which."""
    n, m = X.shape
    if n > m:
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        return beta, "ols"
    G = X.T @ X
    kappa = 1e-2 * np.trace(G) / max(m, 1)
    beta = np.linalg.solve(G + max(kappa, 1e-12) * np.eye(m), X.T @ y)
    return beta, "ridge"


@dataclass(frozen=True)
class _Gram:
    """What every penalty level shares on one design: the adaptive weights
    of [levels, w], their start ("ols" or "ridge"), G = X'X and c = X'y."""
    weights: np.ndarray
    tag: str
    G: np.ndarray
    c: np.ndarray


def _gram(design: SingleEqDesign) -> _Gram:
    X = np.hstack([design.levels, design.w])
    init, tag = _initial_estimates(X, design.response)
    # 1/|init|, with an exact zero excluded for good (+inf)
    weights = np.full(init.shape, np.inf)
    kept = init != 0
    weights[kept] = 1.0 / np.abs(init[kept])
    return _Gram(weights, tag, X.T @ X, X.T @ design.response)


def _l1_penalties(weights: np.ndarray, nz: int, cfg: PenaltyConfig
                  ) -> np.ndarray:
    """Per-coordinate L1 strength; +inf marks an excluded coordinate."""
    lam = np.where(np.arange(weights.size) < nz, cfg.lam_levels, cfg.lam_w)
    with np.errstate(invalid="ignore"):   # 0 * inf
        return np.where(np.isfinite(weights), lam * weights, np.inf)


def kkt_residual(design: SingleEqDesign, cfg: PenaltyConfig,
                 delta: np.ndarray, pi: np.ndarray) -> float:
    """Scale-free stationarity violation of a candidate solution.

    The adaptive weights are those of :class:`PenaltyConfig` on ``design``.
    The raw violation (in gradient units) is divided by
    max(1, ||2 X'y||_inf); excluded coordinates (infinite weight) never
    violate.  Zero means an exact minimizer.
    """
    X, y = np.hstack([design.levels, design.w]), design.response
    nz = design.levels.shape[1]
    weights = _gram(design).weights
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


def _lasso_path(G: np.ndarray, c: np.ndarray, unit: np.ndarray,
                lams: Sequence[float]) -> Tuple[list, int]:
    """Minimizers of t'Gt - 2c't + lam sum_j unit_j |t_j| at each lam of
    the descending ``lams``, by homotopy from t = 0 (Osborne, Presnell &
    Turlach, 2000; Efron et al., 2004), and the number of events.

    Coordinates with infinite unit penalty or a zero Gram diagonal never
    enter.  Between events t_S is linear in lam; an event adds the
    coordinate whose correlation reaches its penalty or drops one whose
    sign would change.  A dropped coordinate may rejoin at the next event
    with the other sign only: with its old sign it would rejoin where it
    left.  When no coordinate can join or drop, the path is flat down to
    lam = 0 and it stops there.

    The inverse M of G[S, S] is carried from event to event, as LARS
    carries its factor.  A join borders it with the new column g:
    u = M g and d = G_jj - g'u, the new squared Cholesky pivot.  A drop,
    which is rare, refactors G[S, S] from scratch, which bounds the
    drift.  One product of M with [c_S, -unit_S sign_S / 2] gives t_S's
    intercept and slope in lam.  From a G[S, S] that is not positive
    definite, or whose smallest squared pivot is at most 1e-12 of its
    largest diagonal entry (or from the event cap) on, the solutions are
    None.
    """
    n, diag = c.size, np.diag(G)
    idle = np.isfinite(unit) & (diag > 0)
    two_sigma = np.array([[2.0], [-2.0]])
    # buffers whose first k entries are live: S in entry order, its signs,
    # the rows G[S], R = [c_S, -unit_S sign_S / 2] and M = inv(G[S, S])
    S, sg = np.zeros(n, dtype=int), np.zeros(n)
    GS, R, M = np.zeros((n, n)), np.zeros((n, 2)), np.zeros((n, n))
    k, pmin, dmax = 0, np.inf, 0.0   # smallest pivot², largest G_jj on S
    out, lam, events, added, dropped = [], np.inf, 0, -1, None
    while len(out) < len(lams) and events <= 4 * n + 20:
        if added >= 0:   # border M with the column that joined
            g = GS[:k, added]
            u = M[:k, :k] @ g
            d = diag[added] - g @ u
            if not d > 0:
                break
            v = u / d
            M[:k, :k] += u[:, None] * v
            M[k, :k] = M[:k, k] = -v
            M[k, k] = 1.0 / d
            k, pmin, dmax = k + 1, min(pmin, d), max(dmax, diag[added])
        elif dropped:   # refactor after a drop
            try:
                L = np.linalg.cholesky(GS[:k, S[:k]])
            except np.linalg.LinAlgError:
                break
            Li = np.linalg.inv(L)
            M[:k, :k] = Li.T @ Li
            pmin = np.min(np.diag(L) ** 2, initial=np.inf)
            dmax = np.max(diag[S[:k]], initial=0.0)
        if pmin <= 1e-12 * dmax:
            break
        AB = M[:k, :k] @ R[:k]
        alpha, beta = AB.T
        Gab = GS[:k].T @ AB   # q = c - Gab[:, 0] - lam Gab[:, 1]
        r = unit + two_sigma * Gab[:, 1]
        hit = np.full((2, n), -np.inf)   # join where 2q = +-lam unit
        np.divide(two_sigma * (c - Gab[:, 0]), r, out=hit,
                  where=idle & (r > 0))
        if dropped:   # it would rejoin where it left, with its old sign
            hit[dropped] = -np.inf
        side, j = divmod(int(np.argmax(hit)), n)
        zero = np.full(k, -np.inf)   # drop where t_j reaches 0
        np.divide(-alpha, beta, out=zero,
                  where=(beta * sg[:k] > 0) & (S[:k] != added))
        join, drop = hit[side, j], zero.max(initial=-np.inf)
        nxt = min(max(join, drop, 0.0), lam)
        while len(out) < len(lams) and lams[len(out)] >= nxt:
            out.append(np.zeros(n))
            out[-1][S[:k]] = alpha + lams[len(out) - 1] * beta
        if join == drop == -np.inf:
            break
        if join >= drop:
            S[k], sg[k] = j, 1.0 - 2.0 * side
            GS[k], R[k] = G[j], (c[j], -0.5 * unit[j] * sg[k])
            idle[j] = False
            added, dropped = j, None
        else:
            i = int(np.argmax(zero))
            added, dropped = -1, (int(sg[i] < 0), int(S[i]))
            idle[S[i]] = True
            for buf in (S, sg, GS, R):
                buf[i:k - 1] = buf[i + 1:k]
            k -= 1
        lam, events = nxt, events + 1
    return out + [None] * (len(lams) - len(out)), events


def _active_set(G: np.ndarray, c: np.ndarray, theta: np.ndarray, nz: int,
                lam_g: float, pen: np.ndarray, scale: float):
    """(theta, steps) by active-set Newton steps from a descent iterate.

    Steps on G[S, S] (plus the group-norm Hessian when delta != 0) stop
    at the first sign change and drop that coordinate; a stationary
    support takes in its worst KKT violator until none exceeds 1e-9 *
    ``scale``.  2 G[S, S], 2 c_S and the sign penalties are built once
    per support; between the Newton steps on one support only the
    group-curvature block changes.  A zero delta stays zero.  None when
    delta would reach zero, a solve fails or the step cap is hit.
    """
    th, on, sgn = theta.copy(), theta != 0, np.sign(theta)
    group = lam_g > 0 and on[:nz].any()
    frozen = (np.arange(th.size) < nz) & (lam_g > 0 and not group)
    S = None
    for steps in range(1, 2 * th.size + 20):
        if S is None:   # a new support: what its Newton steps share
            S = np.flatnonzero(on)
            kd = int(np.count_nonzero(S < nz)) if group else 0
            s, H2, c2 = sgn[S], 2.0 * G[np.ix_(S, S)], 2.0 * c[S]
            ps, eye = pen[S] * s, np.eye(kd)
        t = th[S]
        grad, H = H2 @ t - c2 + ps, H2
        if kd:
            td = t[:kd]
            nrm = np.sqrt(td @ td)
            if nrm == 0:
                return None
            grad[:kd] += lam_g * td / nrm
            H = H2.copy()
            H[:kd, :kd] += lam_g / nrm * (eye - td[:, None] * td / nrm ** 2)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return None
        flip = (t - step) * s < 0
        if flip.any():
            ratio = t[flip] / step[flip]
            k = S[np.flatnonzero(flip)[np.argmin(ratio)]]
            th[S] = t - np.min(ratio) * step
            th[k], on[k], sgn[k], S = 0.0, False, 0.0, None
            if group and not th[:nz].any():
                return None
            continue
        th[S] = t - step
        if kd and np.abs(step).max() > 1e-8 * np.abs(t).max():
            continue
        q = c - G @ th
        viol = np.where(on | frozen, -np.inf, np.abs(2.0 * q) - pen)
        j = int(np.argmax(viol))
        if viol[j] <= 1e-9 * scale:
            return th, steps
        on[j], sgn[j], S = True, np.sign(q[j]), None
    return None


def sgl_solve(design: SingleEqDesign, cfg: PenaltyConfig,
              start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
              gram: Optional[_Gram] = None
              ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """Minimize the sparse-group-lasso objective over (delta, pi).

    Objective: ||y - Z delta - W pi||^2 + lam_group ||delta||_2
    + lam_levels sum_i w_i |delta_i| + lam_w sum_j w_j |pi_j|, with
    adaptive weights from the initial estimate, in Gram form on
    G = X'X and c = X'y (X = [Z, W]); ``gram`` reuses those of this
    design across penalties.  With lam_group = 0 and one individual
    penalty the problem is a weighted lasso, solved exactly by its
    homotopy path.  Otherwise, or when the path meets a singular G[S, S],
    block coordinate descent runs from ``start`` = (delta, pi) (zero by
    default; excluded coordinates forced to zero), and after sweeps 1, 2
    and every fifth an active-set Newton finish tries to complete it.
    The result has a scale-free stationarity violation below
    :data:`_TOL`; the diagnostics name the ``solver`` behind it ("path",
    "active-set" or "cd") and count descent ``sweeps`` and path events
    plus Newton ``steps``.
    """
    y, nz = design.response, design.levels.shape[1]
    gram = gram if gram is not None else _gram(design)
    G, c = gram.G, gram.c
    pen = _l1_penalties(gram.weights, nz, cfg)
    fin = np.isfinite(pen)
    theta = np.zeros(c.size)
    if start is not None:
        theta[:] = np.concatenate(start)
        theta[~fin] = 0.0
    solver, steps = "cd", 0
    if cfg.lam_group == 0 and (nz == 0 or cfg.lam_levels == cfg.lam_w):
        (path,), steps = _lasso_path(G, c, gram.weights, [cfg.lam_w])
        if path is not None:
            theta, solver = path, "path"
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
    while raw / scale > _TOL:
        if sweeps >= _MAX_SWEEPS:
            raise ConvergenceError(
                f"no convergence after {_MAX_SWEEPS} sweeps; "
                f"KKT residual {raw / scale:.3e}")
        sweeps += 1
        solver = "cd"
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
            done = _active_set(G, c, theta, nz, cfg.lam_group, pen, scale)
            if done is not None:
                steps += done[1]
                q2 = c - G @ done[0]
                raw2, _ = _kkt(q2, c, done[0], nz, cfg.lam_group, pen)
                if raw2 <= raw:
                    theta, q, raw, solver = done[0], q2, raw2, "active-set"
    on = theta != 0
    objective = float(y @ y - theta @ (c + q) + np.abs(theta[on]) @ pen[on]
                      + cfg.lam_group * np.linalg.norm(theta[:nz]))
    diagnostics = {"kkt": raw / scale, "sweeps": float(sweeps),
                   "steps": float(steps), "solver": solver, "scale": scale,
                   "objective": objective, "initializer": gram.tag}
    return theta[:nz].copy(), theta[nz:].copy(), diagnostics


# -- design construction ----------------------------------------------------


@dataclass(frozen=True)
class _DesignParts:
    """Fit design plus the evaluation row and forecast anchor."""
    design: SingleEqDesign
    eval_levels: np.ndarray
    eval_w: np.ndarray
    anchor: float


def _w_block(x: np.ndarray, t_idx: np.ndarray, others, p: int) -> np.ndarray:
    """Current values of the other series, then p lags of every series."""
    return np.hstack([x[t_idx][:, others]]
                     + [x[t_idx - j] for j in range(1, p + 1)])


def _design_parts(z: np.ndarray, names: Tuple[str, ...], ti: int,
                  orders: np.ndarray, p: int, h: int, first: int,
                  levels: bool) -> _DesignParts:
    """Target ``ti``'s design from row ``first`` on, each series
    differenced ``orders`` times; ``levels`` adds every lagged level as
    the group block and labels then read ``d.``, else ``t.``."""
    if p < 0 or h < 0:
        raise ParameterError(f"p and h must be non-negative, got {p}, {h}")
    T, N = z.shape
    x = difference_columns(z, orders)
    d_t = int(orders[ti])
    others = [j for j in range(N) if j != ti]
    e = T - 1 if h >= 1 else T - 2   # last target row the fit may see
    rows = np.arange(first, e - h + 1)
    if rows.size < 10:
        raise DataError(f"window of {T} rows is too short for p={p}, h={h}")
    anchor = (0.0, z[e, ti], 2.0 * z[e, ti] - z[e - 1, ti])[d_t]
    resp = x[rows, ti]
    if h >= 1:
        resp = z[rows + h, ti] - z[rows, ti] if d_t else z[rows + h, ti]
        if d_t == 2:
            resp = resp - (z[rows, ti] - z[rows - 1, ti])
    k, tag = (N, "d") if levels else (0, "t")
    w_labels = tuple(f"{tag}.{names[j]}" for j in others) + tuple(
        f"{tag}.{names[j]}.l{i}" for i in range(1, p + 1) for j in range(N))
    design = SingleEqDesign(names[ti], resp, z[rows - 1, :k],
                            _w_block(x, rows, others, p), names[:k], w_labels)
    return _DesignParts(design, z[T - 2, :k],
                        _w_block(x, np.array([T - 1]), others, p)[0],
                        float(anchor))


def specs_fit(data, target, p: int = 3, h: int = 1,
              lambda_grid=None) -> "SingleEqFit":
    """Error-correction selector with direct h-step (or h=0) forecasting.

    The design is :func:`padl_fit`'s with every order 1, from row p + 1,
    plus all lagged levels as the group block: the response is
    y_{t+h} - y_t (at h=0 the one-step difference, so the last target
    value never enters the fit).  The penalty triple is tuned by
    five-fold expanding-window cross-validation over ``lambda_grid``
    (scalars lam_w or triples; default: a grid scaled to the design),
    and the forecast is the anchor plus the fit at the final row.
    """
    z, names, (ti,) = resolve_targets(data, [target])
    ones = np.ones(len(names), dtype=int)
    parts = _design_parts(z, names, ti, ones, p, h, p + 1, levels=True)
    return _fit(parts, lambda_grid, "specs", h)


def padl_fit(data, target, orders, p: int = 3, h: int = 1,
             lambda_grid=None) -> "SingleEqFit":
    """Adaptive-lasso distributed-lag fit on stationarity-transformed data.

    Every series is differenced down to I(0) according to ``orders``;
    the response depends on the target's own order (level for I(0),
    h-step difference for I(1), additionally dropping one lagged
    difference for I(2)) and forecasts invert that definition.  The fit
    starts at row max(max(orders) + p, d + 1) for a target of order d.
    There is no levels block, so ``lambda_grid`` entries are scalars
    lam_w or triples (0, 0, lam_w), tuned like :func:`specs_fit`'s.
    """
    z, names, (ti,) = resolve_targets(data, [target])
    orders = validate_orders(orders, len(names))
    first = max(int(orders.max()) + p, int(orders[ti]) + 1)
    parts = _design_parts(z, names, ti, orders, p, h, first, levels=False)
    return _fit(parts, lambda_grid, "padl", h, tuple(orders.tolist()))


# -- tuning ------------------------------------------------------------------


def _grid_from_scale(top: float) -> np.ndarray:
    top = max(top, 1e-12)
    return np.geomspace(top * 1e-3, top, 4)


def _triple(lam, nz: int) -> Tuple[float, float, float]:
    """A grid entry as (lam_group, lam_levels, lam_w); ``nz``: levels."""
    try:
        vals = ((0.0, 0.0, float(lam)) if np.ndim(lam) == 0
                else tuple(float(v) for v in lam))
    except (TypeError, ValueError):
        vals = ()
    if len(vals) != 3 or not (nz or vals[0] == vals[1] == 0):
        raise ParameterError(
            "a grid entry is lam_w or (lam_group, lam_levels, lam_w), with "
            f"no group or levels term without a levels block; got {lam!r}")
    penalty_levels(vals, "penalty grid levels")
    return vals


def _grid(grid, nz: int, full: _Gram) -> list:
    """``grid`` as triples; by default four lam_w (= lam_levels, if any)
    times lam_group 0 and, with levels, four more, scaled to ``full``."""
    if grid is not None:
        return [_triple(lam, nz) for lam in grid]
    wp = full.weights[nz:]
    fin = np.isfinite(wp)
    top_w = np.max(np.abs(2.0 * full.c[nz:][fin]) / wp[fin], initial=0.0)
    grp = np.array([0.0])
    if nz:
        top_g = float(np.linalg.norm(2.0 * full.c[:nz]))
        grp = np.concatenate([grp, _grid_from_scale(top_g)])
    return [(float(g), float(i) if nz else 0.0, float(i))
            for g in grp for i in _grid_from_scale(top_w)]


def _centered(design: SingleEqDesign, stop: Optional[int] = None):
    """Rows [0, stop) of the design centred on their means, and the means."""
    sl = slice(0, stop)
    Z, W, y = design.levels[sl], design.w[sl], design.response[sl]
    mz, mw, my = Z.mean(0), W.mean(0), float(y.mean())
    return (SingleEqDesign(design.target, y - my, Z - mz, W - mw,
                           design.level_labels, design.w_labels), mz, mw, my)


def _path_candidates(gram: _Gram, nz: int, grid, cfg: PenaltyConfig) -> dict:
    """Grid candidates settled exactly by two weighted-lasso paths.

    One path covers lam_group = 0 with one individual penalty.  A zero
    levels block leaves a weighted lasso on W whatever lam_group is, so a
    path on W settles each lam_group > 0 candidate whose group passes the
    exact zero test.  Every solution must pass the KKT check.
    """
    G, c, w = gram.G, gram.c, gram.weights
    runs = [([l for l in grid if l[0] == 0 and (nz == 0 or l[1] == l[2])], w),
            ([l for l in grid if l[0] > 0],
             np.where(np.arange(w.size) < nz, np.inf, w))]
    out = {}
    for cands, unit in runs:
        lams = sorted({l[2] for l in cands}, reverse=True)
        path = dict(zip(lams, _lasso_path(G, c, unit, lams)[0]))
        for lam in cands:
            theta = path[lam[2]]
            if theta is None:
                continue
            pen = _l1_penalties(w, nz, replace(cfg, lam_levels=lam[1],
                                               lam_w=lam[2]))
            q, a = c - G @ theta, np.isfinite(pen[:nz])
            if lam[0] > 0 and np.linalg.norm(soft_threshold(
                    2.0 * q[:nz][a], pen[:nz][a])) > lam[0]:
                continue
            raw, scale = _kkt(q, c, theta, nz, lam[0], pen)
            if raw / scale <= _TOL:
                out[lam] = (theta[:nz], theta[nz:])
    return out


def _tune_triple(design: SingleEqDesign, grid: list, cfg: PenaltyConfig
                 ) -> Tuple[float, float, float]:
    """The triple of ``grid`` that expanding-window CV picks."""
    Z, W, y = design.levels, design.w, design.response

    def builder(stop):
        sub, mz, mw, my = _centered(design, stop)
        gram = _gram(sub)
        exact = _path_candidates(gram, Z.shape[1], grid, cfg)
        # warm starts: this fold's solution at the same individual
        # penalties, else the previous candidate's
        solved, last = {}, None

        def scorer(lam, rows):
            nonlocal last
            if lam in exact:
                delta, pi = exact[lam]
            else:
                local = replace(cfg, lam_group=lam[0], lam_levels=lam[1],
                                lam_w=lam[2])
                delta, pi, _ = sgl_solve(sub, local, gram=gram,
                                         start=solved.get(lam[1:], last))
            solved[lam[1:]] = last = (delta, pi)
            pred = my + (Z[rows] - mz) @ delta + (W[rows] - mw) @ pi
            return (y[rows] - pred) ** 2

        return scorer

    return tscv_tune(builder, grid, n_rows=design.n_rows)


def _fit(parts: _DesignParts, grid, method: str, h: int,
         orders: Optional[Tuple[int, ...]] = None) -> "SingleEqFit":
    """Tune, then fit the centred design; one Gram serves both."""
    design = parts.design
    centered, mz, mw, my = _centered(design)
    full = _gram(centered)
    grid = _grid(grid, design.levels.shape[1], full)
    cfg = PenaltyConfig(*_tune_triple(design, grid, PenaltyConfig()))
    delta, pi, diag = sgl_solve(centered, cfg, gram=full)
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
        pairs = zip(self.level_labels + self.w_labels,
                    np.concatenate([self.delta, self.pi]))
        return {lab: float(val) for lab, val in pairs if val != 0}

