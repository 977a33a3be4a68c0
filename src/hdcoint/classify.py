"""Panel-wide order-of-integration classification.

Three decision rules operate on the joint bootstrap distribution of the
union unit-root statistics: per-series testing without multiplicity
control (iadf), a sequential quantile test that brackets the number of
stationary series (bsqt), and a step-down false-discovery-rate rule
(bfdr).  A bottom-up differencing scheme extends all three from the
I(0)/I(1) decision to orders up to I(2); a fixed-lag trend-ADF baseline
(naive) is provided for comparability studies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._numeric import check_level
from .bootstrap import AwbConfig, bootstrap_union_distribution, left_tail_quantile
from .errors import ParameterError
from .panel import DeterministicSpec, Panel, difference, difference_columns
from .rng import derive_seed
from .unitroot import adf_stat

__all__ = [
    "METHODS",
    "STRATEGIES",
    "ClassifyConfig",
    "SequentialOutcome",
    "FdrOutcome",
    "RoundRecord",
    "IntegrationReport",
    "classify_iadf",
    "classify_bsqt",
    "classify_bfdr",
    "pantula_classify",
    "mackinnon_critical_value",
]

METHODS = ("iadf", "bsqt", "bfdr", "naive")
STRATEGIES = (1, 2)


# -- per-series rule ------------------------------------------------------


def classify_iadf(ur: np.ndarray, critvals: np.ndarray) -> np.ndarray:
    """Reject series ``i`` iff its union statistic falls below its cutoff.

    ``critvals`` holds one bootstrap critical value per series, the
    left-tail quantile of that series' own bootstrap union distribution.
    Each union test runs at its own level; no multiplicity control is
    applied.
    """
    ur = np.asarray(ur, dtype=float)
    critvals = np.broadcast_to(np.asarray(critvals, dtype=float), ur.shape)
    return ur < critvals


# -- sequential quantile test ---------------------------------------------


def _check_level_and_step(alpha: float, step: float = 0.05) -> None:
    """The one range rule of the classification settings: the level
    ``alpha`` in (0, 1) and the bsqt quantile ``step`` in (0, 1]."""
    check_level(alpha)
    if not 0.0 < step <= 1.0:
        raise ParameterError(f"quantile step must lie in (0, 1], got {step}")


@dataclass(frozen=True)
class SequentialOutcome:
    """Result of one sequential pass: rejected prefix plus audit trail."""

    rejected: np.ndarray           # boolean mask in original series order
    count: int                     # estimated number of I(0) series
    interval: Tuple[int, int]      # bracket [p_{J-1}, p_{J+1}] on the count
    steps: List[dict]


def classify_bsqt(ur: np.ndarray, boot_ur: np.ndarray, alpha: float = 0.05,
                  step: float = 0.05) -> SequentialOutcome:
    """Sequential quantile test over the ranked union statistics.

    The quantile grid is ``np.arange(0, 1, step)``, with ``step`` in
    (0, 1]; its group boundaries are p_k = round(q_k N), duplicates
    collapsed, and a terminal boundary at N is always appended, so the
    final round tests against the alternative that every remaining series
    is stationary.  ``step=1`` gives the grid (0,): one joint test of
    "all I(1)" against "all I(0)".

    Round ``k`` tests "exactly p_k series are I(0)" against "at least
    p_{k+1}" by comparing the observed order statistic at position
    ``p_{k+1}`` with the level-``alpha`` bootstrap quantile of the
    matching order statistic among the series not yet classified.  The
    pass stops at the first non-rejection and classifies the ``p_k`` most
    significant series as I(0); the true count falls outside the reported
    interval with probability about ``alpha``.
    """
    _check_level_and_step(alpha, step)
    ur = np.asarray(ur, dtype=float)
    n = ur.shape[0]
    if boot_ur.ndim != 2 or boot_ur.shape[1] != n:
        raise ParameterError("boot_ur must have one column per series")
    # a step of at most 1/N rounds to every count 0..N: no grid needed
    counts = range(n + 1) if step * n <= 1 else [
        int(np.floor(q * n + 0.5)) for q in np.arange(0.0, 1.0, step)] + [n]
    thresholds = [0]
    for p in counts:
        if p > thresholds[-1]:
            thresholds.append(p)
    order = np.argsort(ur, kind="stable")
    ur_sorted = ur[order]
    steps: List[dict] = []
    p_before = thresholds[0]
    p_prev = thresholds[0]
    stopped_at = None
    for p_lo, p_hi in zip(thresholds, thresholds[1:]):
        stat = float(ur_sorted[p_hi - 1])
        remaining = order[p_lo:]
        k_within = p_hi - p_lo
        draws = np.partition(boot_ur[:, remaining], k_within - 1,
                             axis=1)[:, k_within - 1]
        cutoff = float(left_tail_quantile(draws, alpha))
        rejected = stat < cutoff
        steps.append({
            "null_count": p_lo, "alternative": p_hi,
            "statistic": stat, "cutoff": cutoff, "rejected": bool(rejected),
        })
        if not rejected:
            stopped_at = p_hi
            break
        p_before, p_prev = p_lo, p_hi
    count = p_prev
    upper = stopped_at if stopped_at is not None else p_prev
    mask = np.zeros(n, dtype=bool)
    mask[order[:count]] = True
    return SequentialOutcome(mask, count, (p_before, upper), steps)


# -- step-down FDR rule ----------------------------------------------------


@dataclass(frozen=True)
class FdrOutcome:
    rejected: np.ndarray
    count: int
    steps: List[dict]


def _fdr_estimate(null_draws: np.ndarray, c: float, prior: int) -> float:
    """Estimated FDR when cutting the not-yet-rejected block at ``c``.

    ``null_draws`` holds the joint bootstrap statistics of the series not
    yet rejected; the ``prior`` rejections already made count as true
    discoveries.  Non-decreasing in ``c``.
    """
    false = (null_draws < c).sum(axis=1)
    return float(np.mean(false / np.maximum(1, prior + false)))


def classify_bfdr(ur: np.ndarray, boot_ur: np.ndarray,
                  alpha: float = 0.05) -> FdrOutcome:
    """Step-down bootstrap control of the false discovery rate.

    Walking down the ranking, step ``j`` rejects when the bootstrap FDR
    estimate at the observed order statistic - false rejections simulated
    from the joint null distribution of the remaining series, counted
    against the ``j - 1`` rejections already made - stays within
    ``alpha``.  The first non-rejection stops the pass, so the rejection
    set is a prefix of the ranking.  Ties in bootstrap statistics break
    toward non-rejection (strict inequality when counting false
    rejections).
    """
    _check_level_and_step(alpha)
    ur = np.asarray(ur, dtype=float)
    n = ur.shape[0]
    if boot_ur.ndim != 2 or boot_ur.shape[1] != n:
        raise ParameterError("boot_ur must have one column per series")
    order = np.argsort(ur, kind="stable")
    steps: List[dict] = []
    count = 0
    for j in range(1, n + 1):
        null_draws = boot_ur[:, order[j - 1:]]
        stat = float(ur[order[j - 1]])
        fdr_at_stat = _fdr_estimate(null_draws, stat, j - 1)
        rejected = fdr_at_stat <= alpha
        steps.append({"step": j, "statistic": stat,
                      "fdr_estimate": fdr_at_stat, "rejected": bool(rejected)})
        if not rejected:
            break
        count = j
    mask = np.zeros(n, dtype=bool)
    mask[order[:count]] = True
    return FdrOutcome(mask, count, steps)


# -- fixed-lag ADF baseline -------------------------------------------------

#: MacKinnon (2010) trend ADF response surface: alpha -> (b_inf, b1, b2)
_MACKINNON = {
    0.01: (-3.9638, -8.353, -47.44),
    0.05: (-3.4126, -4.039, -17.83),
    0.10: (-3.1279, -2.418, -7.58),
}


def mackinnon_critical_value(alpha: float, T: int) -> float:
    """Finite-sample critical value of the trend ADF test of the naive
    baseline, cv = b_inf + b1/T + b2/T^2."""
    if round(alpha, 4) not in _MACKINNON:
        raise ParameterError(
            "fixed-lag ADF critical values are tabulated for alpha in "
            "{0.01, 0.05, 0.10}")
    b0, b1, b2 = _MACKINNON[round(alpha, 4)]
    return b0 + b1 / T + b2 / T ** 2


# -- strategy orchestration -------------------------------------------------


@dataclass(frozen=True)
class ClassifyConfig:
    """Settings shared by every classification method.

    ``alpha`` is the level of every method, and overrides the level
    carried by ``awb`` so a single number controls the whole procedure.
    ``quantile_step`` spaces bsqt's quantile grid (:func:`classify_bsqt`).
    ``apriori_i2`` names series entered in first differences under
    strategy one; without it, strategy one requires the explicit
    ``at_most_i1`` assumption.
    """

    alpha: float = 0.05
    awb: AwbConfig = field(default_factory=AwbConfig)
    quantile_step: float = 0.05
    apriori_i2: Tuple[str, ...] = ()
    at_most_i1: bool = False

    def __post_init__(self):
        _check_level_and_step(self.alpha, self.quantile_step)
        object.__setattr__(self, "awb", replace(self.awb, alpha=self.alpha))
        object.__setattr__(self, "apriori_i2", tuple(self.apriori_i2))


@dataclass(frozen=True)
class RoundRecord:
    """One testing round of a classification strategy.

    ``cutoffs`` carries a per-series critical value where one exists
    (iadf, naive); the sequential methods decide by ranked blocks, so
    their cutoffs are None.
    """

    hypothesis: str
    tested: Tuple[str, ...]
    statistics: Dict[str, float]
    cutoffs: Dict[str, Optional[float]]
    rejected: Tuple[str, ...]


@dataclass(frozen=True)
class IntegrationReport:
    """Per-series integration orders plus the full testing trail."""

    names: Tuple[str, ...]
    orders: np.ndarray
    method: str
    strategy: int
    alpha: float
    rounds: Tuple[RoundRecord, ...]

    def counts(self) -> Dict[int, int]:
        return {d: int(np.sum(self.orders == d)) for d in (0, 1, 2)}

    def summary(self) -> str:
        c = self.counts()
        return "\n".join([
            f"method={self.method} strategy={self.strategy} alpha={self.alpha}",
            f"I(0): {c[0]}   I(1): {c[1]}   I(2): {c[2]}   (N={len(self.names)})",
        ])

    def to_dict(self) -> dict:
        series = []
        for i, name in enumerate(self.names):
            trail = []
            for rec in self.rounds:
                if name not in rec.tested:
                    continue
                stat = rec.statistics.get(name)
                cut = rec.cutoffs.get(name)
                trail.append({
                    "hypothesis": rec.hypothesis,
                    "statistic": None if stat is None else float(stat),
                    "cutoff": None if cut is None else float(cut),
                    "rejected": name in rec.rejected,
                })
            series.append({"series": name, "order": int(self.orders[i]),
                           "rounds": trail})
        return {"method": self.method, "strategy": int(self.strategy),
                "alpha": self.alpha, "series": series}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _round_once(panel: Panel, method: str, cfg: ClassifyConfig, label: str,
                hypothesis: str) -> Tuple[np.ndarray, RoundRecord]:
    """Run one testing round on ``panel``; returns the rejection mask."""
    names = panel.names
    if method == "naive":
        stats: Dict[str, float] = {}
        cuts: Dict[str, Optional[float]] = {}
        mask = np.zeros(panel.n_series, dtype=bool)
        for j, name in enumerate(names):
            col = panel.values[panel.leads[j]:, j]
            lag = int(np.floor((col.shape[0] - 1) ** (1.0 / 3.0)))
            stat = adf_stat(col, DeterministicSpec.TREND, lag)
            crit = mackinnon_critical_value(cfg.alpha, col.shape[0])
            stats[name], cuts[name] = stat, crit
            mask[j] = stat < crit
        rec = RoundRecord(hypothesis, names, stats, cuts,
                          tuple(n for n, m in zip(names, mask) if m))
        return mask, rec

    awb = replace(cfg.awb, seed=derive_seed(cfg.awb.seed, label))
    boot = bootstrap_union_distribution(panel, awb)
    if method == "iadf":
        crit = boot.union_critical_values()
        mask = classify_iadf(boot.ur, crit)
        cuts = {n: float(c) for n, c in zip(names, crit)}
    else:       # bsqt or bfdr: pantula_classify has checked the method
        out = (classify_bsqt(boot.ur, boot.boot_ur, cfg.alpha,
                             cfg.quantile_step) if method == "bsqt"
               else classify_bfdr(boot.ur, boot.boot_ur, cfg.alpha))
        mask, cuts = out.rejected, dict.fromkeys(names)
    stats = {n: float(u) for n, u in zip(names, boot.ur)}
    rec = RoundRecord(hypothesis, names, stats, cuts,
                      tuple(n for n, m in zip(names, mask) if m))
    return mask, rec


def pantula_classify(panel: Panel, method: str = "bsqt", strategy: int = 2,
                     cfg: Optional[ClassifyConfig] = None) -> IntegrationReport:
    """Classify every series as I(0), I(1) or I(2).

    Strategy two tests all series in first differences (non-rejections
    are declared I(2) and removed), then retests the survivors in levels.
    Strategy one runs a single round, entering an a-priori I(2) list in
    first differences; without such a list it requires the explicit
    assumption that no series integrates beyond order one.
    """
    cfg = cfg if cfg is not None else ClassifyConfig()
    if method not in METHODS:
        raise ParameterError(f"unknown method '{method}'; choose from {METHODS}")
    if strategy not in STRATEGIES:
        raise ParameterError(f"strategy must be 1 or 2, got {strategy}")
    names = panel.names
    orders = np.full(panel.n_series, -1, dtype=int)
    rounds: List[RoundRecord] = []

    if strategy == 2:
        mask1, rec1 = _round_once(difference(panel, 1), method, cfg,
                                  "differences", "unit root in first difference")
        rounds.append(rec1)
        orders[~mask1] = 2
        survivors = [n for n, m in zip(names, mask1) if m]
        if survivors:
            mask2, rec2 = _round_once(panel.select(survivors), method, cfg,
                                      "levels", "unit root in level")
            rounds.append(rec2)
            for n, rej in zip(survivors, mask2):
                orders[panel.index(n)] = 0 if rej else 1
    else:
        apriori = set(cfg.apriori_i2)
        unknown = apriori - set(names)
        if unknown:
            raise ParameterError(
                f"a-priori I(2) names not in panel: {sorted(unknown)}")
        if not apriori and not cfg.at_most_i1:
            raise ParameterError(
                "strategy one needs an a-priori I(2) list or the explicit "
                "at-most-I(1) assumption")
        entered = difference_columns(panel.values,
                                     [n in apriori for n in names])
        mask, rec = _round_once(panel.with_values(entered), method, cfg,
                                "levels", "unit root in entered form")
        rounds.append(rec)
        for j, name in enumerate(names):
            if name in apriori:
                orders[j] = 1 if mask[j] else 2
            else:
                orders[j] = 0 if mask[j] else 1

    return IntegrationReport(names=names, orders=orders, method=method,
                             strategy=strategy, alpha=cfg.alpha,
                             rounds=tuple(rounds))
