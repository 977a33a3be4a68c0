"""Autoregressive wild bootstrap for panel unit-root inference.

The engine resamples a panel under the joint unit-root null: residual
increments are estimated per series, multiplied by one AR(1) Gaussian
sequence shared across all series (preserving cross-sectional
dependence), and re-accumulated into bootstrap level paths.  The same
replication set provides first the component-test critical values and
then the joint distribution of the union statistics, so no nested
bootstrap is run.

Replication ``b`` is a pure function of ``(seed, b)``: each replication
draws from its own named substream.  :func:`awb_draw` and the
replication multipliers run the same unit-variance AR(1) recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._numeric import ar1_recursion, check_level, key_positions
from .errors import WINDOW_ERRORS, ParameterError, attempt
from .panel import Panel, ols_detrend
# substream is unused here, but the benchmark's tracer still looks it up
# in this module
from .rng import as_generator, standard_normal_rows, substream  # noqa: F401
# _adf_tstat_batch and _gls_detrend_batch are unused here, but the
# benchmark's tracer still looks both names up in this module
from .unitroot import (CriticalValueSet, _adf_tstat_batch,  # noqa: F401
                       _gls_detrend_batch, adf_rho, four_stats, select_lags)

__all__ = [
    "AwbConfig",
    "UnionBootstrap",
    "check_multiplier",
    "awb_draw",
    "residual_panel",
    "bootstrap_union_distribution",
    "left_tail_quantile",
]

_RHO_MODES = ("estimated", "unity")


def check_multiplier(reps: int, gamma: float) -> None:
    """Reject fewer than 199 multiplier replications or an AR coefficient
    outside ``[0, 1)``, where the unit-variance recursion is undefined."""
    if not 0.0 <= gamma < 1.0:
        raise ParameterError(f"gamma must lie in [0, 1), got {gamma}")
    if reps < 199:
        raise ParameterError(f"need at least 199 replications, got {reps}")


@dataclass(frozen=True)
class AwbConfig:
    """Settings of the autoregressive wild bootstrap.

    Parameters
    ----------
    gamma : float
        AR coefficient of the multiplier sequence, in ``[0, 1)``.
    reps : int
        Number of bootstrap replications (at least 199).
    rho_mode : str
        ``'estimated'`` filters residuals with a per-series AR-root
        estimate; ``'unity'`` uses first differences.
    alpha : float
        Level of the component-test critical values; ``reps * alpha``
        must be at least 5 for the quantile to be meaningful.
    max_lags : int, optional
        Cap for the per-series lag choice (default ``12 (T/100)^{1/4}``).
    workers : int, optional
        How many series' replications a round fits at once, on worker
        processes (the rule of ``errors.per_window``); default every
        usable CPU.  Any count gives the same bytes.
    """

    gamma: float = 0.85
    reps: int = 999
    rho_mode: str = "estimated"
    alpha: float = 0.05
    seed: int = 0
    max_lags: Optional[int] = None
    workers: Optional[int] = None

    def __post_init__(self):
        check_multiplier(self.reps, self.gamma)
        if self.workers is not None and self.workers < 1:
            raise ParameterError(
                f"workers must be a positive integer, got {self.workers}")
        if self.rho_mode not in _RHO_MODES:
            raise ParameterError(f"rho_mode must be one of {_RHO_MODES}")
        check_level(self.alpha)
        if self.reps * self.alpha < 5.0:
            raise ParameterError(
                f"reps * alpha = {self.reps * self.alpha:.1f} < 5: too few "
                "replications for the requested quantile")


def awb_draw(T: int, gamma: float, seed_or_rng=0) -> np.ndarray:
    """One AR(1) wild-bootstrap multiplier sequence of length ``T``.

    ``xi_1 ~ N(0, 1)`` and ``xi_t = gamma xi_{t-1} + v_t`` with
    ``v_t ~ N(0, 1 - gamma^2)``, so every ``xi_t`` has unit variance.
    """
    if T < 1:
        raise ParameterError("T must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ParameterError(f"gamma must lie in [0, 1), got {gamma}")
    return _unit_ar1(as_generator(seed_or_rng).standard_normal(T), gamma)


def _unit_ar1(e: np.ndarray, gamma: float) -> np.ndarray:
    """Unit-variance AR(1) paths along axis 0, built over the
    standard-normal draws ``e``."""
    # the whole array is scaled and its first row put back: numpy buffers
    # an in-place product over a strided slice such as ``e[1:]`` of a
    # transposed stack, 128 KiB a call
    first = e[0].copy()
    e *= np.sqrt(1.0 - gamma * gamma)
    e[0] = first
    return ar1_recursion(e, gamma)


def _multiplier_matrix(B: int, T: int, gamma: float, seed: int) -> np.ndarray:
    """Stack of replication multipliers, (B, T); row ``b`` is the
    :func:`awb_draw` of substream (seed, "awb", b), bit for bit.  The
    draws of every row come from :func:`standard_normal_rows`, which
    derives the B streams in one pass, and become the paths in place, so
    the (B, T) result is the one array of that size."""
    e = standard_normal_rows(np.empty((B, T)), seed, "awb")
    _unit_ar1(e.T, gamma)
    return e


class _Paths:
    """Bootstrap level paths of one series, shape ``(B, T - lead)``: row
    ``b`` is the cumulative sum of ``xi[b, lead:] * u``.  A row slice is
    built, shifted to start at zero, inside the task that fits it."""

    def __init__(self, xi: np.ndarray, u: np.ndarray, lead: int):
        self.xi, self.u = xi[:, lead:], u
        self.shape = self.xi.shape

    def __getitem__(self, rows: slice) -> np.ndarray:
        z = self.xi[rows] * self.u
        np.cumsum(z, axis=1, out=z)
        z -= z[:, :1].copy()            # a copy: no overlap buffer
        return z


def _named(results: list, names) -> list:
    """Per-series ``results``, or the first window error among them
    raised, its message prefixed with the name of its series."""
    for result, name in zip(results, names, strict=True):
        if isinstance(result, WINDOW_ERRORS):
            raise type(result)(f"series '{name}': {result}") from None
    return results


def residual_panel(panel: Panel, rho_mode: str, lags: Sequence[int]) -> Panel:
    """Residual increments feeding the bootstrap DGP.

    Each series is OLS-detrended on [1, t] and filtered as
    ``u_t = zeta_t - rho * zeta_{t-1}`` with ``rho`` either 1 (``'unity'``)
    or its :func:`adf_rho` at the series' entry of ``lags``
    (``'estimated'``, one call per start and lag).  The first available
    value is the detrended observation itself (a zero pre-sample), so the
    NaN layout of the input is preserved exactly.
    """
    if rho_mode not in _RHO_MODES:
        raise ParameterError(f"rho_mode must be one of {_RHO_MODES}")
    vals = ols_detrend(panel)[0].values
    out = np.full_like(vals, np.nan)
    groups = key_positions(zip(panel.leads, lags, strict=True))
    for (lead, lag), cols in groups.items():
        z = vals[lead:, cols]
        rho = 1.0 if rho_mode == "unity" else adf_rho(z.T, lags=int(lag))
        out[lead, cols] = z[0]
        out[lead + 1:, cols] = z[1:] - rho * z[:-1]
    return panel.with_values(out)


def left_tail_quantile(draws: np.ndarray, alpha: float) -> np.ndarray:
    """Bootstrap left-tail critical value along the first axis.

    Uses the ``ceil(alpha * (B + 1))``-th order statistic, the standard
    convention for a level-``alpha`` one-sided bootstrap test.
    """
    B = draws.shape[0]
    k = min(max(int(np.ceil(alpha * (B + 1))), 1), B)
    return np.partition(draws, k - 1, axis=0)[k - 1]


@dataclass(frozen=True)
class UnionBootstrap:
    """Original union statistics plus their joint bootstrap distribution.

    Attributes
    ----------
    names : tuple of str
    stats : ndarray, shape (N, 4)
        Component statistics of the observed panel (:data:`VARIANTS` order).
    lags : ndarray, shape (N,)
        Per-series lag choices, reused inside every replication.
    critvals : list of CriticalValueSet
        Per-series component critical values from the replication set.
    ur : ndarray, shape (N,)
        Observed union statistics.
    boot_ur : ndarray, shape (B, N)
        Union statistics of every replication, scaled like ``ur``.  The
        level-``alpha`` decision compares each ``ur[i]`` with
        :meth:`union_critical_values`.
    alpha : float
        Level of ``critvals`` and of :meth:`union_critical_values`.
    boot_stats : ndarray, shape (B, N, 4)
        Component statistics of every replication.
    """

    names: Tuple[str, ...]
    stats: np.ndarray
    lags: np.ndarray
    critvals: list
    ur: np.ndarray
    boot_ur: np.ndarray
    alpha: float
    boot_stats: np.ndarray

    def union_critical_values(self) -> np.ndarray:
        """Per-series critical values of the union statistic itself.

        The component critical values in :attr:`critvals` only scale the
        union; size control comes from comparing each observed union
        statistic with the left-tail :attr:`alpha`-quantile of its own
        bootstrap distribution.
        """
        return left_tail_quantile(self.boot_ur, self.alpha)


def bootstrap_union_distribution(panel: Panel, cfg: AwbConfig
                                 ) -> UnionBootstrap:
    """Run the two-pass union-statistic bootstrap on a panel.

    Pass one computes per-series component critical values as the
    level-``alpha`` quantiles of the replication set; pass two scales
    both the observed and the replicated component statistics by those
    same values to produce union statistics, as
    :func:`~hdcoint.unitroot.union_stat` does with ``x = -1``.  Another
    negative ``x`` would rescale ``ur`` and ``boot_ur`` together and
    change no decision, so it is fixed.  Missing leading blocks are
    carried through: each bootstrap path starts at its series' first
    observation.

    The observed panel is fitted by group, each series' bits those of its
    own calls: one :func:`~hdcoint.unitroot.select_lags` call per start,
    and one :func:`~hdcoint.unitroot.four_stats` call over the groups
    sharing a start and a lag, in-process: a worker costs more than these
    fits.  The replications are fitted in one call, one task per series
    on ``cfg.workers`` processes (``errors.per_window``), the same bytes
    for any number; each row block builds its own rows of the bootstrap
    paths (multiplier times residual, then the cumulative sum), so a
    round holds paths for only the blocks being fitted.  Each call gives per series or group
    its statistics or its window error, and the round raises the first
    failing series' error in panel order, prefixed with its name, for any
    number of workers: a series too short for its regressions
    (:class:`DataError`), a failed regression or an invalid component
    critical value.  A group's error cannot say which of its series
    failed, so the series of failed groups are refitted one by one with
    the lags already chosen.
    """
    N, T = panel.n_series, panel.n_obs
    B = cfg.reps

    lags = np.empty(N, dtype=int)
    for lead, idx in key_positions(panel.leads).items():
        lags[idx] = select_lags(panel.values[lead:, idx].T, cfg.max_lags)
    groups = key_positions(zip(panel.leads, lags))
    fits = four_stats([panel.values[lead:, idx].T for (lead, _), idx
                       in groups.items()], [lag for _, lag in groups])
    stats = np.empty((N, 4))
    failed = []
    for idx, fit in zip(groups.values(), fits):
        if isinstance(fit, WINDOW_ERRORS):
            failed += idx
        else:
            stats[idx] = fit
    if failed:
        failed.sort()
        stats[failed] = np.concatenate(_named(four_stats(
            [panel.values[panel.leads[j]:, j] for j in failed],
            lags[failed]), [panel.names[j] for j in failed]))

    uhat = residual_panel(panel, cfg.rho_mode, lags=lags)
    xi = _multiplier_matrix(B, T, cfg.gamma, cfg.seed)
    paths = [_Paths(xi, uhat.values[lead:, j], lead)
             for j, lead in enumerate(panel.leads)]

    boot_stats = np.stack(_named(four_stats(paths, lags, cfg.workers),
                                 panel.names), axis=1)
    crit = left_tail_quantile(boot_stats, cfg.alpha)       # (N, 4)
    critvals = _named([attempt(CriticalValueSet, *c, cfg.alpha)
                       for c in crit], panel.names)

    scale = -1.0 / crit                                    # (N, 4)
    boot_ur = np.min(boot_stats * scale[None, :, :], axis=2)
    ur = np.min(stats * scale, axis=1)
    return UnionBootstrap(
        names=panel.names, stats=stats, lags=lags, critvals=critvals,
        ur=ur, boot_ur=boot_ur, alpha=cfg.alpha, boot_stats=boot_stats)
