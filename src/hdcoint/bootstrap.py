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

import concurrent.futures
import contextlib
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import ar1_recursion
from .errors import NumericalError, ParameterError
from .panel import DeterministicSpec, Panel, ols_detrend
from .rng import as_generator, substream
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
        Threads fitting the :func:`four_stats` row blocks; default every
        CPU the process may run on.  Any count gives the same bits.
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
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
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
    """Unit-variance AR(1) paths along axis 0 from standard-normal draws."""
    v = np.sqrt(1.0 - gamma * gamma) * e
    v[0] = e[0]
    return ar1_recursion(v, gamma)


def _multiplier_matrix(B: int, T: int, gamma: float, seed: int) -> np.ndarray:
    """Stack of replication multipliers; row ``b`` uses substream (seed, b)."""
    e = np.empty((T, B))
    for b in range(B):
        e[:, b] = substream(seed, "awb", b).standard_normal(T)
    return np.ascontiguousarray(_unit_ar1(e, gamma).T)


def residual_panel(panel: Panel, rho_mode: str = "estimated",
                   lags: Optional[Sequence[int]] = None,
                   spec: Union[str, DeterministicSpec] = DeterministicSpec.TREND) -> Panel:
    """Residual increments feeding the bootstrap DGP.

    Each series is OLS-detrended and filtered as
    ``u_t = zeta_t - rho * zeta_{t-1}`` with ``rho`` either 1 or an
    AR-root estimate from an ADF regression.  The first available value
    is the detrended observation itself (a zero pre-sample), so the NaN
    layout of the input is preserved exactly.
    """
    if rho_mode not in _RHO_MODES:
        raise ParameterError(f"rho_mode must be one of {_RHO_MODES}")
    detrended, _ = ols_detrend(panel, spec)
    vals = detrended.values
    out = np.full_like(vals, np.nan)
    for j in range(panel.n_series):
        lead = panel.leads[j]
        z = vals[lead:, j]
        if rho_mode == "unity":
            rho = 1.0
        else:
            lag = int(lags[j]) if lags is not None else select_lags(z)
            rho = adf_rho(z, lags=lag, spec=DeterministicSpec.NONE)
        u = np.empty_like(z)
        u[0] = z[0]
        u[1:] = z[1:] - rho * z[:-1]
        out[lead:, j] = u
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
    gamma: float
    rho_mode: str
    seed: int
    boot_stats: np.ndarray

    def union_critical_values(self, alpha: Optional[float] = None) -> np.ndarray:
        """Per-series critical values of the union statistic itself.

        The component critical values in :attr:`critvals` only scale the
        union; size control comes from comparing each observed union
        statistic with the left-tail ``alpha``-quantile of its own
        bootstrap distribution.
        """
        return left_tail_quantile(self.boot_ur, self.alpha if alpha is None else alpha)


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
    observation.  With more than one of ``cfg.workers``, the replications
    are fitted on a thread pool shut down when the round returns or raises.
    """
    N, T = panel.n_series, panel.n_obs
    B = cfg.reps

    lags = np.empty(N, dtype=int)
    stats = np.empty((N, 4))
    for j in range(N):
        col = panel.values[panel.leads[j]:, j]
        lags[j] = select_lags(col, DeterministicSpec.TREND, cfg.max_lags)
        stats[j] = four_stats(col, int(lags[j]))[0]

    uhat = residual_panel(panel, cfg.rho_mode, lags=lags)
    xi = _multiplier_matrix(B, T, cfg.gamma, cfg.seed)

    boot_stats = np.empty((B, N, 4))
    workers = cfg.workers or (len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else os.cpu_count() or 1)
    with (concurrent.futures.ThreadPoolExecutor(workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for j in range(N):
            lead = panel.leads[j]
            u = uhat.values[lead:, j]
            z = np.cumsum(xi[:, lead:] * u[None, :], axis=1)
            boot_stats[:, j] = four_stats(z, int(lags[j]), pool)

    crit = left_tail_quantile(boot_stats, cfg.alpha)       # (N, 4)
    critvals = []
    for j in range(N):
        try:
            critvals.append(CriticalValueSet(*crit[j], alpha=cfg.alpha))
        except NumericalError as exc:
            raise NumericalError(
                f"series '{panel.names[j]}': {exc}") from None

    scale = -1.0 / crit                                    # (N, 4)
    boot_ur = np.min(boot_stats * scale[None, :, :], axis=2)
    ur = np.min(stats * scale, axis=1)
    return UnionBootstrap(
        names=panel.names, stats=stats, lags=lags, critvals=critvals,
        ur=ur, boot_ur=boot_ur, alpha=cfg.alpha, gamma=cfg.gamma,
        rho_mode=cfg.rho_mode, seed=cfg.seed, boot_stats=boot_stats)
