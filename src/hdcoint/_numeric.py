"""Numeric kernels shared by several modules of the package, one
implementation each: the AR(1) recursion, the soft-threshold and the
expanding-window cross-validation of the SPECS/PADL and QR-VECM penalties.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, ParameterError


def ar1_recursion(e: np.ndarray, rho) -> np.ndarray:
    """``x_0 = e_0`` and ``x_t = rho x_{t-1} + e_t`` along the first axis.

    Loops over time and is vectorised across the remaining axes; ``rho``
    is a scalar or broadcasts against one time slice, giving one
    coefficient per column.
    """
    out = np.empty(np.shape(e))
    out[0] = e[0]
    for t in range(1, out.shape[0]):
        out[t] = rho * out[t - 1] + e[t]
    return out


def soft_threshold(x, thr):
    """Elementwise soft-thresholding ``sign(x) max(|x| - thr, 0)``."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


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
