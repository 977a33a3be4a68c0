"""Numeric kernels shared by several modules of the package, one
implementation each: the AR(1) recursion, the residual factors of every
lag-by-BIC choice, the rule that reads a triangular factor's pivot as
singular, the sign convention of eigen- and singular vectors, the
zero-safe column scale, the soft-threshold and its coordinate sweep, the
fold edges and tie rule of the expanding-window cross-validation of the
SPECS/PADL and QR-VECM penalties, and the rule that every penalty level
is finite and non-negative.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, ParameterError


def ar1_recursion(e: np.ndarray, rho) -> np.ndarray:
    """``x_0 = e_0`` and ``x_t = rho x_{t-1} + e_t`` along the first axis,
    written over the float array ``e``, which is returned.

    Loops over time and is vectorised across the remaining axes; ``rho``
    is a scalar or broadcasts against one time slice, giving one
    coefficient per column.
    """
    for t in range(1, e.shape[0]):
        e[t] = rho * e[t - 1] + e[t]
    return e


def nested_residual_factors(X: np.ndarray, Y: np.ndarray,
                            widths: Sequence[int]) -> np.ndarray:
    """Upper-triangular F, (..., len(widths), q, q), whose F'F is the
    residual cross-product of Y (..., n >= q, q) on the first c columns of
    X (..., n, m), for each c in ``widths``: with R the triangular factor
    of [X, Y], it is R[c:, m:]' R[c:, m:] (X[:, :c] of full rank)."""
    m = X.shape[-1]
    R = np.linalg.qr(np.concatenate([X, Y], axis=-1), mode="r")[..., m:]
    keep = np.arange(R.shape[-2]) >= np.asarray(widths)[:, None]
    return np.linalg.qr(np.where(keep[..., None], R[..., None, :, :], 0.0),
                        mode="r")


def singular_pivots(F: np.ndarray, norms, n: int) -> np.ndarray:
    """Where a pivot of the triangular factor F (..., rows, q) is at most
    ``n eps`` times ``norms``, its column's norm in the n-row data F
    factors (broadcast against the pivots), whatever their scale; a
    missing (rows < q) or NaN pivot is singular too."""
    piv = np.zeros(F.shape[:-2] + F.shape[-1:])
    piv[..., :min(F.shape[-2:])] = np.abs(np.diagonal(F, axis1=-2, axis2=-1))
    return ~(piv > n * np.finfo(float).eps * norms)


def column_signs(V: np.ndarray) -> np.ndarray:
    """Sign of each column of V, (k,): -1 where the column's
    largest-magnitude entry (the first one on ties) is negative, else +1,
    so a zero column gets +1.  ``V * column_signs(V)`` pins the sign of
    eigen- and singular vectors, which depends on the solver."""
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def column_scales(x: np.ndarray) -> np.ndarray:
    """Standard deviation of each column of x, with 1 for a constant one."""
    sd = x.std(axis=0)
    sd[sd <= 0] = 1.0
    return sd


def soft_threshold(x, thr):
    """Elementwise soft-thresholding ``sign(x) max(|x| - thr, 0)``."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def soft_threshold_scalar(c: float, thr: float) -> float:
    """:func:`soft_threshold` of one Python float, bit for bit: a zero
    result is -0.0 for c < 0 and +0.0 otherwise, NaN stays NaN."""
    if c > thr:
        return c - thr
    if c < -thr:
        return c + thr
    return -0.0 if c < 0.0 else abs(c) * 0.0


def soft_threshold_sweep(x, grad, M, K, thr: float) -> np.ndarray:
    """One row-major Gauss-Seidel pass of x_st = soft(c, thr) / q, with
    q = M_ss K_tt > 0 and c the gradient ``grad`` (taken at the input x)
    of the quadratic with curvature M (x) K, updated, plus q x_st; returns
    the new x.  Row s's changes delta enter its own gradient as M_ss·delta K
    and every later row u's as M_us·delta K.  It runs on plain Python
    floats; ``pml_vecm`` cycles (N 6-40, p 1-2) ran 2.2-3.3x faster with
    it than with one numpy step per coordinate."""
    x, grad, M, K = (np.asarray(v).tolist() for v in (x, grad, M, K))
    for s, (row, g) in enumerate(zip(x, grad)):
        m_ss, dk = M[s][s], [0.0] * len(K)
        for t, k_t in enumerate(K):
            q = m_ss * k_t[t]
            if q <= 0.0:
                continue
            old = row[t]
            new = soft_threshold_scalar(g[t] - m_ss * dk[t] + old * q, thr) / q
            if new != old:
                row[t] = new
                d = new - old
                dk = [a + d * k for a, k in zip(dk, k_t)]
        if any(dk):
            for u in range(s + 1, len(x)):
                m_us = M[u][s]
                grad[u] = [gi - m_us * a for gi, a in zip(grad[u], dk)]
    return np.array(x)


def penalty_levels(values, what: str) -> np.ndarray:
    """``values`` as floats, each of which must be finite and >= 0."""
    arr = np.asarray(values, dtype=float)
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ParameterError(
            f"{what} must be finite and non-negative, got {values!r}")
    return arr


def tscv_tune(builder: Callable, grid: Sequence, n_rows: int,
              folds: int = 5, first: Optional[int] = None):
    """Expanding-window cross-validation over a penalty grid.

    ``builder(stop)`` must return a scorer ``f(candidate, rows) ->
    squared errors`` trained on design rows [0, stop).  Validation blocks
    (:func:`expanding_folds`) partition [first, n_rows); every training
    segment strictly precedes its validation block.  Mean pooled loss
    decides; ties go to the later grid entry (:func:`last_minimum`), so
    grids should ascend in penalty strength.
    """
    grid = list(grid)
    if not grid:
        raise ParameterError("empty tuning grid")
    if len(grid) == 1:
        return grid[0]
    blocks = expanding_folds(n_rows, folds, first)
    if not blocks:
        raise DataError("no validation rows available")
    losses = np.zeros(len(grid))
    for lo, hi in blocks:
        scorer = builder(lo)
        rows = np.arange(lo, hi)
        for g, cand in enumerate(grid):
            losses[g] += float(np.sum(scorer(cand, rows)))
    return grid[last_minimum(losses)]


def expanding_folds(n_rows: int, folds: int = 5,
                    first: Optional[int] = None) -> list:
    """Validation blocks ``(lo, hi)``, each training on rows [0, lo), that
    split [first, n_rows) into ``folds`` near-equal parts, empty ones
    dropped; ``first`` defaults to max(10, n_rows // 2) and is clamped to
    [2, n_rows - 1]."""
    if folds < 2:
        raise ParameterError("cross-validation needs at least two folds")
    if first is None:
        first = max(10, n_rows // 2)
    first = min(max(first, 2), n_rows - 1)
    edges = np.linspace(first, n_rows, folds + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo]


def last_minimum(losses) -> int:
    """Index of the smallest loss, ties going to the later entry."""
    best, best_loss = 0, np.inf
    for g, loss in enumerate(losses):
        if loss <= best_loss:
            best, best_loss = g, loss
    return best
