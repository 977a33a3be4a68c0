"""Numeric kernels shared by several modules of the package, one
implementation each: the positions of each distinct key of a sequence,
the AR(1) recursion, the triangular factors of a stack of matrices, the
residual factors of every lag-by-BIC choice, the rule that reads a
triangular factor's pivot as singular, the column order of a pivoted
QR, the sign convention of eigen- and singular vectors, the zero-safe
column scale, the soft-threshold and its coordinate sweep over a stack
of windows (bit for bit the sweep of each window alone), the fold edges
and tie rule of the expanding-window cross-validation of the SPECS/PADL
and QR-VECM penalties, the range rule of a level, and the rule that
every penalty level is finite and non-negative.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, ParameterError


def key_positions(keys) -> dict:
    """The positions of each distinct key, in order of first appearance."""
    out: dict = {}
    for j, key in enumerate(keys):
        out.setdefault(key, []).append(j)
    return out


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


#: bytes of the matrices of a stack given to one QR call: numpy's QR
#: copies its whole input, so a stack of windows is factored in blocks
_QR_BLOCK_BYTES = 1 << 16


def triangular_factors(A: np.ndarray) -> np.ndarray:
    """R of each matrix of the stack A (..., n, m), as
    ``np.linalg.qr(A, mode="r")`` gives it, from one QR call per block of
    at most ``_QR_BLOCK_BYTES`` of matrices (at least one matrix)."""
    n, m = A.shape[-2:]
    flat = A.reshape(-1, n, m)
    step = max(1, _QR_BLOCK_BYTES // max(1, A.itemsize * n * m))
    if len(flat) <= step:
        return np.linalg.qr(A, mode="r")
    R = np.empty((len(flat), min(n, m), m))
    for first in range(0, len(flat), step):
        R[first:first + step] = np.linalg.qr(flat[first:first + step],
                                             mode="r")
    return R.reshape(A.shape[:-2] + R.shape[-2:])


def nested_residual_factors(RY: np.ndarray,
                            widths: Sequence[int]) -> np.ndarray:
    """Upper-triangular F, (..., len(widths), q, q), whose F'F is the
    residual cross-product of Y (..., n >= q, q) on the first c columns of
    X, for each c in ``widths``, from RY = R[..., m:], the columns of Y in
    the :func:`triangular_factors` R of A = [X, Y] with X (..., n, m): it
    is R[c:, m:]' R[c:, m:] (X[:, :c] of full rank).  The callers factor A
    once, and may read the fits off the same R."""
    keep = np.arange(RY.shape[-2]) >= np.asarray(widths)[:, None]
    return triangular_factors(np.where(keep[..., None], RY[..., None, :, :],
                                       0.0))


def singular_pivots(F: np.ndarray, norms, n: int) -> np.ndarray:
    """Where a pivot of the triangular factor F (..., rows, q) is at most
    ``n eps`` times ``norms``, its column's norm in the n-row data F
    factors (broadcast against the pivots), whatever their scale; a
    missing (rows < q) or NaN pivot is singular too."""
    piv = np.zeros(F.shape[:-2] + F.shape[-1:])
    piv[..., :min(F.shape[-2:])] = np.abs(np.diagonal(F, axis1=-2, axis2=-1))
    return ~(piv > n * np.finfo(float).eps * norms)


def pivot_order(A: np.ndarray) -> np.ndarray:
    """Column order (..., n) of the column-pivoted QR of each matrix of
    the stack A (..., m >= n, n), by the Businger-Golub rule of LAPACK's
    ``dgeqp3``: each step takes the unchosen column whose residual on the
    chosen ones has the largest norm and swaps it into place, ties going
    to the first in that working order (the smaller index until a swap
    moves a column back).  The residuals are updated by modified
    Gram-Schmidt, one step for the whole stack, and their norms recomputed
    at every step; a QR of ``A`` permuted by this order is the pivoted QR.
    Norms within rounding of each other, as of two exact copies met after
    the first step, may be ordered otherwise than by LAPACK, whose choice
    there follows the rounding of its BLAS kernels.
    """
    m, n = A.shape[-2:]
    # one row per column, so a column's residual is a contiguous row
    res = np.swapaxes(A.reshape(-1, m, n), 1, 2).astype(float, order="C")
    S = res.shape[0]
    rows = np.arange(S)
    order = np.tile(np.arange(n), (S, 1))
    sq = np.einsum("sjm,sjm->sj", res, res)
    for j in range(n - 1):
        pos = np.argmax(sq[rows[:, None], order[:, j:]], axis=1) + j
        col = order[rows, pos]
        order[rows, pos] = order[:, j]
        order[:, j] = col
        if j < n - 2:
            # a zero residual is its own projection: divide by 1, not 0
            top = sq[rows, col]
            norm = np.sqrt(np.where(top > 0.0, top, 1.0))
            q = res[rows, col] / norm[:, None]
            res -= (res @ q[:, :, None]) @ q[:, None, :]
            sq = np.einsum("sjm,sjm->sj", res, res)
    return order.reshape(A.shape[:-2] + (n,))


def column_signs(V: np.ndarray) -> np.ndarray:
    """Sign of each column of V (..., m, k), (..., k): -1 where the
    column's largest-magnitude entry (the first one on ties) is negative,
    else +1, so a zero column gets +1.  ``V * column_signs(V)[..., None, :]``
    pins the sign of eigen- and singular vectors, which depends on the
    solver."""
    top = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :],
                             axis=-2)[..., 0, :]
    return np.where(top < 0, -1.0, 1.0)


def column_scales(x: np.ndarray) -> np.ndarray:
    """Standard deviation of each column of x, with 1 for a constant one."""
    sd = x.std(axis=0)
    sd[sd <= 0] = 1.0
    return sd


def soft_threshold(x, thr):
    """Elementwise soft-thresholding ``sign(x) max(|x| - thr, 0)``."""
    return np.sign(x) * np.maximum(np.abs(x) - thr, 0.0)


def soft_threshold_sweep(x, grad, M, K, thr: float) -> np.ndarray:
    """One row-major Gauss-Seidel pass of x_st = soft(c, thr) / q over
    each window of a stack, with q = M_ss K_tt and c the gradient
    ``grad`` (taken at the input x) of the quadratic with curvature
    M (x) K, updated, plus q x_st; returns the new x, (W, S, T), from
    x and grad (W, S, T), M (W, S, S) and K (W, T, T).  A coordinate with
    q <= 0 is skipped.  Row s's changes delta enter its own gradient as
    M_ss·delta K and every later row u's as M_us·delta K.

    Each coordinate is one numpy step across the windows, with
    :func:`soft_threshold`, so every window comes out bit for bit as the
    per-window sweep on plain floats gives it: the same operations in
    the same order, a change applied only where the coordinate moved.
    A 6 x 6 block (the ``pml_vecm`` short run at N = 6, p = 1) took
    0.31, 0.39 and 0.47 ms for 1, 4 and 32 windows on a 2-core Xeon,
    against 0.046 ms per window on plain floats: a stack pays off from
    about 7 windows, and a lone window pays about 7 times as much."""
    # one contiguous (windows,) vector per coordinate
    x = np.array(x, dtype=float).transpose(1, 2, 0).copy()
    grad = np.array(grad, dtype=float).transpose(1, 2, 0).copy()
    M = np.asarray(M).transpose(1, 2, 0)
    K = np.asarray(K).transpose(1, 2, 0).copy()
    S, T, W = x.shape
    m_diag = np.diagonal(M).T
    q = m_diag[:, None] * np.diagonal(K).T[None]
    skip = q <= 0.0
    partial = skip.any(axis=-1).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(S):
            m_ss, g, row, q_s = m_diag[s], grad[s], x[s], q[s]
            dk = np.zeros((T, W))
            for t in range(T):
                old = row[t]
                new = soft_threshold(g[t] - m_ss * dk[t] + old * q_s[t],
                                     thr) / q_s[t]
                moved = new != old
                if partial[s][t]:
                    moved &= ~skip[s, t]
                count = np.count_nonzero(moved)
                if count == W:
                    dk += (new - old) * K[t]
                    row[t] = new
                elif count:
                    dk = np.where(moved, dk + (new - old) * K[t], dk)
                    row[t] = np.where(moved, new, old)
            changed = np.count_nonzero(dk, axis=0) > 0
            if s + 1 < S and changed.any():
                rest = grad[s + 1:]
                rest[...] = np.where(changed, rest - M[s + 1:, s, None] * dk,
                                     rest)
    return x.transpose(2, 0, 1).copy()


def check_level(alpha: float, what: str = "alpha") -> None:
    """The one range rule of a level: ``alpha`` in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"{what} must lie in (0, 1)")


def penalty_levels(values, what: str) -> np.ndarray:
    """``values`` as floats, each of which must be finite and >= 0."""
    arr = np.asarray(values, dtype=float)
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ParameterError(
            f"{what} must be finite and non-negative, got {values!r}")
    return arr


#: validation blocks of every expanding-window cross-validation
_FOLDS = 5


def tscv_tune(builder: Callable, grid: Sequence, n_rows: int,
              first: Optional[int] = None):
    """Expanding-window cross-validation over a penalty grid.

    ``builder(stop)`` must return a scorer ``f(candidate, rows) ->
    squared errors`` trained on design rows [0, stop).  The validation
    blocks of :func:`expanding_folds` partition [first, n_rows); every
    training segment strictly precedes its validation block.  Mean
    pooled loss decides; ties go to the later grid entry
    (:func:`last_minimum`), so grids should ascend in penalty strength.
    """
    grid = list(grid)
    if not grid:
        raise ParameterError("empty tuning grid")
    if len(grid) == 1:
        return grid[0]
    blocks = expanding_folds(n_rows, first)
    if not blocks:
        raise DataError("no validation rows available")
    losses = np.zeros(len(grid))
    for lo, hi in blocks:
        scorer = builder(lo)
        rows = np.arange(lo, hi)
        for g, cand in enumerate(grid):
            losses[g] += float(np.sum(scorer(cand, rows)))
    return grid[last_minimum(losses)]


def expanding_folds(n_rows: int, first: Optional[int] = None) -> list:
    """Validation blocks ``(lo, hi)``, each training on rows [0, lo), that
    split [first, n_rows) into :data:`_FOLDS` near-equal parts, empty
    ones dropped; ``first`` defaults to max(10, n_rows // 2) and is
    clamped to [2, n_rows - 1]."""
    if first is None:
        first = max(10, n_rows // 2)
    first = min(max(first, 2), n_rows - 1)
    edges = np.linspace(first, n_rows, _FOLDS + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo]


def last_minimum(losses) -> int:
    """Index of the smallest loss, ties going to the later entry."""
    best, best_loss = 0, np.inf
    for g, loss in enumerate(losses):
        if loss <= best_loss:
            best, best_loss = g, loss
    return best
