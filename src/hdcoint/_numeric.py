"""Numeric kernels shared by several modules of the package."""

from __future__ import annotations

import numpy as np


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
