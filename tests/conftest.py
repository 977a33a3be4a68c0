"""Shared oracle helpers for the test suite."""

import numpy as np
import pytest


def canonical_correlations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical correlations between the column spaces of two matrices."""
    qa, _ = np.linalg.qr(a - a.mean(axis=0))
    qb, _ = np.linalg.qr(b - b.mean(axis=0))
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def subspace_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between two column spaces, in degrees."""
    qa, _ = np.linalg.qr(np.atleast_2d(a))
    qb, _ = np.linalg.qr(np.atleast_2d(b))
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.degrees(np.arccos(np.clip(s.min(), -1.0, 1.0))))


def slope_detrend(x: np.ndarray) -> np.ndarray:
    """Remove a fitted slope-only trend, the factor extraction estimand."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1:
        x = x.T
    t = np.arange(1.0, x.shape[0] + 1.0)
    tc = t - t.mean()
    tau = (tc @ x) / (tc @ tc)
    return x - np.outer(t, tau)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def register_lane(monkeypatch):
    """``register_method`` for one test: the lane leaves both of the
    harness's tables when the test ends."""
    from hdcoint import harness

    def register(name, fn):
        monkeypatch.setitem(harness._LANES, name, None)
        monkeypatch.setitem(harness._REGISTRY, name, None)
        harness.register_method(name, fn)
    return register
