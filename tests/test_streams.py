"""Bit-level pins of the simulated and bootstrap random streams.

These streams seed every benchmark panel and every bootstrap, so they
must not drift.  The CRC32 values of the raw float64 bytes were recorded
before the AR(1) loops were replaced by ``ar1_recursion``.
"""

import zlib

import numpy as np
import pytest

from hdcoint import FactorDgpParams, awb_draw, simulate_factor_dgp
from hdcoint._numeric import ar1_recursion
from hdcoint.bootstrap import _multiplier_matrix
from hdcoint.dgp import simulate_mixed_orders
from hdcoint.rng import substream


def _crc(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


def test_mixed_orders_stream():
    panel, _ = simulate_mixed_orders(2, 2, 1, 200, seed=7)
    assert _crc(panel.values) == 2295369134


def test_factor_dgp_stream():
    params = FactorDgpParams(lam=[[1.0, 0.5], [0.3, -0.2], [0.8, 0.1]],
                             factor_orders=(1, 0), idio_orders=(0, 1, 0),
                             factor_ar=[0.0, 0.7], idio_ar=[0.5, 0.0, -0.3],
                             idio_scale=[1.0, 0.5, 2.0])
    panel, f, u = simulate_factor_dgp(params, 50, burn_in=20, seed=4)
    assert (_crc(panel.values), _crc(f), _crc(u)) == \
        (2250886775, 1610036145, 2073281338)


def test_multiplier_streams():
    xi = _multiplier_matrix(199, 200, 0.85, 3)
    assert xi.flags.c_contiguous
    assert _crc(xi) == 2757392296
    assert _crc(awb_draw(500, 0.85, 42)) == 1722853385


def _oracle(seed, *words):
    """numpy's own generator of the substream (seed, *words)."""
    return np.random.default_rng(np.random.SeedSequence(
        seed & (2**64 - 1), spawn_key=words))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, -1]


@pytest.mark.parametrize("seed", SEEDS)
def test_multiplier_rows_are_seed_sequence_streams(seed):
    awb = zlib.crc32(b"awb")
    for B in (1, 199):
        for T in (1, 2, 300):
            xi = _multiplier_matrix(B, T, 0.85, seed)
            want = np.stack([awb_draw(T, 0.85, _oracle(seed, awb, b))
                             for b in range(B)])
            assert xi.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_is_the_seed_sequence_stream(seed):
    # dgp's key shape, and an integer key taken modulo 2**32
    for keys, words in [
            (("vecm-params", 6, 2, 3), (zlib.crc32(b"vecm-params"), 6, 2, 3)),
            ((2**32 + 5, "awb"), (5, zlib.crc32(b"awb")))]:
        assert substream(seed, *keys).standard_normal(64).tobytes() == \
            _oracle(seed, *words).standard_normal(64).tobytes()


def test_ar1_recursion_matches_scalar_loop():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((40, 3))
    rho = np.array([0.5, -0.3, 1.0])
    want = np.empty_like(e)
    for j in range(3):
        x = 0.0
        for t in range(40):
            x = rho[j] * x + e[t, j]
            want[t, j] = x
    walk = np.cumsum(e[:, 2])
    assert np.array_equal(ar1_recursion(e[:, 2].copy(), 1.0), walk)
    # the paths are written over the draws
    out = ar1_recursion(e, rho)
    assert out is e and np.array_equal(e, want)
