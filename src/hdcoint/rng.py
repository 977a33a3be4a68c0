"""Deterministic random-stream derivation from a single master seed.

Every stochastic routine in the package draws from a named substream so
that results are reproducible run-to-run and independent of evaluation
order.  Substreams are derived with ``numpy.random.SeedSequence`` spawn
keys; string keys are hashed with CRC32, which is stable across
platforms and processes.  :func:`derive_seed` turns a master seed and a
label into the integer seed of one command or classification round.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream", "as_generator", "derive_seed"]

_MASK64 = (1 << 64) - 1


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(str(key).encode("utf8"))


def substream(seed: int, *keys) -> np.random.Generator:
    """Return the generator for the substream named by ``keys``.

    The same ``(seed, *keys)`` tuple always yields an identical stream;
    distinct key paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(_key_to_int(k) for k in keys),
    )
    return np.random.default_rng(ss)


def derive_seed(seed: int, label: str) -> int:
    """Integer seed named by ``label`` and derived from the master seed."""
    return ((int(seed) + 1) * 1_000_003 + zlib.crc32(label.encode())) % 2**63


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce an integer seed or an existing generator to a generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
