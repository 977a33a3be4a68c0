"""Deterministic random-stream derivation from a single master seed.

Every stochastic routine in the package draws from a named substream so
that results are reproducible run-to-run and independent of evaluation
order.  One rule derives them: substream ``(seed, *keys)`` is the PCG64
stream that ``numpy.random.default_rng(numpy.random.SeedSequence(seed &
(2**64 - 1), spawn_key=keys))`` gives, bit for bit.  String keys are
hashed with CRC32, which is stable across platforms and processes, and
integer keys are taken modulo 2**32.  The derivation runs numpy's
``SeedSequence`` hash and PCG64's seeding here, over a whole replication
axis at once (:func:`standard_normal_rows`), so a replication set builds
one generator instead of one per replication; :func:`substream` is its
one-stream case.  :func:`derive_seed` turns a master seed and a label
into the integer seed of one command or classification round.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream", "standard_normal_rows", "as_generator",
           "derive_seed"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64's
# 128-bit LCG multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK32
    return zlib.crc32(str(key).encode("utf8"))


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays: xor with a running constant,
    which then steps by ``mult``, multiply by it, fold the high half."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value *= np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _pcg64_states(seed: int, keys: np.ndarray) -> list:
    """PCG64 ``(state, inc)`` of each substream ``(seed, *keys[:, r])``:
    ``keys`` is a (number of keys, R) uint32 array of key words.

    The words of ``SeedSequence(seed, spawn_key=keys[:, r])`` are its
    entropy padded to the pool size, then one word per key; the hash
    runs on uint32 arrays over the R substreams, whose multipliers wrap
    alike.  PCG64 then seeds itself with ``pcg_setseq_128_srandom_r``
    from the four 64-bit words ``generate_state(4, uint64)`` gives: the
    first two are the initial state, the last two the stream.
    """
    entropy = int(seed) & _MASK64
    head = np.array([entropy & _MASK32, entropy >> 32, 0, 0], dtype=np.uint32)
    words = [np.full(keys.shape[1], w) for w in head] + list(keys)

    def mix(x, y):
        out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return out ^ (out >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    state = np.array([generate(pool[i % _POOL]) for i in range(8)],
                     dtype=np.uint64)
    # little-endian uint32 pairs make the four uint64 words
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(
            *(state[0::2] | state[1::2] << 32).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append(
            ((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _set_pcg64(bit_generator: np.random.PCG64, state: int, inc: int):
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}


def _key_words(keys, count: int) -> np.ndarray:
    """Key words of ``count`` substreams, (len(keys), count)."""
    return np.repeat(np.array([_key_to_int(k) for k in keys],
                              dtype=np.uint32)[:, None], count, axis=1)


def substream(seed: int, *keys) -> np.random.Generator:
    """Return the generator for the substream named by ``keys``.

    The same ``(seed, *keys)`` tuple always yields an identical stream;
    distinct key paths yield statistically independent streams.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    _set_pcg64(rng.bit_generator,
               *_pcg64_states(seed, _key_words(keys, 1))[0])
    return rng


def standard_normal_rows(out: np.ndarray, seed: int, *keys) -> np.ndarray:
    """Fill row ``b`` of the C-contiguous 2-D float array ``out`` with the
    standard normals of substream ``(seed, *keys, b)`` and return ``out``.

    Row ``b`` holds what ``substream(seed, *keys, b).standard_normal``
    draws, bit for bit; one generator is re-seeded for every row.
    """
    B = out.shape[0]
    words = np.vstack([_key_words(keys, B), np.arange(B, dtype=np.uint32)])
    rng = np.random.Generator(np.random.PCG64(0))
    for b, state in enumerate(_pcg64_states(seed, words)):
        _set_pcg64(rng.bit_generator, *state)
        rng.standard_normal(out=out[b])
    return out


def derive_seed(seed: int, label: str) -> int:
    """Integer seed named by ``label`` and derived from the master seed."""
    return ((int(seed) + 1) * 1_000_003 + zlib.crc32(label.encode())) % 2**63


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce an integer seed or an existing generator to a generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
