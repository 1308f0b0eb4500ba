"""NumPy's PCG64 generator, seeded as ``np.random.default_rng(seed)`` does,
in pure Python.

``uniform`` reproduces ``default_rng(seed).uniform(low, high, size)`` bit
for bit: the seed goes through NumPy's ``SeedSequence`` (a 4-word pool of
32-bit hashes, then ``generate_state`` for two 128-bit words), the
generator is the 128-bit LCG with XSL-RR output, and each double is
``(x >> 11) * 2**-53`` scaled onto [low, high).  Importing
``numpy.random`` costs several MB of memory and ~16 ms in a fresh process
(it pulls in OpenSSL through ``secrets``), and the solver needs only a
few hundred draws.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's 32-bit words mixed into 4 words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list[int], n_words64: int) -> list[int]:
    """SeedSequence.generate_state(n_words64, np.uint64), little-endian words."""
    hash_const = _INIT_B
    out32 = []
    for i in range(2 * n_words64):
        value = pool[i % len(pool)] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out32.append(value ^ (value >> 16))
    return [out32[2 * i] | out32[2 * i + 1] << 32 for i in range(n_words64)]


class PCG64:
    """The generator behind ``np.random.default_rng(seed)``."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _generate_state(_seed_pool(seed), 4)
        self._inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + ((s_hi << 64) | s_lo)) & _M128
        self._step()

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def next64(self) -> int:
        self._step()
        s = self._state
        rot = s >> 122
        x = ((s >> 64) ^ s) & _M64
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        span = high - low
        return np.array([low + span * ((self.next64() >> 11) * 2.0**-53) for _ in range(size)])
