"""The uniform draws of `np.random.default_rng(seed)`, bit for bit, without
importing `numpy.random` (whose import loads `secrets`, `hmac` and
libcrypto: about 5.4 MB of RSS and 12-15 ms for one field of draws).

The chain is numpy's own. `SeedSequence` hashes the seed's little-endian
32-bit words into a pool of four and draws four 64-bit words from it;
`PCG64` seeds its 128-bit LCG with them (state 0, increment
2 * initseq + 1, a step, add initstate, a step); each draw steps the LCG
and takes the XSL-RR output of the new state; a double is
`(x >> 11) * 2**-53`, and `uniform` returns `low + (high - low) * u`.
Python ints step the state, `_CHUNK` draws at a time; numpy does the
rotate and the scaling.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, repeat

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_CHUNK = 1024  # draws per batch of Python-int states


def _seed_words(seed: int) -> list:
    """Four 64-bit words, as `SeedSequence(seed).generate_state(4, np.uint64)`."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_b, out = _INIT_B, []
    for value in pool * 2:
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


class PCG64:
    """The generator `np.random.default_rng(seed)` for its `uniform` draws:
    the same stream, so successive calls continue it as numpy's do."""

    def __init__(self, seed):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low, high, size) -> np.ndarray:
        x = np.empty(math.prod(size), dtype=np.uint64)
        mult, inc = _PCG_MULT, self._inc
        for start in range(0, x.size, _CHUNK):
            states = list(accumulate(repeat(None, min(_CHUNK, x.size - start)),
                                     lambda s, _: (s * mult + inc) & _M128, initial=self._state))
            self._state = states[-1]
            words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in states[1:]),
                                  dtype="<u8")
            lo, hi = words[0::2], words[1::2]
            xored, rot = lo ^ hi, hi >> np.uint64(58)
            x[start:start + len(lo)] = xored >> rot | xored << (np.uint64(64) - rot & np.uint64(63))
        u = (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        low, high = float(low), float(high)
        return (low + (high - low) * u).reshape(size)
