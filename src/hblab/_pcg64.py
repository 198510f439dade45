"""A pure-Python ``numpy.random.default_rng(seed)`` for the draws hblab makes.

``Generator(seed)`` returns the same numbers, bit for bit, as numpy's
``default_rng(seed)`` for ``random``, ``uniform`` and ``integers`` with a
range below 2^32.  It follows numpy's own algorithms:

- ``SeedSequence(seed)`` with pool size 4, then ``generate_state(4, uint64)``;
- PCG64 (O'Neill 2014, XSL-RR 128/64): seeding, stepping and output;
- doubles as (x >> 11)·2^-53 of a 64-bit draw;
- bounded integers by Lemire's method (Lemire 2019, ACM TOMACS) on 32-bit
  draws, the low half of a 64-bit draw first and its high half cached.

``tests/test_pcg64.py`` compares the draws with numpy's.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): four 64-bit words."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
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

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state.append(value ^ (value >> 16))
    # Pairs of 32-bit words read as little-endian 64-bit words.
    return [state[2 * i] | (state[2 * i + 1] << 32) for i in range(4)]


class Generator:
    """The draws of ``numpy.random.default_rng(seed)`` that hblab uses."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        self._inc = ((((w[2] << 64) | w[3]) << 1) | 1) & _M128
        self._state = 0
        self._step()
        self._state = (self._state + ((w[0] << 64) | w[1])) & _M128
        self._step()
        self._half = None  # the cached high half of a 64-bit draw

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self) -> int:
        self._step()
        s = self._state
        x, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float, size: int | None = None):
        """low + (high - low)·random(): one float, or a list of ``size``."""
        low, width = float(low), float(high) - float(low)
        if size is None:
            return low + width * self.random()
        return [low + width * self.random() for _ in range(size)]

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in [low, high), for high - low < 2^32."""
        n = high - low
        if not 0 < n < 1 << 32:
            raise ValueError(f"integers needs 0 < high - low < 2^32, got {n}")
        if n == 1:
            return low  # numpy draws nothing for a one-point range
        m = self._next32() * n
        if (m & _M32) < n:
            threshold = ((1 << 32) - n) % n
            while (m & _M32) < threshold:
                m = self._next32() * n
        return low + (m >> 32)
