"""numpy's ``default_rng(seed)`` stream for the two draws X-means makes.

``default_rng(seed)`` is a generator over ``PCG64(SeedSequence(seed))``.
``Generator`` reproduces that chain bit for bit for ``integers(n)`` and
``choice(n, p=p)`` in plain Python ints and floats: without numpy, and so
without numpy's random module, whose import maps ``secrets``, ``hmac`` and
OpenSSL (about 6 MiB resident) into the process.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from itertools import accumulate

from .errors import ComputationError

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_P_ATOL = math.sqrt(2.0**-52)  # how far numpy lets sum(p) stray from 1 for float64


def _entropy_words(entropy) -> list[int]:
    """An int as its little-endian uint32 words (0 as one word); a tuple or
    list as its items' words in order."""
    if isinstance(entropy, (tuple, list)):
        return [word for item in entropy for word in _entropy_words(item)]
    n = operator.index(entropy)
    if n < 0:
        raise ComputationError(f"seed entropy must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_state(entropy) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``: the entropy words
    hashed and mixed into a pool of 4 uint32 words, then drawn out as 8."""
    words = _entropy_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _kahan_sum(values: list[float]) -> float:
    """The compensated sum numpy checks ``p`` against 1 with."""
    total, carry = values[0], 0.0
    for value in values[1:]:
        y = value - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


class Generator:
    """numpy's ``default_rng(seed)`` for ``integers(n)`` and ``choice(n, p=p)``;
    ``seed`` is a nonnegative int or a (nested) tuple of them."""

    def __init__(self, seed) -> None:
        high, low, inc_high, inc_low = _seed_state(seed)
        # PCG64's srandom_r: one step from state 0 (which gives inc), the seed added, one step
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        self._state = ((self._inc + (high << 64 | low)) * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._half: int | None = None  # high half of a 64-bit draw that _next32 split

    def _next64(self) -> int:
        """One PCG64 step, then its XSL-RR output."""
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        value = (self._state >> 64 ^ self._state) & _MASK64
        rotation = self._state >> 122
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        """The low half of a 64-bit draw; the next call returns its high half,
        also when a 64-bit draw comes in between."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def integers(self, n: int) -> int:
        """A uniform int in [0, n): Lemire's multiply-and-reject on 32-bit draws
        when n <= 2**32, else on 64-bit draws. n == 1 draws nothing."""
        n = operator.index(n)
        if n < 1:
            raise ComputationError(f"integers needs n >= 1, got {n}")
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n <= 1 << 32 else (64, self._next64)
        mask = (1 << bits) - 1
        product = draw() * n
        if product & mask < n:
            threshold = (1 << bits) % n
            while product & mask < threshold:
                product = draw() * n
        return product >> bits

    def choice(self, n: int, p) -> int:
        """An index in [0, n) drawn with probabilities ``p``: one uniform double
        placed on the normalized cumulative sum of ``p``, added in sequence as
        numpy's ``cumsum`` adds."""
        p = [float(x) for x in p]
        if n < 1 or len(p) != n:
            raise ComputationError(f"choice needs n >= 1 probabilities, got n={n} and {len(p)}")
        total = _kahan_sum(p)
        if math.isnan(total):
            raise ComputationError("probabilities contain NaN")
        if any(x < 0 for x in p):
            raise ComputationError("probabilities are not nonnegative")
        if abs(total - 1.0) > _P_ATOL:
            raise ComputationError(f"probabilities sum to {total!r}, not 1")
        cdf = list(accumulate(p))
        last = cdf[-1]
        uniform = (self._next64() >> 11) * (1.0 / 9007199254740992.0)
        return bisect_right([x / last for x in cdf], uniform)
