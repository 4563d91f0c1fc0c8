"""numpy's draws, replayed from raw PCG64 words.

Every random decision of the lab is one of three numpy `Generator` calls,
and each is a fixed function of the PCG64 bit generator's 64-bit output
words w:

    - ``random()`` takes one word: ``(w >> 11) * 2**-53``;
    - ``integers(high)``, for a power of two ``high``, takes one 32-bit
      half-word u: ``(u * high) >> 32`` (numpy's Lemire method never rejects
      for such a range). A word gives its low half first; its high half is
      kept for the next half-word draw, across `random()` calls too, as
      numpy's ``next_uint32`` does;
    - ``integers(0, 2, size=n)`` is n such half-word draws.

`Draws` reads the words from a PCG64's ``random_raw`` a block at a time and
serves these calls from them in plain Python, which costs a fraction of
numpy's per-call dispatch and gives the same values in the same order.

`pcg64_states` seeds PCG64 for consecutive indices i of
``SeedSequence([seed, i])`` at once, for indices that differ only in their
low 32 bits: the SeedSequence mixing runs in numpy uint32 arithmetic over
the vector of indices, and PCG64's two-step seeding in 128-bit arithmetic on
pairs of uint64 limbs; only the results become Python ints. The batched
engine reads a whole chunk's words from these states. A scalar trial's
`Draws` reads a PCG64 that numpy's own SeedSequence seeded, so each engine's
seeding is checked against the other's.
"""
from __future__ import annotations

from itertools import islice
from operator import length_hint

import numpy as np

_TO_UNIT = 2.0**-53
_LOW32 = 0xFFFFFFFF
# Ranges `integers` serves; 1 draws nothing, as in numpy.
_POWERS_OF_TWO = frozenset(1 << k for k in range(1, 33))

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier, as (high, low) uint64 limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH, _MULT_LOW = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))


class Draws:
    """A numpy `Generator`'s `random()`, `integers(high)` and bit blocks,
    replayed from the raw words of a PCG64 bit generator.

    Words are read `block` at a time, the first block when the stream is
    built, so the bit generator runs ahead of the draws served; each refill
    doubles the block, so a long stream takes few reads however small its
    first. `half` is a buffered half-word to serve first (-1 for none).
    """

    __slots__ = ("_source", "_block", "_words", "_next", "_half")

    def __init__(self, source, block: int = 256, half: int = -1):
        self._source = source
        self._block = block
        self._words = iter(())  # iterator over the words not yet served
        self._next = self._words.__next__
        self._half = half
        self._refill(block)

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1) from one word."""
        try:
            return (self._next() >> 11) * _TO_UNIT
        except StopIteration:
            self._refill(1)
            return (self._next() >> 11) * _TO_UNIT

    def integers(self, high: int) -> int:
        """``Generator.integers(high)`` for a power of two `high` <= 2**32."""
        if high not in _POWERS_OF_TWO:
            if high == 1:
                return 0
            raise ValueError(f"high must be a power of two up to 2**32, got {high!r}")
        half = self._half
        if half < 0:
            try:
                word = self._next()
            except StopIteration:
                self._refill(1)
                word = self._next()
            self._half = word >> 32
            return ((word & _LOW32) * high) >> 32
        self._half = -1
        return (half * high) >> 32

    def bits(self, n: int) -> list[int]:
        """``Generator.integers(0, 2, size=n).tolist()``: n half-word draws."""
        out = []
        if n and self._half >= 0:
            out.append(self._half >> 31)
            self._half = -1
            n -= 1
        count = (n + 1) // 2
        if length_hint(self._words) < count:
            self._refill(count)
        for word in islice(self._words, count):
            out.append((word >> 31) & 1)
            out.append(word >> 63)
        if n % 2:
            out.pop()
            self._half = word >> 32
        return out

    def _refill(self, need: int) -> None:
        """Read at least `need` more words, served after the unserved ones."""
        raw = self._source.random_raw(max(need, self._block))
        self._block *= 2
        words = [*self._words, *raw.tolist()]
        self._words = iter(words)
        self._next = self._words.__next__


def as_draws(seed) -> Draws:
    """The draw stream of a library seed: a `Draws` as is, the bit generator
    of a `Generator` (starting from its buffered half-word, which is taken
    from it), or a fresh PCG64 for an int or None, as `default_rng` seeds it.

    A `Generator` is read ahead a block of words at a time, so its state
    after the run depends on that block size; only PCG64 can be replayed.
    A fresh PCG64 reads a first block of 8 words: a `Simulator` seeded by an
    int often draws only a few.
    """
    if isinstance(seed, Draws):
        return seed
    if isinstance(seed, np.random.Generator):
        source = seed.bit_generator
        if not isinstance(source, np.random.PCG64):
            raise TypeError(f"draws are replayed from PCG64 only, got {source!r}")
        state = source.state
        half = -1
        if state["has_uint32"]:
            half = state["uinteger"]
            source.state = {**state, "has_uint32": 0, "uinteger": 0}
        return Draws(source, half=half)
    return Draws(np.random.PCG64(seed), 8)


def _hasher(const: int, mult: int):
    """SeedSequence's hash step over uint32 arrays, with its running constant."""

    def step(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _LOW32
        value = value * const
        return value ^ (value >> 16)

    return step


def _words32(value: int, count: int) -> list[np.ndarray]:
    """`value`'s 32-bit words, least significant first, each repeated
    `count` times; as SeedSequence coerces an int, 0 has one word."""
    return [
        np.full(count, value >> shift & _LOW32, dtype=np.uint32)
        for shift in range(0, max(value.bit_length(), 1), 32)
    ]


def pcg64_states(seed: int, first: int, count: int) -> list[tuple[int, int]]:
    """PCG64's (state, inc) for ``SeedSequence([seed, i])``, i from `first`
    to `first + count - 1`, which must share their bits above the low 32."""
    high = first >> 32
    if first < 0 or (first + count - 1) >> 32 != high:
        raise ValueError("trial indices must be non-negative and share their high words")
    # The entropy words, as SeedSequence coerces [seed, i]: seed's 32-bit
    # words, least significant first, then i's.
    words = _words32(seed, count)
    words.append(np.arange(first & _LOW32, (first & _LOW32) + count, dtype=np.uint32))
    if high:
        words += _words32(high, count)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 outputs, paired low word first,
    # give PCG64's seed (two words) and stream (two words), high word first.
    output = _hasher(_INIT_B, _MULT_B)
    out = [output(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    seed_high, seed_low, inc_high, inc_low = (
        out[k] | out[k + 1] << np.uint64(32) for k in range(0, 8, 2)
    )
    # PCG64's seeding, mod 2**128 on (high, low) limbs: inc from the stream,
    # then two LCG steps around adding the seed to the state.
    inc = (inc_high << np.uint64(1) | inc_low >> np.uint64(63), inc_low << np.uint64(1) | np.uint64(1))
    state = _add128(_mul128(_add128(inc, (seed_high, seed_low))), inc)
    return list(zip(_to_ints(state), _to_ints(inc)))


def _add128(a, b):
    """a + b mod 2**128, each a (high, low) pair of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128(a):
    """a * PCG64's multiplier mod 2**128: the full 128-bit product of the low
    limbs, from 32-bit halves, plus the cross products in the high limb."""
    half, mask = np.uint64(32), np.uint64(_LOW32)
    a0, a1 = a[1] & mask, a[1] >> half
    m0, m1 = _MULT_LOW & mask, _MULT_LOW >> half
    p00, p01, p10, p11 = a0 * m0, a0 * m1, a1 * m0, a1 * m1
    mid = (p00 >> half) + (p01 & mask) + (p10 & mask)
    low = (p00 & mask) | mid << half
    high = p11 + (p01 >> half) + (p10 >> half) + (mid >> half)
    return high + a[1] * _MULT_HIGH + a[0] * _MULT_LOW, low


def _to_ints(value) -> list[int]:
    """Python ints from a (high, low) pair of uint64 arrays."""
    return [high << 64 | low for high, low in zip(value[0].tolist(), value[1].tolist())]
