"""numpy's PCG64 seeding and draws, in raw-word terms, for the batched engine.

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

The batched engine decodes each lane's raw words by these rules. The scalar
engine draws through numpy's own `Generator`, so the lane tests, which
compare the two engines report for report, check the rules against numpy.

`pcg64_states` seeds PCG64 for consecutive indices i of
``SeedSequence([seed, i])`` at once, for indices that differ only in their
low 32 bits: the SeedSequence mixing runs in numpy uint32 arithmetic over
the vector of indices, and PCG64's two-step seeding in 128-bit arithmetic on
pairs of uint64 limbs. The results stay limbs, no Python int built, and
the batched engine writes each lane's straight into one PCG64's state words
before reading its row: 1.6-2.2 µs a lane at L=1 for the write,
`random_raw` and the row copy. A scalar trial's `Generator` is seeded by
numpy's own SeedSequence, so the lane tests check this seeding too.
"""
from __future__ import annotations

import numpy as np

_LOW32 = 0xFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier, as (high, low) uint64 limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HIGH, _MULT_LOW = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))


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


def pcg64_states(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64's state and inc for ``SeedSequence([seed, i])``, i from `first`
    to `first + count - 1`, which must share their bits above the low 32:
    a (count x 4) uint64 array of (state low, state high, inc low, inc
    high), 0.25 ms for 1024 indices. `batch._pcg64_reader` writes a row of it
    into a PCG64's state words, 1.6-2.2 µs a lane with its read at L=1, after
    checking how numpy orders those words, which numpy does not document."""
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
    return np.stack((state[1], state[0], inc[1], inc[0]), axis=1)


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

