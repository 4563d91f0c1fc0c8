"""A stand-in for numpy's `Generator` that draws from a given list of raw
PCG64 words, so that tests can feed the scalar engine crafted words that
land on exact float ties, which no seed of a real Generator reaches.

It serves the three calls the lab makes, decoded as numpy decodes them (see
the `sqpclab.batch` docstring): `random()`, `integers(high)` for a power of
two `high`, and `integers(0, 2, size=n)`. `tests/test_draws.py` checks it
against a real `Generator`. Reading past the last word raises StopIteration.
"""
import numpy as np


class WordReplay:
    def __init__(self, words):
        self._next = map(int, words).__next__
        self._half = None  # the high half of the last word, not yet drawn

    def random(self) -> float:
        return (self._next() >> 11) * 2.0**-53

    def integers(self, low, high=None, size=None):
        if high is None:
            low, high = 0, low
        assert low == 0 and 2 <= high <= 2**32 and not high & (high - 1), (low, high)
        if size is None:
            return (self._half_word() * high) >> 32
        return np.array([(self._half_word() * high) >> 32 for _ in range(size)])

    def _half_word(self) -> int:
        """The buffered high half, or the low half of a new word."""
        half, self._half = self._half, None
        if half is None:
            word = self._next()
            half, self._half = word & 0xFFFFFFFF, word >> 32
        return half
