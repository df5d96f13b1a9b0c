"""Reproducible random sources.

All randomness in the package flows through RandomSource: a (seed, stream)
pair mapped onto a counter-based Philox generator.  The map is the fixed
splitting function used everywhere, so trial j of any estimator draws from
the generator keyed by (seed, j), whatever the order the trials run in.
Two sources with different stream indices are independent for practical
purposes; the same pair always reproduces the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream index identifying one reproducible RNG stream.

    seed must fit in 64 unsigned bits; stream is any non-negative integer
    (it occupies the second word of the Philox key).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream < 0:
            raise ValueError(f"stream index must be non-negative, got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream) pair.

        Each call starts from the beginning of the stream, so functions
        that take a RandomSource are pure: same source, same output.
        """
        key = [self.seed, self.stream & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for trial `index` under master `seed`.

    Shorthand used by the Monte Carlo drivers; equivalent to
    RandomSource(seed, index).generator().
    """
    return RandomSource(seed, index).generator()
