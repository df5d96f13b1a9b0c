"""Reproducible random sources.

All randomness in the package flows through RandomSource: a (seed, stream)
pair mapped onto a counter-based Philox generator.  The map is the fixed
splitting function used everywhere, so trial j of any estimator draws from
the generator keyed by (seed, j), whatever the order the trials run in.
Two sources with different stream indices are independent for practical
purposes; the same pair always reproduces the same draws.

substream(seed, j) builds that generator afresh; substreams(seed, count)
gives the same streams for j = 0..count-1 from one generator that is
re-keyed in place between trials, which costs about a tenth as much.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream index identifying one reproducible RNG stream.

    seed and stream must each fit in 64 unsigned bits: they are the two
    words of the Philox key, so distinct pairs give distinct keys.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream <= _MASK64:
            raise ValueError(f"stream index must be a 64-bit unsigned integer, got {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream) pair.

        Each call starts from the beginning of the stream, so functions
        that take a RandomSource are pure: same source, same output.
        """
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for trial `index` under master `seed`.

    Equivalent to RandomSource(seed, index).generator(); the per-call
    reference that substreams() reproduces.
    """
    return RandomSource(seed, index).generator()


def substreams(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Generators for trials 0..count-1 under master `seed`, in order.

    Yields one Generator, re-keyed before each yield: its Philox state is
    set to key (seed, i), a zero counter and an empty buffer, which is the
    state that substream(seed, i) starts in, so the draws are the same.
    Finish drawing for trial i before asking for trial i+1.
    """
    RandomSource(seed)  # validates the seed
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(count):
        key[1] = i
        bitgen.state = state
        yield gen
