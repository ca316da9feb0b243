"""PCG64's seed handed over as precomputed words.

A module of its own so that importing `rng` does not import numpy.random,
which costs ≈20 ms and which numpy itself loads only on first use.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class PCG64Seed(ISeedSequence):
    """A path's `SeedSequence.generate_state(4, np.uint64)`, given to PCG64 in place of that SeedSequence."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._state) or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed PCG64 seed only gives the 4 uint64 words PCG64 asks for")
        return self._state
