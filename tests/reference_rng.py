"""The named seed streams as numpy derives them, one SeedSequence per path.

The tests build every expected stream, seed and fold from here, so the
package's bulk derivation in `interference_lab.rng` is checked against numpy
rather than against itself. A path's entropy is one integer per part: an int
or bool modulo 2**64, anything else the CRC-32 of its text.
"""

from __future__ import annotations

import zlib

import numpy as np


def entropy(seed, *path) -> list[int]:
    return [int(p) % 2**64 if isinstance(p, (bool, int, np.integer)) else zlib.crc32(str(p).encode("utf-8"))
            for p in (seed, *path)]


def substream(seed, *path) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy(seed, *path))))


def child_seed(seed, *path) -> int:
    return int(np.random.SeedSequence(entropy(seed, *path)).generate_state(1, np.uint64)[0])


def fold_assignments(n: int, k_folds: int, seed) -> np.ndarray:
    """One seed's balanced CV folds: row i of the "cv-folds" permutation gets fold i % k_folds."""
    folds = np.empty(n, dtype=int)
    folds[substream(seed, "cv-folds").permutation(n)] = np.arange(n) % k_folds
    return folds
