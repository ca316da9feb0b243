"""Deterministic named seed streams.

Every stochastic component takes an integer seed and derives independent
substreams by name, so reruns are bit-identical and parallel execution
cannot change results.

The stream of a path (seed, *parts) is exactly numpy's
`PCG64(SeedSequence(entropy))` with one entropy integer per part: an integer
or bool reduced modulo 2**64 (a negative seed wraps), anything else the CRC-32
of its text. `child_seed` is that SeedSequence's first `uint64` output. Rather
than building one SeedSequence per path, this module re-implements its entropy
hash once, over a batch of paths at a time: an estimate derives the streams of
all its bootstrap draws in one vectorised pass, and hands each PCG64 its
precomputed seed words. `substream` and `child_seed` are the one-path case of
the same code. numpy keeps SeedSequence's output stable across releases
(NEP 19); `tests/test_rng.py` pins the re-implementation to it.
"""

from __future__ import annotations

import functools
import math
import zlib

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# Batches smaller than this hash row by row on Python ints, which beats numpy's per-call overhead.
_MIN_VECTOR_BATCH = 6


def _component(part) -> int:
    if isinstance(part, (bool, int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(part).encode("utf-8"))


def _components(part):
    """A path part as its entropy integer, or as a uint64 array of them for an array-like part."""
    if isinstance(part, range):
        part = np.arange(part.start, part.stop, part.step)
    elif isinstance(part, (list, tuple)):
        part = np.array(part, dtype=object)
    if not isinstance(part, np.ndarray):
        return _component(part)
    if part.dtype.kind in "iu":
        return part.astype(np.uint64)  # two's complement: a negative value wraps as `& (2**64 - 1)` does
    return np.frompyfunc(_component, 1, 1)(part).astype(np.uint64)


# SeedSequence's hash. Each step works alike on Python ints, reduced modulo 2**32 where a product or
# difference leaves that range, and on uint32 arrays of words, which wrap by themselves.


@functools.lru_cache(maxsize=None)
def _rounds(init: int, mult: int, n: int) -> tuple:
    """The (xor, multiplier) constants of a hash's first n rounds."""
    out, h = [], init
    for _ in range(n):
        nxt = (h * mult) & _MASK32
        out.append((h, nxt))
        h = nxt
    return tuple(out)


def _hashmix(value, rounds):
    xor, mult = next(rounds)
    value = (value ^ xor) * mult
    if type(value) is int:
        value &= _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    x, y = 0xCA01F9DD * x, 0x4973F715 * y
    if type(x) is int:
        x &= _MASK32
    if type(y) is int:
        y &= _MASK32
    value = x - y
    if type(value) is int:
        value &= _MASK32
    return value ^ (value >> 16)


def _hash(entropy: list, n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, np.uint64), shape (..., n_words).

    Each entropy integer is a Python int or a uint64 array (all arrays of one shape) whose elements take as
    many 32-bit words as its first one: one below 2**32, else two, low word first.
    """
    words = []
    for e in entropy:
        if isinstance(e, int):
            words.extend((e & _MASK32, e >> 32) if e >> 32 else (e,))
        else:
            words.extend((e.astype(np.uint32), (e >> 32).astype(np.uint32)) if e.flat[0] >> 32
                         else (e.astype(np.uint32),))
    rounds = iter(_rounds(0x43B0D7E5, 0x931E8875, _POOL_SIZE**2 + _POOL_SIZE * max(0, len(words) - _POOL_SIZE)))
    pool = [_hashmix(words[i] if i < len(words) else 0, rounds) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], rounds))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, rounds))
    rounds = iter(_rounds(0x8B51F9DD, 0x58F38DED, 2 * n_words))
    out = [_hashmix(pool[i % _POOL_SIZE], rounds) for i in range(2 * n_words)]
    # numpy's own word order: little-endian pairs of 32-bit words
    return np.ascontiguousarray(np.array(out, dtype="<u4").T).view("<u8").astype(np.uint64)


def _path_state(seed, path, n_words: int) -> np.ndarray:
    """The first n_words uint64 outputs of each path's SeedSequence, shape (*broadcast shape of the parts,
    n_words). Array parts are hashed together, one group per layout of word counts; a batch too small to pay
    for numpy's per-call cost is hashed row by row on Python ints."""
    parts = [_components(p) for p in (seed, *path)]
    arrays = [i for i, p in enumerate(parts) if isinstance(p, np.ndarray)]
    if not arrays:
        return _hash(parts, n_words)
    shape = np.broadcast_shapes(*(parts[i].shape for i in arrays))
    for i in arrays:
        parts[i] = np.broadcast_to(parts[i], shape).ravel()
    m = math.prod(shape)
    out = np.empty((m, n_words), dtype=np.uint64)
    if m < _MIN_VECTOR_BATCH:
        for r in range(m):
            out[r] = _hash([int(p[r]) if isinstance(p, np.ndarray) else p for p in parts], n_words)
        return out.reshape(shape + (n_words,))
    layout = sum((parts[i] >> 32 != 0).astype(np.intp) << j for j, i in enumerate(arrays))
    for key in np.unique(layout):
        rows = np.flatnonzero(layout == key)
        out[rows] = _hash([p[rows] if isinstance(p, np.ndarray) else p for p in parts], n_words)
    return out.reshape(shape + (n_words,))


def child_seeds(seed, *path) -> np.ndarray:
    """Stable integer seeds derived from (seed, *path), for handing to sub-APIs.

    Any part may be array-like (a sequence, array or range); the parts broadcast together and the result,
    uint64, has their broadcast shape: `child_seeds(s, "fit", range(B))[b] == child_seed(s, "fit", b)`.
    """
    return _path_state(seed, path, 1)[..., 0]


def substreams(seed, *path) -> list[np.random.Generator]:
    """The generators of the named streams (seed, *path), one per element of the broadcast parts (C order);
    `substreams(s, "boot", range(B))[b]` draws exactly as `substream(s, "boot", b)`."""
    from ._pcg64_seed import PCG64Seed

    return [np.random.Generator(np.random.PCG64(PCG64Seed(row))) for row in _path_state(seed, path, 4).reshape(-1, 4)]


def substream(seed: int, *path) -> np.random.Generator:
    """Return the generator for the named stream (seed, *path)."""
    return substreams(seed, *path)[0]


def child_seed(seed: int, *path) -> int:
    """Stable integer seed derived from (seed, *path), for handing to sub-APIs."""
    return int(child_seeds(seed, *path))
