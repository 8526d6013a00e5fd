"""Seeded Generator streams built in batches.

`np.random.default_rng(entropy)` hashes its entropy through
`np.random.SeedSequence` and seeds a PCG64 from the four 64-bit words that
come out.  `_streams` hashes many entropy rows at once, as numpy array
operations, and hands each PCG64 its words directly, so every stream it
returns is the stream `default_rng(row)` would give.  On a 2-core x86-64
machine with numpy 2.4.6 a batch of 1024 rows took about 3.5 µs per
stream, against about 19 µs per `default_rng` call.

`_trial_batches` is the one loop over per-trial streams: it yields trial
t's stream `default_rng([seed, t])` in batches of `_CHUNK` trials.  The
corpus of the basic and comparison checks, the split check and
`violation_scan` read their trials from it.

The hash copies numpy's SeedSequence: each int is split into 32-bit words,
the first four words fill a pool of four (shorter rows hash as if padded
with zero words), the pool words are mixed into each other, and words
beyond the pool are mixed in by a second loop.  tests/test_seeding.py pins
it against numpy.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# Trials whose streams are built, and whose corpus checks or scan rows are
# stacked, in one batch.
_CHUNK = 1024


def _trial_batches(trials: int, seed: int):
    """(ts, streams) for trials 0, ..., trials - 1, _CHUNK trials at a time:
    ts is a range and streams[k] equals np.random.default_rng([seed, ts[k]])."""
    for start in range(0, trials, _CHUNK):
        ts = range(start, min(start + _CHUNK, trials))
        yield ts, _streams([seed, t] for t in ts)


def _streams(rows) -> list[np.random.Generator]:
    """One Generator per entropy row (a sequence of ints >= 0), each equal
    to np.random.default_rng(row)."""
    words_type = _words_type()
    return [np.random.Generator(np.random.PCG64(words_type(words))) for words in _seed_words(rows)]


@functools.cache
def _words_type() -> type:
    # The ISeedSequence that hands PCG64 its precomputed words.  It is built
    # on first use: a module-level class would import numpy.random with the
    # package, which raised the Monte Carlo benchmarks' peak RSS by 0.5 MiB.
    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self._words

    return Words


def _seed_words(rows) -> np.ndarray:
    """The (n, 4) uint64 array whose row k is
    np.random.SeedSequence(rows[k]).generate_state(4, np.uint64)."""
    entropy = [_int_words(row) for row in rows]
    lengths = np.array([len(words) for words in entropy], dtype=np.intp)
    width = max(_POOL_SIZE, int(lengths.max(initial=0)))
    # Rows shorter than the pool hash as if padded with zero words.
    padded = np.array([words + [0] * (width - len(words)) for words in entropy],
                      dtype=np.uint32).reshape(len(entropy), width)
    hashes = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(padded[:, i], next(hashes)) for i in range(_POOL_SIZE)]
    # Mix every pool word into every other, so late words reach early ones.
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    # Words beyond the pool are mixed into each pool word in turn.
    for src in range(_POOL_SIZE, width):
        more = lengths > src
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(padded[:, src], next(hashes)))
            pool[dst] = np.where(more, mixed, pool[dst])
    # generate_state(4, np.uint64): eight 32-bit words, cycling over the
    # pool, paired little-endian into 64-bit words.
    hashes = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[i % _POOL_SIZE], next(hashes)) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _int_words(row) -> list[int]:
    # The entropy row as SeedSequence reads it: each int split into 32-bit
    # words, least significant first, with 0 as the one word 0.
    words = []
    for n in row:
        n = int(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    # (xor, multiplier) of each successive hash step; the constant moves on
    # by one multiplication per step, whatever the data.
    const = init
    while True:
        step = const * mult & _MASK32
        yield const, step
        const = step


def _hashmix(value: np.ndarray, constants: tuple[int, int]) -> np.ndarray:
    xor, mult = constants
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))
