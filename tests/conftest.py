import functools

import numpy as np
import pytest

from specbounds.montecarlo import block_size, sample_X
from specbounds.profile import StdDevProfile
from specbounds.seeding import (
    DENSITY_TAG,
    DIM_TAG,
    MATRIX_TAG,
    PAIR_TAG,
    PROFILE_TAG,
    SCALE_TAG,
    X_TAG,
    RandomStream,
)

# Trials per corpus batch: trial t is row t % CHUNK of batch t // CHUNK.
CHUNK = 1024


@pytest.fixture
def block_diagonal_profile() -> StdDevProfile:
    """d = 7 with support components {0, 3, 5} and {1, 6}, a lone
    b_44 = 2 and a zero row 2."""
    rng = np.random.default_rng(11)
    b = np.zeros((7, 7))
    for idx in ([0, 3, 5], [1, 6]):
        block = rng.uniform(0.5, 2.0, (len(idx), len(idx)))
        b[np.ix_(idx, idx)] = np.triu(block) + np.triu(block, 1).T
    b[4, 4] = 2.0
    return StdDevProfile(7, b)


def dense_blocks(x: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """The (k, m, s, s) stacks of X's diagonal blocks over ``blocks``
    (support_blocks), gathered from a (k, d, d) stack of whole matrices:
    the shape of a montecarlo.x_blocks item."""
    return [x[:, idx[:, :, None], idx[:, None, :]] for idx in blocks]


def dense_x_stacks(p: StdDevProfile, replicates: int, seed: int):
    """The dense (k, d, d) X stacks of replicates 0..R-1 in order, one per
    stream block: block i is sample_X of the stream (seed, X_TAG, i), the
    normals that montecarlo.x_blocks gathers."""
    size = block_size(p.d * (p.d + 1) // 2)
    for block, start in enumerate(range(0, replicates, size)):
        yield sample_X(p, RandomStream(seed, X_TAG, block), min(size, replicates - start))


# The corpus contract, written out here without the package's batch code:
# each reference draws trial t's whole batch, one stream (seed, tag, batch)
# per draw kind with each row's segment sized by its own d, and takes row
# t % CHUNK.  A batch is drawn once and cached, so loops over trials stay
# cheap; the cached arrays are read-only.

def _stream(seed: int, tag: int, batch: int) -> np.random.Generator:
    return RandomStream(seed, tag, batch).generator()


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=4)
def _basic_batch(seed: int, batch: int):
    ds = _stream(seed, DIM_TAG, batch).integers(2, 17, size=CHUNK)
    entries = int(np.sum(ds * ds))
    return _frozen(ds, _stream(seed, PROFILE_TAG, batch).standard_normal(entries),
                   _stream(seed, DENSITY_TAG, batch).random(entries),
                   _stream(seed, PAIR_TAG, batch).standard_normal(2 * int(np.sum(ds))))


def reference_basic_trial(t: int, seed: int):
    """Trial t of basic_corpus(trials, seed) as (b, v, w, gamma)."""
    batch, row = divmod(t, CHUNK)
    ds, normals, uniforms, pairs = _basic_batch(seed, batch)
    d = int(ds[row])
    at = int(np.sum(ds[:row] * ds[:row]))
    b = np.abs(normals[at:at + d * d]).reshape(d, d)
    b = b * (uniforms[at:at + d * d].reshape(d, d) < (1.0, 0.6, 0.3)[t // 3 % 3])
    b = np.triu(b) + np.triu(b, 1).T
    at = 2 * int(np.sum(ds[:row]))
    return b, pairs[at:at + d], pairs[at + d:at + 2 * d], (0.1, 1.0, 10.0)[t % 3]


@functools.lru_cache(maxsize=4)
def _split_batch(seed: int, batch: int):
    ds = _stream(seed, DIM_TAG, batch).integers(2, 33, size=CHUNK)
    scales = _stream(seed, SCALE_TAG, batch).integers(0, 3, size=CHUNK)
    return _frozen(ds, scales,
                   _stream(seed, MATRIX_TAG, batch).standard_normal(int(np.sum(ds * ds))))


def reference_split_trial(t: int, seed: int) -> np.ndarray:
    """The symmetric matrix of trial t of checks.split(trials, seed)."""
    batch, row = divmod(t, CHUNK)
    ds, scales, normals = _split_batch(seed, batch)
    d = int(ds[row])
    at = int(np.sum(ds[:row] * ds[:row]))
    a = normals[at:at + d * d].reshape(d, d) * (0.01, 1.0, 100.0)[scales[row]]
    return (a + a.T) / 2.0


@functools.lru_cache(maxsize=4)
def _pair_batch(seed: int, batch: int, d: int):
    return _frozen(_stream(seed, PAIR_TAG, batch).standard_normal(2 * d * CHUNK))[0]


def reference_pair(t: int, seed: int, d: int) -> np.ndarray:
    """The (2, d) normals (v, then w, before normalising) of trial t of
    geometry.violation_scan(p, trials, seed) for a profile of size d."""
    batch, row = divmod(t, CHUNK)
    return _pair_batch(seed, batch, d)[2 * d * row:2 * d * (row + 1)].reshape(2, d)
