import numpy as np
import pytest

from specbounds.montecarlo import X_TAG, RandomStream, block_size, sample_X
from specbounds.profile import StdDevProfile


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
