import numpy as np
import pytest

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
