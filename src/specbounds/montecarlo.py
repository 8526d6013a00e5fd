"""Seeded sampling of X, g, and Y and estimation of the stochastic
quantities with standard errors.

Determinism contract: replicates are drawn in blocks.  When a replicate
needs n standard normals, a block holds K = max(1, 32768 // n) replicates
(256 KiB of normals), and replicate r of a run with seed s is row r % K of
block r // K, which is drawn from the stream (s, tag, r // K).  X needs
n = d(d+1)/2, g for gdot needs d and g for ymax the rank of B^-.  K
depends only on n, so replicate r's value does not depend on the replicate
count, and the last block of a run is a prefix of the full block.  The
reduction over the replicate-indexed value array keeps the bits of
np.mean and np.std(ddof=1) / sqrt(R): it makes their ufunc calls in their
order (numpy pairwise summation), without their wrapper layers.

norm, rowmax, entrymax and distsq share the X tag (common random numbers):
on each replicate they see the same X, so ||X|| >= max row norm >= max
|X_ij| carries over to the means.  estimate is the one entry point for
the profile quantities: each X block is drawn once and read by every X
quantity asked for, and est_norm, est_rowmax and est_entrymax are
estimate with one quantity.  gdot and ymax have tags of their own, so the
two terms of the Theorem 4.1 bound are independent.

Block rule: X_ij = 0 wherever b_ij = 0, so X is block-diagonal over the
connected components of the profile's support (profile.support_blocks).
estimate draws X through x_blocks: each stream block still draws all
d(d+1)/2 normals, which are gathered straight into one (k, m, s, s) stack
per block size, and each X quantity of a draw is the largest over its
blocks of one per-block reduction (blockwise_max): the block's spectral
norm, with one stacked eigensolve per block size (block_norms), the square
root of its largest row sum of squares, and its largest |entry|.  Every
profile takes this one path: a connected profile is one block, X itself,
gathered as a (k, 1, d, d) stack; a diagonal one is d 1 x 1 blocks, which
return |X_ii| exactly.  entrymax is exact on every profile.  norm and
rowmax keep the bits of the dense X on a connected profile and on a
diagonal one, and rowmax also when no component has more than two indices
(a row sum of at most two terms is one rounding in any order); elsewhere
they may differ from the dense X in the last bits.  est_distance_sq is a
linear form in the same normals.

Standard normals come from numpy's Generator (ziggurat transform); the
transform is fixed within a build but not promised across numpy versions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _check_vector
from .linalg import _clipped_factor, _descending_eigh, _spectral_norms
from .profile import StdDevProfile, support_blocks
from .seeding import GDOT_TAG, X_TAG, YMAX_TAG, RandomStream

# Quantities estimated from a profile alone; distsq also needs v and w.
PROFILE_QUANTITIES = ("norm", "rowmax", "entrymax", "gdot", "ymax")
# Profile quantities that estimate reduces from the X stacks.
X_QUANTITIES = ("norm", "rowmax", "entrymax")
# Each X quantity's per-block reduction, from a (j, s, s) stack of blocks
# to its j values.  The norm core is looked up when called, as block_norms
# looks it up, so that a test can wrap it.
_BLOCK_VALUES = {
    "norm": lambda s: _spectral_norms(s),
    "rowmax": lambda s: np.sqrt(np.sum(s * s, axis=2).max(axis=1)),
    "entrymax": lambda s: np.abs(s).max(axis=(1, 2)),
}

# Standard normals per block (256 KiB of float64).
BLOCK_NORMALS = 32768


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(R))."""

    quantity: str
    mean: float
    stderr: float
    replicates: int
    seed: int

    def to_dict(self) -> dict:
        # the fields of dataclasses.asdict, in its order, without its deep copy
        return {"quantity": self.quantity, "mean": self.mean, "stderr": self.stderr,
                "replicates": self.replicates, "seed": self.seed}


def block_size(n: int) -> int:
    """Replicates per block when each replicate needs n normals: K =
    max(1, BLOCK_NORMALS // n), so a block holds at most 256 KiB of
    normals unless one replicate alone is larger."""
    return max(1, BLOCK_NORMALS // max(n, 1))


def sample_X(p: StdDevProfile, stream: RandomStream, k: int | None = None) -> np.ndarray:
    """Draws of the symmetric matrix X_ij = b_ij * g_ij: one d x d matrix,
    or a (k, d, d) stack when k is given.

    Each matrix takes d(d+1)/2 consecutive normals from the stream, which
    fill its lower triangle (including the diagonal) row by row and are
    mirrored, so entries with i >= j are independent and X is exactly
    symmetric.  Matrix j of a stack takes normals j*d(d+1)/2 onward, so a
    stack of k matrices is a prefix of any larger stack from the same
    stream.  No estimator calls it: it is the dense reference that the
    tests and the benchmark tracer name.
    """
    shape = () if k is None else (k,)
    lower = stream.generator().standard_normal(shape + (p.d * (p.d + 1) // 2,))
    return _gather(lower, _lower_positions(p.d), p.b)


def _gather(lower: np.ndarray, pos: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The entries b * g at the lower-triangle positions pos, for each row of
    # normals in lower.
    x = np.take(lower, pos, axis=-1)
    x *= b
    return x


@functools.lru_cache(maxsize=16)
def _lower_positions(d: int) -> np.ndarray:
    # (d, d) map from (i, j) to the index of entry (max(i, j), min(i, j)) in
    # the row-by-row lower triangle, so taking it mirrors the triangle.
    i, j = np.indices((d, d), dtype=np.intp)
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    pos = hi * (hi + 1) // 2 + lo
    pos.flags.writeable = False
    return pos


def x_blocks(p: StdDevProfile, blocks: list[np.ndarray], replicates: int, seed: int):
    """The draws of X for replicates 0..R-1, one item per stream block,
    taken apart into X's diagonal blocks over ``blocks`` (support_blocks(p)).

    An item is a list of (k, m, s, s) stacks, one per (m, s) entry of
    blocks: entry [r, c] is X[C, C] of replicate r for the component C =
    row c of the entry.  Each stream block draws all d(d+1)/2 normals, as
    sample_X does, and gathers each block straight from them, so entries
    keep their bits and no d x d matrix is built.  A connected profile is
    the one block [arange(d)], X itself, whose stack is (k, 1, d, d).
    """
    pos = _lower_positions(p.d)
    maps = [(pos[idx[:, :, None], idx[:, None, :]], p.b[idx[:, :, None], idx[:, None, :]])
            for idx in blocks]
    for lower in _normal_stacks(p.d * (p.d + 1) // 2, replicates, seed, X_TAG):
        yield [_gather(lower, at, b) for at, b in maps]


def blockwise_max(norm, stacks: list[np.ndarray]) -> np.ndarray:
    """The largest value of norm over the blocks of each of the k draws:
    norm maps a (j, r, c) stack to its j values, and runs once per stack of
    (k, m, r, c) blocks, on all k * m of them."""
    maxima = (norm(s.reshape(-1, *s.shape[2:])).reshape(s.shape[:2]).max(axis=1) for s in stacks)
    return functools.reduce(np.maximum, maxima)


def estimate(
    p: StdDevProfile,
    quantities,
    replicates: int,
    seed: int,
) -> dict[str, McEstimate]:
    """Estimates of the quantities named in ``quantities`` (any of
    PROFILE_QUANTITIES), keyed in the order asked.  The X quantities come
    from one pass over x_blocks, each stream block drawn once and read by
    every one of them; gdot and ymax come from est_gdot and est_ymax."""
    _check_replicates(replicates)
    unknown = [q for q in quantities if q not in PROFILE_QUANTITIES]
    if unknown:
        raise ValueError(f"not a profile quantity: {unknown[0]!r}")
    values = {q: [] for q in quantities if q in X_QUANTITIES}
    if values:
        for stacks in x_blocks(p, support_blocks(p), replicates, seed):
            for quantity, per_block in values.items():
                per_block.append(blockwise_max(_BLOCK_VALUES[quantity], stacks))
    others = {"gdot": est_gdot, "ymax": est_ymax}
    return {q: others[q](p, replicates, seed) if q in others
            else _reduce(values[q], replicates, seed, q) for q in quantities}


def est_norm(p: StdDevProfile, replicates: int, seed: int) -> McEstimate:
    """E ||X||, the expected spectral norm."""
    return estimate(p, ("norm",), replicates, seed)["norm"]


def est_rowmax(p: StdDevProfile, replicates: int, seed: int) -> McEstimate:
    """E max_i sqrt(sum_j X_ij^2), the largest row Euclidean norm."""
    return estimate(p, ("rowmax",), replicates, seed)["rowmax"]


def est_entrymax(p: StdDevProfile, replicates: int, seed: int) -> McEstimate:
    """E max_ij |X_ij|."""
    return estimate(p, ("entrymax",), replicates, seed)["entrymax"]


def block_norms(stacks: list[np.ndarray]) -> np.ndarray:
    """||X|| for each of the k draws of an x_blocks item: the largest norm
    among X's diagonal blocks, with one stacked eigensolve per block size.
    The mirrored blocks of a valid profile skip spectral_norm's checks."""
    return blockwise_max(_spectral_norms, stacks)


def est_gdot(p: StdDevProfile, replicates: int, seed: int) -> McEstimate:
    """E max_i sqrt(sum_j b_ij^2 g_j^2) with one shared g per replicate."""
    variance = p.variance_matrix  # symmetric, so (g*g) @ B has rows B (g*g)
    values = (np.sqrt(np.max((g * g) @ variance, axis=1))
              for g in _normal_stacks(p.d, replicates, seed, GDOT_TAG))
    return _reduce(values, replicates, seed, "gdot")


def est_ymax(p: StdDevProfile, replicates: int, seed: int) -> McEstimate:
    """E max_i Y_i for Y ~ N(0, B^-), sampled as Y = L g with L the factor
    of linalg.psd_split(B), built from B's eigenpairs alone: B+ and B- are
    not formed.  When B is PSD the factor is empty, Y = 0, and the estimate
    is exactly (0, 0); a diagonal B gives it with no eigensolve or draw."""
    _check_replicates(replicates)
    variance = p.variance_matrix
    if np.count_nonzero(variance) == np.count_nonzero(variance.diagonal()):
        return McEstimate("ymax", 0.0, 0.0, replicates, seed)
    factor = _clipped_factor(variance, *_descending_eigh(variance))
    values = (np.max(g @ factor.T, axis=1)
              for g in _normal_stacks(factor.shape[1], replicates, seed, YMAX_TAG))
    return _reduce(values, replicates, seed, "ymax")


def est_distance_sq(
    p: StdDevProfile,
    v: np.ndarray,
    w: np.ndarray,
    replicates: int,
    seed: int,
) -> McEstimate:
    """E (<v, Xv> - <w, Xw>)^2, the Monte Carlo oracle for the natural
    metric.  The increment sum_{i >= j} b_ij (v_i v_j - w_i w_j) (2 - delta_ij)
    g_ij is one dot product with the X normals that x_blocks gathers."""
    v = _check_vector(v, p.d)
    w = _check_vector(w, p.d)
    # A non-finite or huge v or w gives inf * 0 or inf - inf, so NaN values,
    # which _reduce refuses as a non-finite estimate.
    with np.errstate(invalid="ignore", over="ignore"):
        # Each normal's coefficient, summed over the entries that
        # _lower_positions maps to it: 0 + x on the diagonal, and 0 + x + x
        # = 2x off it, exactly.
        coef = np.bincount(_lower_positions(p.d).ravel(),
                           (p.b * (np.outer(v, v) - np.outer(w, w))).ravel())
        values = ((g @ coef) ** 2 for g in _normal_stacks(coef.size, replicates, seed, X_TAG))
        return _reduce(values, replicates, seed, "distsq")


def _normal_stacks(n: int, replicates: int, seed: int, tag: int):
    # (k, n) standard normal stacks for replicates 0..R-1 in order: replicate
    # r is row r % K of block r // K, drawn from the stream (seed, tag, r // K).
    size = block_size(n)
    for block, start in enumerate(range(0, replicates, size)):
        k = min(size, replicates - start)
        yield RandomStream(seed, tag, block).generator().standard_normal((k, n))


def _check_replicates(replicates: int) -> None:
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")


def _reduce(values, replicates: int, seed: int, quantity: str) -> McEstimate:
    # values yields one array per block; nothing is drawn before the check.
    _check_replicates(replicates)
    values = np.concatenate(list(values))
    # np.mean(values) and np.std(values, ddof=1) without numpy's wrapper
    # layers, in their order of operations, so with their bits: the pairwise
    # sum over n, then the pairwise sum of squared deviations over n - 1.
    n = len(values)
    mean = np.add.reduce(values) / n
    squares = np.subtract(values, mean)
    np.square(squares, out=squares)
    stderr = math.sqrt(np.add.reduce(squares) / (n - 1)) / math.sqrt(replicates)
    mean = float(mean)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise ValueError(f"non-finite {quantity} estimate (mean={mean}, stderr={stderr})")
    return McEstimate(
        quantity=quantity, mean=mean, stderr=stderr, replicates=replicates, seed=seed
    )
