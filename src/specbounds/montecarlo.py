"""Seeded sampling of X, g, and Y and estimation of the stochastic
quantities with standard errors.

Determinism contract: replicates are drawn in blocks.  When a replicate
needs n standard normals, a block holds K = max(1, 32768 // n) replicates
(256 KiB of normals), and replicate r of a run with seed s is row r % K of
block r // K, which is drawn from the stream (s, tag, r // K).  X needs
n = d(d+1)/2, g for gdot needs d and g for ymax the rank of B^-.  K
depends only on n, so replicate r's value does not depend on the replicate
count, and the last block of a run is a prefix of the full block.  The
reduction is np.mean / np.std over the replicate-indexed value array
(numpy pairwise summation).

norm, rowmax, entrymax and distsq share the X tag (common random numbers):
on each replicate they see the same X, so ||X|| >= max row norm >= max
|X_ij| carries over to the means.  est_x estimates any of norm, rowmax and
entrymax from one shared stack per block: each X block is drawn once and
read by every quantity asked for, and est_norm, est_rowmax and
est_entrymax are est_x with one quantity.  gdot and ymax have tags of
their own, so the two terms of the Theorem 4.1 bound are independent.

Block rule for the norm: X_ij = 0 wherever b_ij = 0, so X is
block-diagonal over the connected components of the profile's support
(profile.support_blocks), and ||X|| is the largest eigensolve norm among
its diagonal blocks.  A connected profile is solved whole, as one d x d
eigensolve; a diagonal one as d 1 x 1 blocks, which return |X_ii|
exactly.  On a profile with several components of size >= 2 the block
eigensolves may differ from a whole-matrix eigensolve in the last bits.

est_norm, est_rowmax, est_entrymax and est_gdot accept a ``workers``
keyword, which does not change results.  Standard normals come from
numpy's Generator (ziggurat transform); the transform is fixed within a
build but not promised across numpy versions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import equiv_expression
from .geometry import _check_vector
from .linalg import SpectralSplit, spectral_norm
from .profile import StdDevProfile, sigma, support_blocks

__all__ = [
    "RandomStream",
    "McEstimate",
    "block_size",
    "sample_X",
    "x_stacks",
    "block_norms",
    "est_x",
    "est_norm",
    "est_rowmax",
    "est_entrymax",
    "est_gdot",
    "est_ymax",
    "est_distance_sq",
    "equivalence_report",
    "PROFILE_QUANTITIES",
    "QUANTITY_IDS",
    "X_QUANTITIES",
]

# Quantities estimated from a profile alone; distsq also needs v and w.
PROFILE_QUANTITIES = ("norm", "rowmax", "entrymax", "gdot", "ymax")
QUANTITY_IDS = (*PROFILE_QUANTITIES, "distsq")
# Profile quantities that est_x reduces from the X stacks.
X_QUANTITIES = ("norm", "rowmax", "entrymax")

# Stream tags: X for norm, rowmax, entrymax and distsq; g for gdot and ymax.
X_TAG, GDOT_TAG, YMAX_TAG = 1, 2, 3

# Standard normals per block (256 KiB of float64).
BLOCK_NORMALS = 32768


@dataclass(frozen=True)
class RandomStream:
    """One pseudo-random stream, keyed by (seed, tag, block)."""

    seed: int
    tag: int
    block: int = 0

    def generator(self) -> np.random.Generator:
        # As a spawn key, (tag, block) cannot collide with the
        # default_rng([seed, t]) streams of the corpora; default_rng([seed,
        # tag, 0]) would, because numpy pads short entropy with zeros.
        key = np.random.SeedSequence(self.seed, spawn_key=(self.tag, self.block))
        return np.random.default_rng(key)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(R))."""

    mean: float
    stderr: float
    replicates: int
    seed: int
    quantity: str

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "mean": self.mean,
            "stderr": self.stderr,
            "replicates": self.replicates,
            "seed": self.seed,
        }


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
    stream.
    """
    pos = _lower_positions(p.d)
    shape = () if k is None else (k,)
    lower = stream.generator().standard_normal(shape + (p.d * (p.d + 1) // 2,))
    x = np.take(lower, pos, axis=-1)
    x *= p.b
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


def x_stacks(p: StdDevProfile, replicates: int, seed: int):
    """The X stacks of replicates 0..R-1 in order: block i comes from the
    stream (seed, X_TAG, i)."""
    for block, k in _blocks(replicates, p.d * (p.d + 1) // 2):
        yield sample_X(p, RandomStream(seed, X_TAG, block), k)


def est_x(
    p: StdDevProfile,
    replicates: int,
    seed: int,
    quantities=X_QUANTITIES,
) -> dict[str, McEstimate]:
    """Estimates of the X quantities named in ``quantities`` (any of
    X_QUANTITIES), keyed by name, from one pass over the X stacks: each
    block is drawn once and read by every quantity."""
    _check_replicates(replicates)
    unknown = [q for q in quantities if q not in X_QUANTITIES]
    if unknown:
        raise ValueError(f"not an X quantity: {unknown[0]!r}")
    blocks = support_blocks(p) if "norm" in quantities else None
    values = {q: [] for q in quantities}
    for x in x_stacks(p, replicates, seed):
        for quantity, stacks in values.items():
            stacks.append(_x_values(quantity, x, blocks))
    return {q: _reduce(stacks, replicates, seed, q) for q, stacks in values.items()}


def est_norm(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E ||X||, the expected spectral norm."""
    return est_x(p, replicates, seed, ("norm",))["norm"]


def est_rowmax(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_i sqrt(sum_j X_ij^2), the largest row Euclidean norm."""
    return est_x(p, replicates, seed, ("rowmax",))["rowmax"]


def est_entrymax(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_ij |X_ij|."""
    return est_x(p, replicates, seed, ("entrymax",))["entrymax"]


def block_norms(x: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """||X|| for each matrix of the (k, d, d) stack x of a profile whose
    support_blocks are ``blocks``: the largest norm among its diagonal
    blocks, with one stacked eigensolve per block size."""
    # spectral_norm is looked up at call time, so a wrapper installed on
    # this module sees every eigensolve.
    if len(blocks) == 1 and len(blocks[0]) == 1:
        return spectral_norm(x)  # connected: the block is x itself
    k = x.shape[0]
    norms = np.zeros(k)
    for idx in blocks:
        m, s = idx.shape
        sub = x[:, idx[:, :, None], idx[:, None, :]].reshape(k * m, s, s)
        np.maximum(norms, spectral_norm(sub).reshape(k, m).max(axis=1), out=norms)
    return norms


def _x_values(quantity: str, x: np.ndarray, blocks) -> np.ndarray:
    # One value per matrix of the (k, d, d) stack x.
    if quantity == "norm":
        return block_norms(x, blocks)
    if quantity == "rowmax":
        return np.sqrt(np.max(np.sum(x * x, axis=2), axis=1))
    return np.max(np.abs(x), axis=(1, 2))


def est_gdot(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_i sqrt(sum_j b_ij^2 g_j^2) with one shared g per replicate."""
    variance = p.variance_matrix  # symmetric, so (g*g) @ B has rows B (g*g)
    values = (np.sqrt(np.max((g * g) @ variance, axis=1))
              for g in _normal_stacks(p.d, replicates, seed, GDOT_TAG))
    return _reduce(values, replicates, seed, "gdot")


def est_ymax(split: SpectralSplit, replicates: int, seed: int) -> McEstimate:
    """E max_i Y_i for Y ~ N(0, B^-), sampled as Y = L g.

    When B is PSD the factor is empty, Y = 0, and the estimate is exactly
    (0, 0).
    """
    factor = split.factor_l
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
    metric."""
    v = _check_vector(v, p.d)
    w = _check_vector(w, p.d)
    values = ((np.einsum("i,kij,j->k", v, x, v) - np.einsum("i,kij,j->k", w, x, w)) ** 2
              for x in x_stacks(p, replicates, seed))
    return _reduce(values, replicates, seed, "distsq")


def equivalence_report(p: StdDevProfile, replicates: int, seed: int) -> dict:
    """The four equivalent quantities and their pairwise ratios.

    Quantities: rowmax and gdot (Monte Carlo), sigma + entrymax (closed
    form plus Monte Carlo), and the fully closed-form expression.  For the
    zero profile all quantities vanish and every ratio is reported as 1 by
    convention.
    """
    x = est_x(p, replicates, seed, ("rowmax", "entrymax"))
    rowmax, entrymax = x["rowmax"], x["entrymax"]
    gdot = est_gdot(p, replicates, seed)
    means = {
        "rowmax": rowmax.mean,
        "gdot": gdot.mean,
        "sigma_plus_entrymax": sigma(p) + entrymax.mean,
        "equiv_expression": equiv_expression(p),
    }
    names = list(means)
    ratios = {
        a: {b: _ratio(means[a], means[b]) for b in names} for a in names
    }
    return {
        "means": means,
        "ratios": ratios,
        "estimates": {
            "rowmax": rowmax.to_dict(),
            "gdot": gdot.to_dict(),
            "entrymax": entrymax.to_dict(),
        },
        "replicates": replicates,
        "seed": seed,
    }


def _blocks(replicates: int, n: int):
    # (block, rows) pairs: replicate r is row r % K of block r // K.
    size = block_size(n)
    for block, start in enumerate(range(0, replicates, size)):
        yield block, min(size, replicates - start)


def _normal_stacks(n: int, replicates: int, seed: int, tag: int):
    # (k, n) standard normal stacks for replicates 0..R-1 in order.
    for block, k in _blocks(replicates, n):
        yield RandomStream(seed, tag, block).generator().standard_normal((k, n))


def _check_replicates(replicates: int) -> None:
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")


def _reduce(values, replicates: int, seed: int, quantity: str) -> McEstimate:
    # values yields one array per block; nothing is drawn before the check.
    _check_replicates(replicates)
    values = np.concatenate(list(values))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(replicates))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise ValueError(f"non-finite {quantity} estimate (mean={mean}, stderr={stderr})")
    return McEstimate(
        mean=mean, stderr=stderr, replicates=replicates, seed=seed, quantity=quantity
    )


def _ratio(a: float, b: float) -> float:
    if a == 0.0 and b == 0.0:
        return 1.0
    return a / b
