"""Seeded sampling of X, g, and Y and estimation of the stochastic
quantities with standard errors.

Determinism contract: replicate r of a run with seed s draws from the
stream (s, r), one independent generator per replicate, and the reduction
is np.mean / np.std over the replicate-indexed value array (numpy pairwise
summation).  Replicates run serially in index order; est_norm, est_rowmax,
est_entrymax and est_gdot accept a ``workers`` keyword, which does not
change results.
Standard normals come from numpy's Generator (ziggurat transform); the
transform is fixed within a build but not promised across numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import equiv_expression
from .geometry import _check_vector, simplex_sup
from .linalg import SpectralSplit, spectral_norm
from .profile import StdDevProfile, sigma

__all__ = [
    "RandomStream",
    "McEstimate",
    "sample_X",
    "est_norm",
    "est_rowmax",
    "est_entrymax",
    "est_gdot",
    "est_ymax",
    "est_distance_sq",
    "equivalence_report",
    "PROFILE_QUANTITIES",
    "QUANTITY_IDS",
]

# Quantities estimated from a profile alone; distsq also needs v and w.
PROFILE_QUANTITIES = ("norm", "rowmax", "entrymax", "gdot", "ymax")
QUANTITY_IDS = (*PROFILE_QUANTITIES, "distsq")


@dataclass(frozen=True)
class RandomStream:
    """One pseudo-random stream, keyed by (seed, stream_id)."""

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


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


def sample_X(p: StdDevProfile, stream: RandomStream) -> np.ndarray:
    """One draw of the symmetric matrix X_ij = b_ij * g_ij.

    Gaussians are drawn as a full d x d block from the stream; the lower
    triangle (including the diagonal) is kept and mirrored, so entries with
    i >= j are independent and X is exactly symmetric.
    """
    rng = stream.generator()
    g = rng.standard_normal((p.d, p.d))
    g = np.tril(g) + np.tril(g, -1).T
    return p.b * g


def est_norm(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E ||X||, the expected spectral norm."""

    def one(r: int) -> float:
        return spectral_norm(sample_X(p, RandomStream(seed, r)))

    return _estimate(one, replicates, seed, "norm")


def est_rowmax(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_i sqrt(sum_j X_ij^2), the largest row Euclidean norm."""

    def one(r: int) -> float:
        x = sample_X(p, RandomStream(seed, r))
        return float(np.sqrt(np.max(np.sum(x * x, axis=1))))

    return _estimate(one, replicates, seed, "rowmax")


def est_entrymax(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_ij |X_ij|."""

    def one(r: int) -> float:
        return float(np.max(np.abs(sample_X(p, RandomStream(seed, r)))))

    return _estimate(one, replicates, seed, "entrymax")


def est_gdot(p: StdDevProfile, replicates: int, seed: int, workers: int = 1) -> McEstimate:
    """E max_i sqrt(sum_j b_ij^2 g_j^2) with one shared g per replicate."""

    def one(r: int) -> float:
        g = RandomStream(seed, r).generator().standard_normal(p.d)
        return simplex_sup(p, g)

    return _estimate(one, replicates, seed, "gdot")


def est_ymax(split: SpectralSplit, replicates: int, seed: int) -> McEstimate:
    """E max_i Y_i for Y ~ N(0, B^-), sampled as Y = L g.

    When B is PSD the factor is empty, Y = 0, and the estimate is exactly
    (0, 0).
    """
    factor = split.factor_l

    def one(r: int) -> float:
        g = RandomStream(seed, r).generator().standard_normal(factor.shape[1])
        return float(np.max(factor @ g)) if factor.shape[1] else 0.0

    return _estimate(one, replicates, seed, "ymax")


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

    def one(r: int) -> float:
        x = sample_X(p, RandomStream(seed, r))
        return float(v @ x @ v - w @ x @ w) ** 2

    return _estimate(one, replicates, seed, "distsq")


def equivalence_report(p: StdDevProfile, replicates: int, seed: int) -> dict:
    """The four equivalent quantities and their pairwise ratios.

    Quantities: rowmax and gdot (Monte Carlo), sigma + entrymax (closed
    form plus Monte Carlo), and the fully closed-form expression.  For the
    zero profile all quantities vanish and every ratio is reported as 1 by
    convention.
    """
    rowmax = est_rowmax(p, replicates, seed)
    gdot = est_gdot(p, replicates, seed)
    entrymax = est_entrymax(p, replicates, seed)
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


def _estimate(one, replicates: int, seed: int, quantity: str) -> McEstimate:
    if replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {replicates}")
    values = np.array([one(r) for r in range(replicates)], dtype=np.float64)
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
