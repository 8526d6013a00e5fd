"""Triangular truncation and the doubly exponential band decomposition.

The lower-triangular part of X is cut into horizontal row bands whose
upper edges are 4, 16, 256, ...: band 1 covers rows 1..4 and band n >= 2
covers rows 2^(2^(n-1)) + 1 .. 2^(2^n), truncated at d.  Dimensions up to
4 form a single degenerate band.  All slice profiles are taken on the
rearranged profile, matching the construction the assembled bound relies
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bvhrect_bound
from .linalg import operator_norm
from .montecarlo import _ratio, block_norms, x_stacks
from .profile import StdDevProfile, rearrange, support_blocks

__all__ = [
    "SliceDecomposition",
    "slice_bands",
    "decompose",
    "lower_tri",
    "upper_tri",
    "slice_assembled_bound",
    "verify_slice_inequality",
    "decomposition_summary",
]


@dataclass(frozen=True)
class SliceDecomposition:
    """Band index ranges (1-based, inclusive) and the per-band rectangular
    profiles b_ij * [i >= j] of the rearranged profile."""

    n_slices: int
    bands: tuple
    slice_profiles: tuple


def slice_bands(d: int) -> SliceDecomposition:
    """Band ranges only; profiles are attached by decompose()."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d <= 4:
        bands = ((1, d),)
    else:
        edges = [(1, 4)]
        hi = 4
        while hi < d:
            nxt = hi * hi  # 2^(2^n) squares at each scale
            edges.append((hi + 1, min(nxt, d)))
            hi = nxt
        bands = tuple(edges)
    return SliceDecomposition(n_slices=len(bands), bands=bands, slice_profiles=())


def decompose(p: StdDevProfile) -> SliceDecomposition:
    """Full decomposition of the rearranged profile into band slices."""
    skeleton = slice_bands(p.d)
    bstar = rearrange(p).bstar
    low = lower_tri(bstar)
    profiles = tuple(low[lo - 1 : hi, :] for lo, hi in skeleton.bands)
    return SliceDecomposition(
        n_slices=skeleton.n_slices, bands=skeleton.bands, slice_profiles=profiles
    )


def lower_tri(x: np.ndarray) -> np.ndarray:
    """Entrywise mask i >= j (keeps the diagonal)."""
    return np.tril(np.asarray(x))


def upper_tri(x: np.ndarray) -> np.ndarray:
    """Entrywise mask i < j (strictly above the diagonal)."""
    return np.triu(np.asarray(x), 1)


def slice_assembled_bound(p: StdDevProfile) -> float:
    """2 sqrt(N) max_n bvhrect(slice n), with vanishing rows and columns of
    each slice removed so the log term sees effective dimensions."""
    return _slice_bounds(decompose(p))[2]


def verify_slice_inequality(p: StdDevProfile, replicates: int, seed: int) -> dict:
    """Check the pointwise norm inequalities on sampled matrices.

    For each replicate X (drawn on the rearranged profile by
    montecarlo.x_stacks, the X streams of the Monte Carlo estimators)
    asserts, up to 1e-9-scaled slack,

        ||Xlow||^2 <= sum_n ||X^(n)||^2   and   ||X|| <= ||Xup|| + ||Xlow||,

    and reports the extreme observed ratios of ||Xlow||^2 against both the
    sum and the max of the slice norms (both ratios are 1 by convention
    when everything vanishes).  ||X|| comes from montecarlo.block_norms,
    once per stack; the triangular and slice norms are singular values.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    decomposition = slice_bands(p.d)
    pstar = StdDevProfile(d=p.d, b=rearrange(p).bstar)
    blocks = support_blocks(pstar)
    holds = True
    max_ratio_sum = -math.inf
    ratio_slice_min, ratio_slice_max = math.inf, -math.inf
    for x, full in (pair for stack in x_stacks(pstar, replicates, seed)
                    for pair in zip(stack, block_norms(stack, blocks))):
        xlow = lower_tri(x)
        xup = upper_tri(x)
        slice_norms_sq = [
            operator_norm(xlow[lo - 1 : hi, :]) ** 2 for lo, hi in decomposition.bands
        ]
        low = operator_norm(xlow)
        low_sq = low ** 2
        total = sum(slice_norms_sq)
        biggest = max(slice_norms_sq)
        if low_sq > total + 1e-9 * (1.0 + total):
            holds = False
        split_sum = operator_norm(xup) + low
        if full > split_sum + 1e-9 * (1.0 + split_sum):
            holds = False
        max_ratio_sum = max(max_ratio_sum, _ratio(low_sq, total))
        ratio_slice = _ratio(low_sq, biggest)
        ratio_slice_min = min(ratio_slice_min, ratio_slice)
        ratio_slice_max = max(ratio_slice_max, ratio_slice)
    return {
        "holds": holds,
        "max_ratio": max_ratio_sum,
        "ratio_slice_min": ratio_slice_min,
        "ratio_slice_max": ratio_slice_max,
        "replicates": replicates,
        "seed": seed,
    }


def decomposition_summary(p: StdDevProfile) -> dict:
    """Bands, per-slice effective dimensions, and per-slice bound values."""
    decomposition = decompose(p)
    trimmed, values, assembled = _slice_bounds(decomposition)
    slices = [
        {
            "rows": [lo, hi],
            "effective_shape": list(t.shape) if t.size else [0, 0],
            "bvhrect": value,
        }
        for (lo, hi), t, value in zip(decomposition.bands, trimmed, values)
    ]
    return {
        "n_slices": decomposition.n_slices,
        "bands": [list(band) for band in decomposition.bands],
        "slices": slices,
        "assembled_bound": assembled,
    }


def _slice_bounds(decomposition: SliceDecomposition) -> tuple[list, list, float]:
    # Trimmed slices, their bvhrect values (0 if empty) and 2 sqrt(N) max_n bvhrect.
    trimmed = [_trim_vanishing(profile) for profile in decomposition.slice_profiles]
    values = [bvhrect_bound(t) if t.size else 0.0 for t in trimmed]
    return trimmed, values, 2.0 * math.sqrt(decomposition.n_slices) * max(values)


def _trim_vanishing(profile: np.ndarray) -> np.ndarray:
    rows = np.any(profile != 0.0, axis=1)
    cols = np.any(profile != 0.0, axis=0)
    return profile[np.ix_(rows, cols)]
