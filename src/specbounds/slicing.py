"""Triangular truncation and the doubly exponential band decomposition.

The lower-triangular part of X is cut into horizontal row bands whose
upper edges are 4, 16, 256, ...: band 1 covers rows 1..4 and band n >= 2
covers rows 2^(2^(n-1)) + 1 .. 2^(2^n), truncated at d.  Dimensions up to
4 form a single degenerate band.  All slice profiles are taken on the
rearranged profile, matching the construction the assembled bound relies
on; each slice is bounded by the rectangular-profile bound bvhrect_bound.
rearrange orders rows with equal maxima by index, and slice_assembled_bound
depends on that tie order: relabelling a profile with tied row maxima can
move it, though every tie order gives a valid bound.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import operator_norm
from .montecarlo import block_norms, blockwise_max, x_blocks
from .profile import StdDevProfile, rearrange, support_blocks


def slice_bands(d: int) -> tuple:
    """The bands as (lo, hi) row ranges, 1-based and inclusive."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    bands = [(1, min(d, 4))]
    while bands[-1][1] < d:
        hi = bands[-1][1]
        bands.append((hi + 1, min(hi * hi, d)))  # 2^(2^n) squares at each scale
    return tuple(bands)


def decompose(p: StdDevProfile) -> tuple:
    """The band slices b_ij * [i >= j] of the rearranged profile, one per
    band of slice_bands(p.d)."""
    low = np.tril(rearrange(p).b)
    return tuple(low[lo - 1 : hi, :] for lo, hi in slice_bands(p.d))


def bvhrect_bound(c: np.ndarray) -> float:
    """Rectangular-profile bound: max row norm + max column norm
    + max entry * sqrt(ln(min(d1, d2)))."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {c.shape}")
    if np.any(c < 0):
        raise ValueError("entries must be nonnegative")
    if c.size == 0:
        return 0.0
    row_term = float(np.sqrt(np.max(np.sum(c ** 2, axis=1))))
    col_term = float(np.sqrt(np.max(np.sum(c ** 2, axis=0))))
    log_term = float(np.max(c)) * math.sqrt(math.log(min(c.shape)))
    return row_term + col_term + log_term


def slice_assembled_bound(p: StdDevProfile) -> float:
    """2 sqrt(N) max_n bvhrect(slice n), with vanishing rows and columns of
    each slice removed so the log term sees effective dimensions."""
    return _slice_bounds(decompose(p))[2]


def verify_slice_inequality(p: StdDevProfile, replicates: int, seed: int) -> dict:
    """Check the pointwise norm inequalities on sampled matrices.

    For each replicate X (drawn on the rearranged profile by
    montecarlo.x_blocks, the X streams of the Monte Carlo estimators)
    asserts, up to 1e-9-scaled slack,

        ||Xlow||^2 <= sum_n ||X^(n)||^2   and   ||X|| <= ||Xup|| + ||Xlow||,

    and reports the extreme observed ratios of ||Xlow||^2 against both the
    sum and the max of the slice norms (both ratios are 1 by convention
    when everything vanishes).  Every norm is the largest over X's support
    blocks, read from the block stacks of each montecarlo.x_blocks item (a
    connected profile is one block, X itself): ||X|| comes from
    montecarlo.block_norms, once per item, and the triangular and slice
    norms are singular values per support block.  The slice n of component
    C is tril(X)[C's rows in band n, C], and the components of one size
    with as many rows in the band share one stacked SVD.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    pstar = rearrange(p)
    blocks = support_blocks(pstar)
    band_parts = [_band_parts(blocks, lo, hi) for lo, hi in slice_bands(p.d)]
    # One (holds, sum ratio, slice ratio) row per replicate.
    rows = []
    for stacks in x_blocks(pstar, blocks, replicates, seed):
        lows = [np.tril(stack) for stack in stacks]
        norms = [block_norms(stacks),
                 blockwise_max(operator_norm, lows),
                 blockwise_max(operator_norm, [np.triu(stack, 1) for stack in stacks]),
                 *(blockwise_max(operator_norm, [lows[g][:, comps[:, None], at]
                                                 for g, comps, at in parts])
                   for parts in band_parts)]
        for full, low, up, *slice_norms in zip(*(n.tolist() for n in norms)):
            slice_norms_sq = [norm ** 2 for norm in slice_norms]
            low_sq = low ** 2
            total = sum(slice_norms_sq)
            split_sum = up + low
            fails = (low_sq > total + 1e-9 * (1.0 + total)
                     or full > split_sum + 1e-9 * (1.0 + split_sum))
            rows.append((not fails, _ratio(low_sq, total), _ratio(low_sq, max(slice_norms_sq))))
    holds, ratio_sum, ratio_slice = zip(*rows)
    return {
        "holds": all(holds),
        "max_ratio": max(ratio_sum),
        "ratio_slice_min": min(ratio_slice),
        "ratio_slice_max": max(ratio_slice),
        "replicates": replicates,
        "seed": seed,
    }


def _band_parts(blocks: list, lo: int, hi: int) -> list:
    # The band's rows lo..hi (1-based) in each support block, as (g, comps,
    # at) triples: the components comps of blocks[g] that have r rows in
    # the band, and at[c], the positions of those rows within component
    # comps[c].  A component's indices increase, so its rows in a band are
    # consecutive positions.
    parts = []
    for g, idx in enumerate(blocks):
        inside = (idx >= lo - 1) & (idx < hi)
        counts, first = inside.sum(axis=1), inside.argmax(axis=1)
        for r in sorted(set(counts[counts > 0].tolist())):
            comps = np.flatnonzero(counts == r)
            parts.append((g, comps, first[comps, None] + np.arange(r)))
    return parts


def decomposition_summary(p: StdDevProfile) -> dict:
    """Bands, per-slice effective dimensions, and per-slice bound values."""
    bands = slice_bands(p.d)
    trimmed, values, assembled = _slice_bounds(decompose(p))
    slices = [
        {
            "rows": [lo, hi],
            "effective_shape": list(t.shape),
            "bvhrect": value,
        }
        for (lo, hi), t, value in zip(bands, trimmed, values)
    ]
    return {
        "n_slices": len(bands),
        "bands": [list(band) for band in bands],
        "slices": slices,
        "assembled_bound": assembled,
    }


def _slice_bounds(slices: tuple) -> tuple[list, list, float]:
    # Trimmed slices, their bvhrect values (0 if empty) and 2 sqrt(N) max_n bvhrect.
    trimmed = [_trim_vanishing(profile) for profile in slices]
    values = [bvhrect_bound(t) for t in trimmed]
    return trimmed, values, 2.0 * math.sqrt(len(slices)) * max(values)


def _trim_vanishing(profile: np.ndarray) -> np.ndarray:
    rows = np.any(profile != 0.0, axis=1)
    cols = np.any(profile != 0.0, axis=0)
    return profile[np.ix_(rows, cols)]


def _ratio(a: float, b: float) -> float:
    if a == 0.0 and b == 0.0:
        return 1.0
    return a / b
