"""Variance-profile data type and the scalar statistics every bound consumes.

The profile stores standard deviations b_ij (not variances); the variance
matrix B with B_ij = b_ij**2 is derived by squaring entrywise.  All
log-weighted statistics use the natural logarithm and 1-based row indices,
so the first row's log(i) weight vanishes at offset 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StdDevProfile:
    """Symmetric d x d matrix of nonnegative standard deviations b_ij.

    Immutable after construction; the backing array is marked read-only so
    instances can be shared freely.
    """

    d: int
    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"profile must be square, got shape {b.shape}")
        if b.shape[0] < 1:
            raise ValueError("profile dimension must be >= 1")
        low, high = float(b.min()), float(b.max())  # NaN reaches both
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("profile entries must be finite")
        if low < 0:
            raise ValueError("profile entries must be nonnegative")
        # A finite sum_ij b_ij^4 keeps ||B||_F, X^2, the norms and every bound
        # finite.  It is summed only when d^2 max_ij b_ij^4 might overflow.
        if high > (sys.float_info.max / (2 * b.size)) ** 0.25:
            with np.errstate(over="ignore"):
                fourth = np.sum(b ** 4)
            if not np.isfinite(fourth):
                raise ValueError(f"profile entries are too large: sum_ij b_ij^4 overflows "
                                 f"float64 (largest entry {high:.6g})")
        if not np.array_equal(b, b.T):
            raise ValueError("profile must be exactly symmetric")
        if self.d != b.shape[0]:
            raise ValueError(f"declared d={self.d} does not match shape {b.shape}")
        b.flags.writeable = False
        object.__setattr__(self, "b", b)

    @classmethod
    def _trusted(cls, b: np.ndarray) -> StdDevProfile:
        # For float64 arrays that are square, finite, nonnegative, exactly
        # symmetric and small enough by construction: skips __post_init__'s
        # checks and copy, and takes ownership of b.
        profile = object.__new__(cls)
        b.flags.writeable = False
        object.__setattr__(profile, "d", b.shape[0])
        object.__setattr__(profile, "b", b)
        return profile

    @property
    def variance_matrix(self) -> np.ndarray:
        """The matrix B with B_ij = b_ij**2."""
        return self.b ** 2

    def digest(self) -> str:
        """Short content hash used to identify the profile in reports."""
        return hashlib.sha256(np.ascontiguousarray(self.b).tobytes()).hexdigest()[:16]


def load_profile(source: str, format: str = "csv") -> StdDevProfile:
    """Parse a profile from CSV or JSON text.

    CSV: d lines of d comma-separated decimals.
    JSON: {"d": <int>, "b": [[...], ...]}.

    Asymmetric input is rejected, never silently symmetrized.
    """
    if format == "csv":
        rows = []
        for line in source.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
        if not rows:
            raise ValueError("empty CSV payload")
        widths = {len(r) for r in rows}
        if len(widths) != 1 or widths.pop() != len(rows):
            raise ValueError("CSV payload is not a square matrix")
        b = np.array(rows, dtype=np.float64)
    elif format == "json":
        try:
            payload = json.loads(source)
        except RecursionError:
            raise ValueError("JSON payload is nested too deeply") from None
        if not isinstance(payload, dict) or "b" not in payload:
            raise ValueError("JSON payload must be an object with a 'b' field")
        try:
            b = np.array(payload["b"], dtype=np.float64)  # a ragged b is a ValueError
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"JSON field 'b' is not a numeric matrix: {exc}") from exc
        if b.ndim != 2:
            raise ValueError("JSON field 'b' is not a matrix")
        # numpy reads "1" and true as 1.0; only JSON numbers are entries
        bad = [x for row in payload["b"] for x in row if type(x) not in (int, float)]
        if bad:
            raise ValueError(f"JSON field 'b' is not a numeric matrix: "
                             f"{json.dumps(bad[0])} is not a number")
        d = payload.get("d", b.shape[0])
        if type(d) is not int:  # not isinstance: true would pass as d = 1
            raise ValueError(f"JSON field 'd' must be an integer, got {d!r}")
        if d != b.shape[0]:
            raise ValueError(f"JSON declares d={d} but b has {b.shape[0]} rows")
    else:
        raise ValueError(f"unknown format {format!r}")
    return StdDevProfile(d=b.shape[0], b=b)


def sigma(p: StdDevProfile) -> float:
    """Largest row Euclidean norm, max_i sqrt(sum_j b_ij^2).

    Invariant under simultaneous row/column permutation.
    """
    return float(np.sqrt(np.max(np.sum(p.b ** 2, axis=1))))


def max_entry(p: StdDevProfile) -> float:
    """Largest standard deviation max_ij b_ij."""
    return float(np.max(p.b))


def rearrange(p: StdDevProfile) -> StdDevProfile:
    """The decreasing rearrangement b*: rows and columns permuted together
    so row maxima are nonincreasing.

    Row maxima are preserved by a simultaneous row/column permutation, so
    the permutation is determined by sorting the original row maxima in
    descending order, ties broken by ascending original row index.
    """
    # A stable sort on the negated maxima breaks ties by ascending index.
    # The permuted copy of a valid profile is still finite, nonnegative and
    # exactly symmetric with the same sum_ij b_ij^4, so it skips the checks.
    perm = np.argsort(-np.max(p.b, axis=1), kind="stable")
    return StdDevProfile._trusted(p.b[np.ix_(perm, perm)])


def support_blocks(p: StdDevProfile) -> list[np.ndarray]:
    """Connected components of the support graph {(i, j) : b_ij != 0},
    grouped by size.

    X_ij = 0 wherever b_ij = 0, so X is block-diagonal over these
    components.  Returns one (m, s) index array per component size s, in
    increasing s: each row holds one component's indices in increasing
    order, and rows are ordered by their smallest index.  A row with no
    off-diagonal support, a zero row included, is a component of size 1.
    """
    linked = p.b != 0
    np.fill_diagonal(linked, False)
    # Each index is labelled with the smallest index of its component.
    root = np.arange(p.d)
    seen = ~linked.any(axis=1)
    while not seen.all():
        start = int(np.argmin(seen))
        frontier = np.array([start])
        while frontier.size:
            seen[frontier] = True
            root[frontier] = start
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~seen)
    # Sorted by root, component n fills order[first[n] : first[n] + sizes[n]];
    # the stable sort keeps its indices in increasing order.
    order = np.argsort(root, kind="stable")
    counts = np.bincount(root)
    sizes = counts[counts > 0]
    first = np.cumsum(sizes) - sizes
    return [order[first[sizes == s, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(sizes))]


def _log_weights(d: int, offset: int) -> np.ndarray:
    if offset not in (0, 1):
        raise ValueError(f"offset must be 0 or 1, got {offset}")
    i = np.arange(1, d + 1, dtype=np.float64)
    return np.sqrt(np.log(i + offset))


def gamma_star(p: StdDevProfile, offset: int = 0) -> float:
    """Log-weighted max-entry statistic of the rearranged profile.

    max over rows i (1-based) of (max_j bstar_ij) * sqrt(ln(i + offset)),
    where bstar has nonincreasing row maxima.  With offset 0 the first
    row's term is ln(1) = 0.
    """
    row_max = np.sort(np.max(p.b, axis=1))[::-1]
    return float(np.max(row_max * _log_weights(p.d, offset)))


def row_l4_max_term(p: StdDevProfile, offset: int = 1) -> float:
    """Log-weighted row fourth-moment statistic.

    Rows are ordered so the fourth moments sum_j b_ij^4 are nonincreasing
    (symmetric permutation, same tie-break as rearrange); the result is
    max over i of (sum_j b_ij^4)^(1/4) * sqrt(ln(i + offset)).
    """
    l4 = np.sort(np.sum(p.b ** 4, axis=1))[::-1]
    return float(np.max(l4 ** 0.25 * _log_weights(p.d, offset)))
