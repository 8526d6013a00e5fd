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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StdDevProfile",
    "RearrangedProfile",
    "load_profile",
    "sigma",
    "max_entry",
    "rearrange",
    "support_blocks",
    "gamma_star",
    "row_l4_max_term",
]


@dataclass(frozen=True)
class StdDevProfile:
    """Symmetric d x d matrix of nonnegative standard deviations b_ij.

    Immutable after construction; the backing array is marked read-only so
    instances can be shared across concurrent workers.
    """

    d: int
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"profile must be square, got shape {b.shape}")
        if b.shape[0] < 1:
            raise ValueError("profile dimension must be >= 1")
        if not np.all(np.isfinite(b)):
            raise ValueError("profile entries must be finite")
        if np.any(b < 0):
            raise ValueError("profile entries must be nonnegative")
        if not np.array_equal(b, b.T):
            raise ValueError("profile must be exactly symmetric")
        if self.d != b.shape[0]:
            raise ValueError(f"declared d={self.d} does not match shape {b.shape}")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b", b)

    @property
    def variance_matrix(self) -> np.ndarray:
        """The matrix B with B_ij = b_ij**2."""
        return self.b ** 2

    def digest(self) -> str:
        """Short content hash used to identify the profile in reports."""
        return hashlib.sha256(np.ascontiguousarray(self.b).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class RearrangedProfile:
    """A profile with rows and columns simultaneously permuted so that the
    row maxima are nonincreasing.

    perm[k] is the 0-based original index of the row placed at position k;
    bstar[i][j] = base.b[perm[i]][perm[j]].
    """

    base: StdDevProfile
    perm: np.ndarray
    bstar: np.ndarray


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
        payload = json.loads(source)
        if not isinstance(payload, dict) or "b" not in payload:
            raise ValueError("JSON payload must be an object with a 'b' field")
        try:
            b = np.array(payload["b"], dtype=np.float64)
        except TypeError as exc:
            raise ValueError(f"JSON field 'b' is not a numeric matrix: {exc}") from exc
        if b.ndim != 2:
            raise ValueError("JSON field 'b' is not a matrix")
        if "d" in payload and payload["d"] != b.shape[0]:
            raise ValueError(
                f"JSON declares d={payload['d']} but b has {b.shape[0]} rows"
            )
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


def _rearrangement_perm(keys: np.ndarray) -> np.ndarray:
    # Descending by key; ties broken by ascending original index (stable sort
    # on the negated keys).
    return np.argsort(-keys, kind="stable")


def rearrange(p: StdDevProfile) -> RearrangedProfile:
    """Permute rows and columns together so row maxima are nonincreasing.

    Row maxima are preserved by a simultaneous row/column permutation, so
    the permutation is determined by sorting the original row maxima in
    descending order, ties broken by ascending original row index.
    """
    row_max = np.max(p.b, axis=1)
    perm = _rearrangement_perm(row_max)
    bstar = p.b[np.ix_(perm, perm)]
    return RearrangedProfile(base=p, perm=perm, bstar=bstar)


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
