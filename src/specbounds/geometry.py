"""Deformation map, natural metric, comparison-process distance, and the
scans built on them.

The quadratic-form identities here back 1e-9-level gap contracts; they are
evaluated as plain numpy quadratic forms, whose rounding sits far inside
that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SpectralSplit
from .profile import StdDevProfile

__all__ = [
    "DeformedPoint",
    "deform",
    "simplex_sup",
    "natural_dist_sq",
    "quad_form_sq_diff",
    "basic_gap",
    "comparison_dist_sq",
    "bandeira_ratio",
    "violation_scan",
    "ball_boundary_2d",
    "ball_boundary_csv",
    "BALL_CSV_HEADER",
]

BALL_CSV_HEADER = "theta,x1,x2"


@dataclass(frozen=True)
class DeformedPoint:
    """A vector v with its image x under the deformation x_i = v_i ||v||_i,
    where ||v||_i^2 = sum_j b_ij^2 v_j^2."""

    v: np.ndarray
    x: np.ndarray


def deform(p: StdDevProfile, v: np.ndarray) -> DeformedPoint:
    """Apply the deformation map x_i(v) = v_i * sqrt(sum_j b_ij^2 v_j^2)."""
    v = _check_vector(v, p.d)
    row_norms = np.sqrt(p.variance_matrix @ (v * v))
    return DeformedPoint(v=v, x=v * row_norms)


def simplex_sup(p: StdDevProfile, g: np.ndarray) -> float:
    """max_i sqrt(sum_j b_ij^2 g_j^2): the supremum of the deformed-ball
    process <x(v), g> over the unit ball."""
    g = _check_vector(g, p.d)
    return float(np.sqrt(np.max(p.variance_matrix @ (g * g))))


def natural_dist_sq(p: StdDevProfile, v: np.ndarray, w: np.ndarray) -> float:
    """Increment variance E(<v,Xv> - <w,Xw>)^2 in closed form:

        sum_ij (v_i+w_i)^2 b_ij^2 (v_j-w_j)^2
        + sum_{i != j} (v_i^2-w_i^2) b_ij^2 (v_j^2-w_j^2).
    """
    v = _check_vector(v, p.d)
    w = _check_vector(w, p.d)
    b2 = p.variance_matrix
    a = (v + w) ** 2
    c = (v - w) ** 2
    s = v * v - w * w
    return float(a @ b2 @ c + s @ b2 @ s - np.diag(b2) @ (s * s))


def quad_form_sq_diff(p: StdDevProfile, v: np.ndarray, w: np.ndarray) -> float:
    """Quadratic form of B at the vector (v_i^2 - w_i^2); may be negative."""
    v = _check_vector(v, p.d)
    w = _check_vector(w, p.d)
    s = v * v - w * w
    return _qform(p.variance_matrix, s)


def basic_gap(p: StdDevProfile, v: np.ndarray, w: np.ndarray, gamma: float) -> float:
    """Slack of the deformation inequality

        d(v,w)^2 <= (2+gamma+1/gamma) ||x(v)-x(w)||^2
                    - gamma * sum_ij (v_i^2-w_i^2) b_ij^2 (v_j^2-w_j^2),

    returned as RHS - LHS; nonnegative up to 1e-9-scaled rounding.
    """
    _check_gamma(gamma)
    rhs = (2.0 + gamma + 1.0 / gamma) * _deformed_dist_sq(p, v, w) - gamma * quad_form_sq_diff(p, v, w)
    return rhs - natural_dist_sq(p, v, w)


def comparison_dist_sq(
    p: StdDevProfile,
    split: SpectralSplit,
    v: np.ndarray,
    w: np.ndarray,
    gamma: float,
) -> float:
    """Increment variance of the comparison process:

        (2+gamma+1/gamma) ||x(v)-x(w)||^2
        + gamma * sum_ij (v_i^2-w_i^2) Bminus_ij (v_j^2-w_j^2).

    Dominates natural_dist_sq for every gamma > 0, which is the premise of
    the Slepian-Fernique step.
    """
    _check_gamma(gamma)
    v = _check_vector(v, p.d)
    w = _check_vector(w, p.d)
    s = v * v - w * w
    return (2.0 + gamma + 1.0 / gamma) * _deformed_dist_sq(p, v, w) + gamma * _qform(
        split.bminus, s
    )


def bandeira_ratio(a: float, b: float, delta: float) -> float:
    """d(v,w) / ||x(v)-x(w)|| for the 2x2 family with variance matrix
    [[delta,1],[1,0]], v = (a,b), w = (b,a).

    Both sides are closed forms: the numerator is sqrt(delta) |a^2-b^2|,
    the denominator |a sqrt(delta a^2 + b^2) - b sqrt(delta b^2 + a^2)|.
    The ratio grows like 1/sqrt(delta) * 2ab/(a^2+b^2) as delta -> 0.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if a == b:
        raise ValueError("a == b makes both distances vanish")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    numerator = math.sqrt(delta) * abs(a * a - b * b)
    denominator = abs(
        a * math.sqrt(delta * a * a + b * b) - b * math.sqrt(delta * b * b + a * a)
    )
    return numerator / denominator


def violation_scan(p: StdDevProfile, trials: int, seed: int) -> float:
    """Fraction of uniform unit-sphere pairs (v, w) violating
    d(v,w) <= 2 ||x(v)-x(w)||.

    Pairs are normalized Gaussian vectors from per-trial streams
    (seed, t), so the scan is deterministic in the seed.  The strict
    comparison carries a 1e-12 relative slack so rounding at the PSD
    equality boundary is never counted as a violation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    violations = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        v = _unit(rng.standard_normal(p.d))
        w = _unit(rng.standard_normal(p.d))
        dist = math.sqrt(max(natural_dist_sq(p, v, w), 0.0))
        xdist = 2.0 * math.sqrt(_deformed_dist_sq(p, v, w))
        if dist > xdist + 1e-12 * (1.0 + dist + xdist):
            violations += 1
    return violations / trials


def ball_boundary_2d(p: StdDevProfile, n_points: int) -> np.ndarray:
    """Boundary of the deformed ball for d = 2: rows (theta, x1, x2) at
    n_points equally spaced angles in [0, 2*pi)."""
    if p.d != 2:
        raise ValueError(f"boundary tracing needs d = 2, got d = {p.d}")
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    thetas = 2.0 * np.pi * np.arange(n_points) / n_points
    rows = np.empty((n_points, 3))
    for k, theta in enumerate(thetas):
        x = deform(p, np.array([np.cos(theta), np.sin(theta)])).x
        rows[k] = (theta, x[0], x[1])
    return rows


def ball_boundary_csv(rows: np.ndarray) -> str:
    """Serialize boundary rows to CSV with the fixed header."""
    lines = [BALL_CSV_HEADER]
    for theta, x1, x2 in rows:
        lines.append(f"{float(theta)!r},{float(x1)!r},{float(x2)!r}")
    return "\n".join(lines) + "\n"


def _deformed_dist_sq(p: StdDevProfile, v: np.ndarray, w: np.ndarray) -> float:
    dx = deform(p, v).x - deform(p, w).x
    return float(dx @ dx)


def _qform(m: np.ndarray, s: np.ndarray) -> float:
    return float(s @ m @ s)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.ones_like(v)
        norm = np.linalg.norm(v)
    return v / norm


def _check_vector(v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"expected a vector of length {d}, got shape {v.shape}")
    return v


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
