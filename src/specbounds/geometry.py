"""Deformation map, natural metric, comparison-process distance, and the
scans built on them.

The quadratic-form identities here back 1e-9-level gap contracts.  One set
of private kernels, built from np.matvec, np.vecmat and np.vecdot,
evaluates them on one trial or on a stack of trials, with one matrix for
the whole stack (violation_scan) or one per trial (the batched corpus
checks in specbounds.checks); their rounding sits far inside that scale.
violation_scan stacks the trials of each batch of seeding._batches, so its
arrays hold at most seeding._CHUNK rows of length d, whatever the trial
count.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SpectralSplit
from .profile import StdDevProfile
from .seeding import PAIR_TAG, _batches

BALL_CSV_HEADER = "theta,x1,x2"


def deform(p: StdDevProfile, v: np.ndarray) -> np.ndarray:
    """The image x(v) of the deformation map,
    x_i(v) = v_i * sqrt(sum_j b_ij^2 v_j^2)."""
    v = _check_vector(v, p.d)
    return _image(p.variance_matrix, v)


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
    v, w = _check_vector(v, p.d), _check_vector(w, p.d)
    return float(_natural_dist_sq(p.variance_matrix, v, w)[0])


def quad_form_sq_diff(p: StdDevProfile, v: np.ndarray, w: np.ndarray) -> float:
    """Quadratic form of B at the vector (v_i^2 - w_i^2); may be negative."""
    v, w = _check_vector(v, p.d), _check_vector(w, p.d)
    return float(_quad(p.variance_matrix, v * v - w * w))


def basic_gap(p: StdDevProfile, v: np.ndarray, w: np.ndarray, gamma: float) -> float:
    """Slack of the deformation inequality

        d(v,w)^2 <= (2+gamma+1/gamma) ||x(v)-x(w)||^2
                    - gamma * sum_ij (v_i^2-w_i^2) b_ij^2 (v_j^2-w_j^2),

    returned as RHS - LHS; nonnegative up to 1e-9-scaled rounding.
    """
    _check_gamma(gamma)
    v, w = _check_vector(v, p.d), _check_vector(w, p.d)
    b2 = p.variance_matrix
    return float(_basic_gap(b2, v, w, gamma, *_natural_dist_sq(b2, v, w)))


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
    v, w = _check_vector(v, p.d), _check_vector(w, p.d)
    return float(_comparison_dist_sq(p.variance_matrix, split.bminus, v, w, gamma))


def bandeira_ratio(a: float, b: float, delta: float) -> float:
    """d(v,w) / ||x(v)-x(w)|| for the 2x2 family with variance matrix
    [[delta,1],[1,0]], v = (a,b), w = (b,a).

    Both sides are closed forms: the numerator is sqrt(delta) |a^2-b^2|,
    the denominator |a sqrt(delta a^2 + b^2) - b sqrt(delta b^2 + a^2)|.
    The ratio grows like 1/sqrt(delta) * 2ab/(a^2+b^2) as delta -> 0.
    """
    # Written so that NaN and infinity fail each test too.
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("a and b must be positive")
    if a == b:
        raise ValueError("a == b makes both distances vanish")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive, got {delta}")
    numerator = math.sqrt(delta) * abs(a * a - b * b)
    denominator = abs(
        a * math.sqrt(delta * a * a + b * b) - b * math.sqrt(delta * b * b + a * a)
    )
    return numerator / denominator


def violation_scan(p: StdDevProfile, trials: int, seed: int) -> float:
    """Fraction of uniform unit-sphere pairs (v, w) violating
    d(v,w) <= 2 ||x(v)-x(w)||.

    Pairs are normalized Gaussian vectors: trial t is row t % _CHUNK of
    batch t // _CHUNK, which draws each trial's 2d normals, v's then w's,
    from its pair stream (seed, PAIR_TAG, batch) of seeding, so the scan
    is deterministic in the seed.  The strict comparison carries a 1e-12
    relative slack so rounding at the PSD equality boundary is never
    counted as a violation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    b2 = p.variance_matrix
    violations = 0
    for ts, stream in _batches(trials, seed):
        pairs = stream(PAIR_TAG).standard_normal((len(ts), 2, p.d))
        v, w = _unit_rows(pairs).transpose(1, 0, 2)
        dist = np.sqrt(np.maximum(_natural_dist_sq(b2, v, w)[0], 0.0))
        xdist = 2.0 * np.sqrt(_image_dist_sq(b2, v, w))
        violations += int(np.count_nonzero(dist > xdist + 1e-12 * (1.0 + dist + xdist)))
    return violations / trials


def ball_boundary_2d(p: StdDevProfile, n_points: int) -> np.ndarray:
    """Boundary of the deformed ball for d = 2: rows (theta, x1, x2) at
    n_points equally spaced angles in [0, 2*pi)."""
    if p.d != 2:
        raise ValueError(f"boundary tracing needs d = 2, got d = {p.d}")
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    thetas = 2.0 * np.pi * np.arange(n_points) / n_points
    x = _image(p.variance_matrix, np.stack([np.cos(thetas), np.sin(thetas)], axis=-1))
    return np.column_stack([thetas, x])


def ball_boundary_csv(rows: np.ndarray) -> str:
    """Serialize boundary rows to CSV with the fixed header."""
    lines = [BALL_CSV_HEADER]
    for theta, x1, x2 in rows:
        lines.append(f"{float(theta)!r},{float(x1)!r},{float(x2)!r}")
    return "\n".join(lines) + "\n"


# The kernels below take the variance matrix B and vectors that are already
# checked, so a public call checks and squares once, and a scan once per run.
# The vector is the last axis: a (d,) input is one trial and a (k, d) stack
# is k trials.  The k trials share one (d, d) matrix, or row i pairs with
# matrix i of a (k, d, d) stack, and gamma is a float or a (k,) array.
# np.matvec, np.vecmat and np.vecdot run on each row the BLAS call that a
# 1-D @ runs, so each row of a stacked result equals, bit for bit, the same
# kernel called on that row alone.

def _image(b2: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v * np.sqrt(np.matvec(b2, v * v))


def _quad(b: np.ndarray, s: np.ndarray) -> np.ndarray:
    # s^T B s, evaluated as (s^T B) s
    return np.vecdot(np.vecmat(s, b), s)


def _image_dist_sq(b2: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    dx = _image(b2, v) - _image(b2, w)
    return np.vecdot(dx, dx)


def _natural_dist_sq(b2: np.ndarray, v: np.ndarray,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # d(v, w)^2 and the term s^T B s (s = v^2 - w^2) that it contains
    s = v * v - w * w
    quad = _quad(b2, s)
    return (np.vecdot(np.vecmat((v + w) ** 2, b2), (v - w) ** 2) + quad
            - np.vecdot(np.diagonal(b2, axis1=-2, axis2=-1), s * s)), quad


def _basic_gap(b2: np.ndarray, v: np.ndarray, w: np.ndarray, gamma,
               dist_sq: np.ndarray, quad: np.ndarray) -> np.ndarray:
    # RHS - LHS of the deformation inequality, given _natural_dist_sq(b2, v, w)
    return (2.0 + gamma + 1.0 / gamma) * _image_dist_sq(b2, v, w) - gamma * quad - dist_sq


def _comparison_dist_sq(b2: np.ndarray, bminus: np.ndarray, v: np.ndarray, w: np.ndarray,
                        gamma) -> np.ndarray:
    # the comparison process's increment variance, given the B- of b2
    return ((2.0 + gamma + 1.0 / gamma) * _image_dist_sq(b2, v, w)
            + gamma * _quad(bminus, v * v - w * w))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    # Each row of x (its last axis) scaled to unit length; a zero row
    # becomes the unit vector along (1, ..., 1).
    norm = np.sqrt(np.vecdot(x, x))
    if not norm.all():
        x = np.where((norm == 0.0)[..., None], 1.0, x)
        norm = np.sqrt(np.vecdot(x, x))
    return x / norm[..., None]


def _check_vector(v: np.ndarray, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"expected a vector of length {d}, got shape {v.shape}")
    return v


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
