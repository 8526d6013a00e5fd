"""Closed-form spectral-norm bounds and the optimal gamma of Theorem 4.1.

Universal constants the theory leaves unnamed are exposed as parameters
(default C = 2) and every report records the exact values used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profile import StdDevProfile, gamma_star, max_entry, row_l4_max_term, sigma

__all__ = [
    "BOUND_IDS",
    "BoundReport",
    "bvh_bound",
    "equiv_expression",
    "remark_upper",
    "cor_sharp_bound",
    "latala05_bound",
    "thm41_bound",
    "optimize_gamma",
    "bvhrect_bound",
    "compute_bound_report",
    "DEFAULT_C",
]

DEFAULT_C = 2.0

BOUND_IDS = (
    "bvh",
    "equiv_expression",
    "remark_upper",
    "cor_sharp",
    "cor_opt",
    "latala05",
    "slicing_assembled",
    "thm41",
)

GAMMA_FLOOR = 1e-6


def bvh_bound(p: StdDevProfile) -> float:
    """sigma + (max_ij b_ij) * sqrt(ln d); the log term is 0 for d = 1."""
    return sigma(p) + max_entry(p) * math.sqrt(math.log(p.d))


def equiv_expression(p: StdDevProfile) -> float:
    """sigma + max_ij bstar_ij sqrt(ln i), the dimension-free expression."""
    return sigma(p) + gamma_star(p, offset=0)


def remark_upper(p: StdDevProfile, c: float = DEFAULT_C) -> float:
    """sigma + C * max_ij bstar_ij sqrt(ln(i+1)): leading constant one."""
    _check_positive(c, "c")
    return sigma(p) + c * gamma_star(p, offset=1)


def cor_sharp_bound(p: StdDevProfile, c: float = DEFAULT_C) -> float:
    """2*sigma + C * max_i (sum_j b_ij^4)^(1/4) sqrt(ln(i+1)) on rows sorted
    by fourth moment."""
    _check_positive(c, "c")
    return 2.0 * sigma(p) + c * row_l4_max_term(p, offset=1)


def latala05_bound(p: StdDevProfile) -> float:
    """sigma + (sum_ij b_ij^4)^(1/4)."""
    return sigma(p) + float(np.sum(p.b ** 4)) ** 0.25


def thm41_bound(gdot, ymax, max_entry_value: float, gamma: float) -> float:
    """sqrt(2 + gamma + 1/gamma) * E[gdot] + sqrt(gamma) * E[ymax]
    + 2 * max_ij b_ij.

    gdot and ymax may be McEstimates or plain means.  A Monte Carlo ymax
    mean below 0 is clipped to 0: the exact expectation of a max of
    centered Gaussians is nonnegative for d >= 2 (and 0 by convention when
    the negative part vanishes), so a noise-negative term must not lower
    the bound.
    """
    _check_positive(gamma, "gamma")
    gdot_mean = _mean_of(gdot)
    ymax_mean = max(_mean_of(ymax), 0.0)
    return (
        math.sqrt(2.0 + gamma + 1.0 / gamma) * gdot_mean
        + math.sqrt(gamma) * ymax_mean
        + 2.0 * max_entry_value
    )


def optimize_gamma(gdot, ymax, max_entry_value: float) -> tuple[float, float]:
    """Minimize thm41_bound over gamma > 0 in closed form.

    With G = E[gdot] and Y = E[ymax] (clipped at 0), 2 + gamma + 1/gamma =
    (t + 1/t)^2 for t = sqrt(gamma), so the bound is t (G + Y) + G / t
    + 2 max b.  It is minimal at gamma* = G / (G + Y) <= 1, with value
    2 sqrt(G (G + Y)) + 2 max b.  Y = 0 gives gamma* = 1 exactly.  When G
    vanishes the infimum is approached only as gamma -> 0, which
    thm41_bound cannot take, so gamma is floored at GAMMA_FLOOR.
    """
    g, y = _mean_of(gdot), max(_mean_of(ymax), 0.0)
    gamma = max(g / (g + y), GAMMA_FLOOR) if y > 0.0 else 1.0
    return gamma, thm41_bound(gdot, ymax, max_entry_value, gamma)


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


@dataclass
class BoundReport:
    """Named bound values for one profile, with the constants and Monte
    Carlo inputs that produced them."""

    d: int
    digest: str
    values: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.values.items():
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"bound {key} is not a nonnegative finite value")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "profile_digest": self.digest,
            "bounds": {k: self.values[k] for k in BOUND_IDS},
            "constants": dict(self.constants),
            "mc": dict(self.mc),
        }


def compute_bound_report(
    p: StdDevProfile,
    c: float = DEFAULT_C,
    gamma: float = 1.0,
    replicates: int = 200,
    seed: int = 0,
) -> BoundReport:
    """Evaluate every bound id for one profile.

    thm41 and cor_opt consume Monte Carlo estimates of the two expectation
    terms; their (seed, replicates, stderr) are recorded in the report.
    """
    # Imported here: slicing consumes bvhrect_bound from this module.
    from . import montecarlo, slicing
    from .linalg import psd_split

    gdot = montecarlo.est_gdot(p, replicates, seed)
    split = psd_split(p.variance_matrix)
    ymax = montecarlo.est_ymax(split, replicates, seed)
    bmax = max_entry(p)

    gamma_opt, cor_opt = optimize_gamma(gdot, ymax, bmax)
    values = {
        "bvh": bvh_bound(p),
        "equiv_expression": equiv_expression(p),
        "remark_upper": remark_upper(p, c),
        "cor_sharp": cor_sharp_bound(p, c),
        "cor_opt": cor_opt,
        "latala05": latala05_bound(p),
        "slicing_assembled": slicing.slice_assembled_bound(p),
        "thm41": thm41_bound(gdot, ymax, bmax, gamma),
    }
    return BoundReport(
        d=p.d,
        digest=p.digest(),
        values=values,
        constants={"c": c, "gamma": gamma, "gamma_star": gamma_opt},
        mc={
            "gdot": gdot.to_dict(),
            "ymax": ymax.to_dict(),
            "max_entry": bmax,
        },
    )


def _mean_of(estimate) -> float:
    return float(getattr(estimate, "mean", estimate))


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
