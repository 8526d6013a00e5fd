"""Closed-form spectral-norm bounds and the optimal gamma of Theorem 4.1.

Universal constants the theory leaves unnamed are exposed as parameters
(default C = 2) and every report records the exact values used.
"""

from __future__ import annotations

import math

import numpy as np

from . import montecarlo, slicing
from .profile import StdDevProfile, gamma_star, max_entry, row_l4_max_term, sigma

DEFAULT_C = 2.0

# Every bound id, in report order, with what it claims.  "explicit":
# E||X|| <= bound holds with the stated constants.  "order": E||X|| is
# within an unnamed universal constant of it.  The kind stays out of the
# reports.
BOUND_KINDS = {
    "bvh": "order",
    "equiv_expression": "order",
    "remark_upper": "order",
    "cor_sharp": "order",
    "cor_opt": "explicit",
    "latala05": "order",
    "slicing_assembled": "order",
    "thm41": "explicit",
}
BOUND_IDS = tuple(BOUND_KINDS)

GAMMA_FLOOR = 1e-6


class ConstantOverflow(ValueError):
    """A bound that is not finite at the constant the caller chose.  The
    profile checks keep every other term finite, so the constant is the
    cause: 1/gamma, or C times a profile statistic, overflowed."""

    def __init__(self, bound: str, name: str, value: float):
        super().__init__(f"bound {bound} is not finite at {name}={value!r}")
        self.name = name


def bvh_bound(p: StdDevProfile) -> float:
    """sigma + (max_ij b_ij) * sqrt(ln d); the log term is 0 for d = 1."""
    return sigma(p) + max_entry(p) * math.sqrt(math.log(p.d))


def equiv_expression(p: StdDevProfile) -> float:
    """sigma + max_ij bstar_ij sqrt(ln i), the dimension-free expression."""
    return sigma(p) + gamma_star(p, offset=0)


def remark_upper(p: StdDevProfile, c: float = DEFAULT_C) -> float:
    """sigma + C * max_ij bstar_ij sqrt(ln(i+1)), an order expression: on
    wigner:d it is sqrt(d) + C sqrt(ln(d+1)) while E||X|| ~ 2 sqrt(d), so no
    C makes it an upper bound at every d."""
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


def thm41_bound(gdot: float, ymax: float, max_entry_value: float, gamma: float) -> float:
    """sqrt(2 + gamma + 1/gamma) * E[gdot] + sqrt(gamma) * E[ymax]
    + 2 * max_ij b_ij, given the means E[gdot] and E[ymax].

    A Monte Carlo ymax mean below 0 is clipped to 0: the exact expectation
    of a max of centered Gaussians is nonnegative for d >= 2 (and 0 by
    convention when the negative part vanishes), so a noise-negative term
    must not lower the bound.
    """
    _check_positive(gamma, "gamma")
    return (
        math.sqrt(2.0 + gamma + 1.0 / gamma) * gdot
        + math.sqrt(gamma) * max(ymax, 0.0)
        + 2.0 * max_entry_value
    )


def optimize_gamma(gdot: float, ymax: float, max_entry_value: float) -> tuple[float, float]:
    """Minimize thm41_bound over gamma > 0 in closed form.

    With G = E[gdot] and Y = E[ymax] (clipped at 0), 2 + gamma + 1/gamma =
    (t + 1/t)^2 for t = sqrt(gamma), so the bound is t (G + Y) + G / t
    + 2 max b.  It is minimal at gamma* = G / (G + Y) <= 1, with value
    2 sqrt(G (G + Y)) + 2 max b.  Y = 0 gives gamma* = 1 exactly.  When G
    vanishes the infimum is approached only as gamma -> 0, which
    thm41_bound cannot take, so gamma is floored at GAMMA_FLOOR.
    """
    y = max(ymax, 0.0)
    gamma = max(gdot / (gdot + y), GAMMA_FLOOR) if y > 0.0 else 1.0
    return gamma, thm41_bound(gdot, ymax, max_entry_value, gamma)


def compute_bound_report(
    p: StdDevProfile,
    c: float = DEFAULT_C,
    gamma: float = 1.0,
    replicates: int = 200,
    seed: int = 0,
) -> dict:
    """Evaluate every bound id for one profile: the report block with d,
    profile_digest, bounds in BOUND_IDS order, constants and mc.

    thm41 and cor_opt consume Monte Carlo estimates of the two expectation
    terms; their (seed, replicates, stderr) are recorded in the report.
    Raises ValueError naming any bound that is negative or not finite, and
    ConstantOverflow, a ValueError, when the bound takes c or gamma.
    """
    gdot = montecarlo.est_gdot(p, replicates, seed)
    ymax = montecarlo.est_ymax(p, replicates, seed)
    bmax = max_entry(p)

    gamma_opt, cor_opt = optimize_gamma(gdot.mean, ymax.mean, bmax)
    values = {
        "bvh": bvh_bound(p),
        "equiv_expression": equiv_expression(p),
        "remark_upper": remark_upper(p, c),
        "cor_sharp": cor_sharp_bound(p, c),
        "cor_opt": cor_opt,
        "latala05": latala05_bound(p),
        "slicing_assembled": slicing.slice_assembled_bound(p),
        "thm41": thm41_bound(gdot.mean, ymax.mean, bmax, gamma),
    }
    # the keyword and value of the constant each C- or gamma-carrying bound takes
    constant_of = {"remark_upper": ("c", c), "cor_sharp": ("c", c), "thm41": ("gamma", gamma)}
    for key, value in values.items():
        if not (np.isfinite(value) and value >= 0):
            if key in constant_of:
                raise ConstantOverflow(key, *constant_of[key])
            raise ValueError(f"bound {key} is not a nonnegative finite value")
    return {
        "d": p.d,
        "profile_digest": p.digest(),
        "bounds": values,
        "constants": {"c": c, "gamma": gamma, "gamma_star": gamma_opt},
        "mc": {"gdot": gdot.to_dict(), "ymax": ymax.to_dict(), "max_entry": bmax},
    }


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
