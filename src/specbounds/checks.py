"""The verification suites behind `specbounds verify`: pure functions that
return (failures, details), the failure records and the report fields, and
the equivalence report that the equiv suite reads."""

from __future__ import annotations

import numpy as np

from . import bounds, geometry, linalg, montecarlo, slicing
from .generators import parse_family_spec, random_profile, random_symmetric
from .profile import StdDevProfile, sigma

RATIO_ENVELOPE = 10.0


def basic_corpus(trials: int, seed: int):
    """Random (profile, v, w, gamma) tuples: d in 2..16, gamma cycling
    {0.1, 1, 10}, support density cycling {1, 0.6, 0.3}."""
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, 17))
        profile = random_profile(d, seed=seed * 1_000_003 + t,
                                 density=(1.0, 0.6, 0.3)[(t // 3) % 3])
        yield profile, rng.standard_normal(d), rng.standard_normal(d), (0.1, 1.0, 10.0)[t % 3]


def _capped(cases, test, margin_key) -> tuple[list, dict]:
    # test(t, *case) -> (scaled margin, failure record or None), in trial order
    # up to the 20th failure; details name the least margin under margin_key.
    failures, worst = [], np.inf
    for t, case in enumerate(cases):
        margin, failure = test(t, *case)
        worst = min(worst, margin)
        if failure is not None:
            failures.append(failure)
            if len(failures) >= 20:
                break
    return failures, {margin_key: float(worst)} if margin_key else {}


def basic(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The deformation-map gap (geometry.basic_gap) is >= 0 on basic_corpus."""
    def test(t, profile, v, w, gamma):
        lhs = geometry.natural_dist_sq(profile, v, w)
        gap = geometry.basic_gap(profile, v, w, gamma)
        scale = 1.0 + abs(gap + lhs) + abs(lhs)
        record = {"trial": t, "d": profile.d, "gamma": gamma, "gap": gap, "scale": scale}
        return gap / scale, record if gap < -tol * scale else None
    return _capped(basic_corpus(trials, seed), test, "min_scaled_gap")


def comparison(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The comparison distance dominates the natural one on basic_corpus."""
    def test(t, profile, v, w, gamma):
        split = linalg.psd_split(profile.variance_matrix)
        nat = geometry.natural_dist_sq(profile, v, w)
        comp = geometry.comparison_dist_sq(profile, split, v, w, gamma)
        scale = 1.0 + abs(comp) + abs(nat)
        record = {"trial": t, "d": profile.d, "gamma": gamma, "comparison": comp, "natural": nat}
        return (comp - nat) / scale, record if comp < nat - tol * scale else None
    return _capped(basic_corpus(trials, seed), test, "min_scaled_slack")


def split(trials: int, seed: int) -> tuple[list, dict]:
    """The B = B+ - B- invariants on random symmetric matrices, d in 2..32."""
    def cases():
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            d = int(rng.integers(2, 33))
            scale = float(rng.choice([0.01, 1.0, 100.0]))
            yield d, random_symmetric(d, seed=seed * 1_000_003 + t, scale=scale)
    def test(t, d, a):
        problems = linalg.split_invariant_violations(a, linalg.psd_split(a))
        return 0.0, {"trial": t, "d": d, "problems": problems} if problems else None
    return _capped(cases(), test, None)


def _per_family(families, test) -> tuple[list, dict]:
    # test(spec, profile) -> (report, failure records), for each family spec.
    failures, reports = [], {}
    for spec in families:
        reports[spec], found = test(spec, parse_family_spec(spec))
        failures += found
    return failures, {"reports": reports}


def slice(families, replicates: int, seed: int) -> tuple[list, dict]:
    """The slicing norm inequalities, with each profile's band decomposition."""
    def test(spec, profile):
        outcome = slicing.verify_slice_inequality(profile, replicates, seed)
        report = {**outcome, "decomposition": slicing.decomposition_summary(profile)}
        return report, [] if outcome["holds"] else [{"family": spec, "outcome": outcome}]
    return _per_family(families, test)


def equivalence_report(p: StdDevProfile, replicates: int, seed: int) -> dict:
    """The four equivalent quantities and their pairwise ratios.

    Quantities: rowmax and gdot (Monte Carlo), sigma + entrymax (closed
    form plus Monte Carlo), and the fully closed-form expression.  For the
    zero profile all quantities vanish and every ratio is reported as 1 by
    convention.
    """
    est = montecarlo.estimate(p, ("rowmax", "entrymax", "gdot"), replicates, seed)
    rowmax, entrymax, gdot = est["rowmax"], est["entrymax"], est["gdot"]
    means = {
        "rowmax": rowmax.mean,
        "gdot": gdot.mean,
        "sigma_plus_entrymax": sigma(p) + entrymax.mean,
        "equiv_expression": bounds.equiv_expression(p),
    }
    ratios = {a: {b: slicing._ratio(means[a], means[b]) for b in means} for a in means}
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


def equiv(families, replicates: int, seed: int) -> tuple[list, dict]:
    """Every ratio of two row-norm quantities lies within RATIO_ENVELOPE of 1."""
    def test(spec, profile):
        report = equivalence_report(profile, replicates, seed)
        return report, [{"family": spec, "pair": [a, b], "ratio": ratio}
                        for a, row in report["ratios"].items() for b, ratio in row.items()
                        if not 1.0 / RATIO_ENVELOPE <= ratio <= RATIO_ENVELOPE]
    return _per_family(families, test)
