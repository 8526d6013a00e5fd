"""The verification suites behind `specbounds verify`: pure functions that
return (failures, details), the failure records and the report fields, and
the equivalence report that the equiv suite reads.

The corpus suites draw their trials in batches of seeding._CHUNK, trial t
being row t % _CHUNK of batch t // _CHUNK, with one keyed stream per draw
kind and batch (seeding._batches).  Each batch is grouped by d, with each
draw kind's segment offsets summed once per batch (seeding._groups), and
the checks read the (k, d, d) and (k, d) stacks of each group straight
from the batch draw.  The basic and comparison suites evaluate the
geometry kernels on them.  Stacks that are exactly symmetric by
construction go to linalg's unvalidated cores: the comparison suite's to
linalg._bminus, one stacked eigensolve for B-, and the split suite's to
linalg._split, each group then checked by one
linalg.split_invariant_violations call.  Each value keeps the bits of the
per-trial public call on basic_corpus, the per-trial view of the draw.
Each suite reports in one pass: it takes each batch's failure records in
trial order and stops at the batch of the 20th, and basic and comparison
keep the least scaled margin up to that failure.
"""

from __future__ import annotations

import numpy as np

from . import bounds, geometry, linalg, montecarlo, slicing
from .generators import _upper_mask, parse_family_spec
from .profile import StdDevProfile, sigma
from .seeding import (
    DENSITY_TAG,
    DIM_TAG,
    MATRIX_TAG,
    PAIR_TAG,
    PROFILE_TAG,
    SCALE_TAG,
    _batches,
    _groups,
)

RATIO_ENVELOPE = 10.0
# The Monte Carlo estimates that equivalence_report reads.
EQUIV_QUANTITIES = ("rowmax", "entrymax", "gdot")


def basic_corpus(trials: int, seed: int):
    """Random (profile, v, w, gamma) tuples in trial order: d in 2..16, gamma
    cycling {0.1, 1, 10}, support density cycling {1, 0.6, 0.3} every three
    trials.  The per-trial view of the batches that the basic and
    comparison checks read."""
    for ts, groups in _basic_batches(trials, seed):
        cases = [None] * len(ts)
        for _, rows, b, v, w, gamma in groups:
            for k, bk, vk, wk, gk in zip(rows.tolist(), b, v, w, gamma.tolist()):
                cases[k] = (StdDevProfile._trusted(bk), vk, wk, gk)
        yield from cases


def _basic_batches(trials: int, seed: int):
    # (ts, groups) for each batch of basic_corpus, with one group (d, rows,
    # b, v, w, gamma) per d: the batch rows of the trials of that d, their
    # (k, d, d) profile stack, (k, d) stacks of v and w, and (k,) gammas.
    # A trial's segments are its d, d*d |N| entries and d*d density
    # uniforms, of which the upper triangle is kept and mirrored, and 2d
    # normals, v's then w's.
    for ts, stream in _batches(trials, seed):
        t = np.array(ts)
        ds = stream(DIM_TAG).integers(2, 17, size=len(ts))
        entries, pairs = ds * ds, 2 * ds
        density = np.array([1.0, 0.6, 0.3])[t // 3 % 3]
        gamma = np.array([0.1, 1.0, 10.0])[t % 3]
        # |N| entries where the density uniform is below the trial's density;
        # uniforms are below 1, so a trial of density 1 keeps every entry.
        kept = np.abs(stream(PROFILE_TAG).standard_normal(entries.sum()))
        kept *= stream(DENSITY_TAG).random(entries.sum()) < np.repeat(density, entries)
        vw = stream(PAIR_TAG).standard_normal(pairs.sum())
        groups = []
        for d, rows, at, pair_at in _groups(ds, entries, pairs):
            b = kept[at].reshape(-1, d, d)
            b = np.where(_upper_mask(d), b, b.swapaxes(-1, -2))
            v, w = vw[pair_at].reshape(-1, 2, d).transpose(1, 0, 2)
            groups.append((d, rows, b, v, w, gamma[rows]))
        yield ts, groups


def _corpus_check(trials: int, seed: int, test, margin_key: str) -> tuple[list, dict]:
    # The failures of test on basic_corpus in trial order up to the 20th,
    # whose batch is the last drawn, and under margin_key the least scaled
    # margin up to there, but for all-zero profiles, whose margin is exactly
    # 0 (0.0 if no trial is left: JSON has no inf).  test(b2, v, w, gamma)
    # gets the stacks of one d group of a batch and returns per trial its
    # margin, its failure flag and the named values of its failure record.
    failures, worst = [], np.inf
    for ts, groups in _basic_batches(trials, seed):
        margins, records = np.empty(len(ts)), [None] * len(ts)
        for d, rows, b, v, w, gamma in groups:
            margin, failing, named = test(b ** 2, v, w, gamma)
            margins[rows] = np.where(b.any(axis=(1, 2)), margin, np.inf)
            for i in np.flatnonzero(failing).tolist():
                records[rows[i]] = {"trial": ts[rows[i]], "d": d, "gamma": float(gamma[i]),
                                    **{key: float(value[i]) for key, value in named.items()}}
        for margin, record in zip(margins.tolist(), records):
            worst = min(worst, margin)
            if record is not None:
                failures.append(record)
                if len(failures) == 20:
                    break
        if len(failures) == 20:
            break
    return failures, {margin_key: worst if worst < np.inf else 0.0}


def basic(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The deformation-map gap (geometry.basic_gap) is >= 0 on basic_corpus."""
    def test(b2, v, w, gamma):
        lhs, quad = geometry._natural_dist_sq(b2, v, w)
        gap = geometry._basic_gap(b2, v, w, gamma, lhs, quad)
        scale = 1.0 + abs(gap + lhs) + abs(lhs)
        return gap / scale, gap < -tol * scale, {"gap": gap, "scale": scale}
    return _corpus_check(trials, seed, test, "min_scaled_gap")


def comparison(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The comparison distance dominates the natural one on basic_corpus."""
    def test(b2, v, w, gamma):
        nat, _ = geometry._natural_dist_sq(b2, v, w)
        comp = geometry._comparison_dist_sq(b2, linalg._bminus(b2), v, w, gamma)
        scale = 1.0 + abs(comp) + abs(nat)
        return (comp - nat) / scale, comp < nat - tol * scale, {"comparison": comp,
                                                                 "natural": nat}
    return _corpus_check(trials, seed, test, "min_scaled_slack")


def split(trials: int, seed: int) -> tuple[list, dict]:
    """The B = B+ - B- invariants on random symmetric matrices (A + A.T) / 2,
    d in 2..32, A standard Gaussian scaled by 0.01, 1 or 100.  A trial's
    segments are its d, its scale index and the d*d entries of A.  Each
    batch of trials is grouped by d, and each group is split and checked as
    one (k, d, d) stack."""
    failures = []
    for ts, stream in _batches(trials, seed):
        ds = stream(DIM_TAG).integers(2, 33, size=len(ts))
        scales = np.array([0.01, 1.0, 100.0])[stream(SCALE_TAG).integers(0, 3, size=len(ts))]
        entries = ds * ds
        normals = stream(MATRIX_TAG).standard_normal(entries.sum())
        normals *= np.repeat(scales, entries)
        problems = [None] * len(ts)
        for d, rows, at in _groups(ds, entries):
            a = normals[at].reshape(-1, d, d)
            # exactly symmetric, so it needs none of psd_split's validation
            stack = (a + a.swapaxes(-1, -2)) / 2.0
            found = linalg.split_invariant_violations(stack, linalg._split(stack))
            for k, matrix_problems in zip(rows.tolist(), found):
                problems[k] = matrix_problems
        failures += [{"trial": t, "d": d, "problems": matrix_problems}
                     for t, d, matrix_problems in zip(ts, ds.tolist(), problems) if matrix_problems]
        if len(failures) >= 20:
            return failures[:20], {}
    return failures, {}


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


def equivalence_report(p: StdDevProfile, estimates: dict) -> dict:
    """The four equivalent quantities and their pairwise ratios.

    Quantities: rowmax and gdot (Monte Carlo), sigma + entrymax (closed
    form plus Monte Carlo), and the fully closed-form expression.  The
    Monte Carlo ones are read from ``estimates``, a mapping as
    montecarlo.estimate returns it that holds EQUIV_QUANTITIES (other keys
    are ignored), and so are the replicate count and seed.  For the zero
    profile all quantities vanish and every ratio is reported as 1 by
    convention.
    """
    rowmax, entrymax, gdot = (estimates[q] for q in EQUIV_QUANTITIES)
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
        "replicates": rowmax.replicates,
        "seed": rowmax.seed,
    }


def equiv(families, replicates: int, seed: int) -> tuple[list, dict]:
    """Every ratio of two row-norm quantities lies within RATIO_ENVELOPE of 1."""
    def test(spec, profile):
        report = equivalence_report(
            profile, montecarlo.estimate(profile, EQUIV_QUANTITIES, replicates, seed))
        return report, [{"family": spec, "pair": [a, b], "ratio": ratio}
                        for a, row in report["ratios"].items() for b, ratio in row.items()
                        if not 1.0 / RATIO_ENVELOPE <= ratio <= RATIO_ENVELOPE]
    return _per_family(families, test)
