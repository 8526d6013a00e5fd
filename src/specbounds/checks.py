"""The verification suites behind `specbounds verify`: pure functions that
return (failures, details), the failure records and the report fields, and
the equivalence report that the equiv suite reads.

The corpus suites read their per-trial streams from seeding._trial_batches,
in batches of seeding._CHUNK trials; each equals the default_rng([seed, t])
stream it replaces.  Every corpus suite groups each batch by d and works on
(k, d, d) stacks.  The basic and comparison suites read basic_corpus in
chunks of the same size and evaluate the geometry kernels on the stacks,
with one stacked eigensolve for B- in the comparison suite.  The split
suite gives each group one linalg.psd_split and one
linalg.split_invariant_violations call, so one stacked eigensolve.  Each
value keeps the bits of the per-trial public call, and the failures come
in trial order, capped at 20, as a per-trial loop gives them.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import bounds, geometry, linalg, montecarlo, slicing
from .generators import _random_profile, _random_symmetric, parse_family_spec
from .profile import StdDevProfile, sigma
from .seeding import _CHUNK, _streams, _trial_batches

RATIO_ENVELOPE = 10.0
# The Monte Carlo estimates that equivalence_report reads.
EQUIV_QUANTITIES = ("rowmax", "entrymax", "gdot")


def basic_corpus(trials: int, seed: int):
    """Random (profile, v, w, gamma) tuples: d in 2..16, gamma cycling
    {0.1, 1, 10}, support density cycling {1, 0.6, 0.3}."""
    for batch in _trial_stream_batches(trials, seed, 17):
        for t, rng, d, profile_rng in zip(*batch):
            profile = _random_profile(d, profile_rng, (1.0, 0.6, 0.3)[(t // 3) % 3])
            v, w = rng.standard_normal((2, d))  # v's d normals, then w's
            yield profile, v, w, (0.1, 1.0, 10.0)[t % 3]


def _trial_stream_batches(trials: int, seed: int, d_stop: int):
    # (ts, streams, ds, inner) for each batch of _trial_batches: for trial
    # ts[k], streams[k] = default_rng([seed, t]), ds[k] =
    # streams[k].integers(2, d_stop), and inner[k] = default_rng([seed *
    # 1_000_003 + t, d]), the stream of trial t's random matrix.
    for ts, streams in _trial_batches(trials, seed):
        ds = [int(rng.integers(2, d_stop)) for rng in streams]
        yield ts, streams, ds, _streams([seed * 1_000_003 + t, d] for t, d in zip(ts, ds))


def _rows_by_d(ds) -> dict:
    # {d: the indices k with ds[k] == d, in order}
    groups = {}
    for k, d in enumerate(ds):
        groups.setdefault(d, []).append(k)
    return groups


def _capped(results, margin_key) -> tuple[list, dict]:
    # results yields (scaled margin, failure record or None) in trial order;
    # stops at the 20th failure, and details name the least margin seen
    # under margin_key.
    failures, worst = [], np.inf
    for margin, failure in results:
        worst = min(worst, margin)
        if failure is not None:
            failures.append(failure)
            if len(failures) >= 20:
                break
    return failures, {margin_key: float(worst)} if margin_key else {}


def _corpus_results(trials: int, seed: int, test):
    # (scaled margin, failure record or None) for each basic_corpus trial,
    # in trial order.  The corpus is read _CHUNK trials at a time and each
    # chunk is grouped by d: test(b2, v, w, gamma) gets the (k, d, d) stack
    # of variance matrices, the (k, d) stacks of v and w and the (k,) gammas,
    # and returns the k margins, the k failure flags and the named (k,)
    # values that a failure record carries.
    numbered = enumerate(basic_corpus(trials, seed))
    while batch := list(itertools.islice(numbered, _CHUNK)):
        ts, chunk = zip(*batch)
        margins, records = np.empty(len(chunk)), [None] * len(chunk)
        for d, rows in _rows_by_d([profile.d for profile, *_ in chunk]).items():
            profiles, v, w, gamma = zip(*(chunk[k] for k in rows))
            margins[rows], failing, named = test(np.array([p.b for p in profiles]) ** 2,
                                                 np.array(v), np.array(w), np.array(gamma))
            for i in np.flatnonzero(failing).tolist():
                records[rows[i]] = {"trial": ts[rows[i]], "d": d, "gamma": gamma[i],
                                    **{key: float(value[i]) for key, value in named.items()}}
        yield from zip(margins.tolist(), records)


def basic(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The deformation-map gap (geometry.basic_gap) is >= 0 on basic_corpus."""
    def test(b2, v, w, gamma):
        lhs, quad = geometry._natural_dist_sq(b2, v, w)
        gap = geometry._basic_gap(b2, v, w, gamma, lhs, quad)
        scale = 1.0 + abs(gap + lhs) + abs(lhs)
        return gap / scale, gap < -tol * scale, {"gap": gap, "scale": scale}
    return _capped(_corpus_results(trials, seed, test), "min_scaled_gap")


def comparison(trials: int, seed: int, tol: float) -> tuple[list, dict]:
    """The comparison distance dominates the natural one on basic_corpus."""
    def test(b2, v, w, gamma):
        nat, _ = geometry._natural_dist_sq(b2, v, w)
        comp = geometry._comparison_dist_sq(b2, linalg._bminus(b2), v, w, gamma)
        scale = 1.0 + abs(comp) + abs(nat)
        return (comp - nat) / scale, comp < nat - tol * scale, {"comparison": comp,
                                                                 "natural": nat}
    return _capped(_corpus_results(trials, seed, test), "min_scaled_slack")


def split(trials: int, seed: int) -> tuple[list, dict]:
    """The B = B+ - B- invariants on random symmetric matrices, d in 2..32,
    scaled by 0.01, 1 or 100.  Each batch of trials is grouped by d, and
    each group is split and checked as one (k, d, d) stack."""
    def results():
        for ts, streams, ds, inner in _trial_stream_batches(trials, seed, 33):
            # rng.choice([0.01, 1.0, 100.0]), drawn as the index it takes
            scales = [(0.01, 1.0, 100.0)[int(rng.integers(0, 3))] for rng in streams]
            problems = [None] * len(ts)
            for d, rows in _rows_by_d(ds).items():
                stack = _random_symmetric(d, [inner[k] for k in rows], [scales[k] for k in rows])
                found = linalg.split_invariant_violations(stack, linalg.psd_split(stack))
                for k, matrix_problems in zip(rows, found):
                    problems[k] = matrix_problems
            for t, d, matrix_problems in zip(ts, ds, problems):
                yield 0.0, ({"trial": t, "d": d, "problems": matrix_problems}
                            if matrix_problems else None)
    return _capped(results(), None)


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
