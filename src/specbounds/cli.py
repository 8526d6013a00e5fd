"""Command-line surface: bound reports, Monte Carlo runs, verification
suites, boundary tracing, and the family/dimension scan harness.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
Every command is a pure function of its flags plus the seed; all numeric
fields except wall_time_s reproduce exactly on re-runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds, geometry, linalg, montecarlo, slicing
from .generators import parse_family_spec, random_profile, random_symmetric
from .linalg import psd_split
from .profile import StdDevProfile, load_profile

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

RATIO_ENVELOPE = 10.0

DEFAULT_EQUIV_FAMILIES = ["wigner:d=64", "diagonal_unit:d=64"]
DEFAULT_SLICE_FAMILIES = ["wigner:d=64", "diagonal_decay:d=256"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # verification failures, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state in the parser.
    parser = _Parser(prog="specbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="closed-form bound report for one profile")
    _add_profile_flags(pb)
    pb.add_argument("--c", type=_finite_float(positive=True), default=bounds.DEFAULT_C,
                    help="universal constant for the C-carrying bounds")
    pb.add_argument("--gamma", type=_finite_float(positive=True), default=1.0,
                    help="gamma for the fixed-gamma comparison bound")
    pb.add_argument("--replicates", type=int, default=200,
                    help="replicates for the two Monte Carlo bound inputs")
    pb.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_workers_flag(pb)
    pb.add_argument("--out", type=Path)

    pm = sub.add_parser("mc", help="Monte Carlo estimate of one quantity")
    _add_profile_flags(pm)
    pm.add_argument("--quantity", required=True,
                    choices=[*montecarlo.PROFILE_QUANTITIES, "all"])
    pm.add_argument("--replicates", type=int, default=200)
    pm.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_workers_flag(pm)
    pm.add_argument("--out", type=Path)

    pv = sub.add_parser("verify", help="run one verification suite")
    pv.add_argument("--check", required=True,
                    choices=["basic", "comparison", "slice", "split", "equiv"])
    pv.add_argument("--trials", type=int, default=10000)
    pv.add_argument("--seed", type=_int_at_least(0), default=0)
    pv.add_argument("--tol", type=_finite_float(), default=1e-9)
    pv.add_argument("--family", action="append", default=None,
                    help="family spec(s) for the slice/equiv checks")
    pv.add_argument("--replicates", type=int, default=50)
    pv.add_argument("--out", type=Path)

    pball = sub.add_parser("ball", help="trace the deformed-ball boundary (d=2)")
    _add_profile_flags(pball)
    pball.add_argument("--points", type=int, default=256)
    pball.add_argument("--out", type=Path)

    ps = sub.add_parser("scan", help="bounds + MC quantities over families x dims")
    ps.add_argument("--families", required=True,
                    help="comma-separated family specs, e.g. wigner,sparse_random:density=0.3,seed=1; "
                         "a key=value token continues the family before it")
    ps.add_argument("--dims", required=True,
                    help="comma-separated dimensions, e.g. 16,64")
    ps.add_argument("--replicates", type=int, default=200)
    ps.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_workers_flag(ps)
    ps.add_argument("--out", type=Path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        handler = {
            "bounds": _cmd_bounds,
            "mc": _cmd_mc,
            "verify": _cmd_verify,
            "ball": _cmd_ball,
            "scan": _cmd_scan,
        }[args.command]
        report, status = handler(args)
        if isinstance(report, dict):
            report["wall_time_s"] = time.perf_counter() - started
            # allow_nan=False: a non-finite number is an error, never
            # invalid JSON on stdout
            text = json.dumps(report, indent=2, allow_nan=False)
        else:
            text = report
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy names the requested size, e.g. "Unable to allocate 29.1 TiB
        # for an array with shape (2000000, 2000000) ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "out", None):
        args.out.write_text(text if text.endswith("\n") else text + "\n")
    print(text)
    return status


def _add_profile_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=Path, help="profile file (CSV or JSON)")
    group.add_argument("--family", help="family spec, e.g. wigner:d=16")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="input format (default: by file suffix)")


def _add_workers_flag(parser) -> None:
    parser.add_argument("--workers", type=_int_at_least(1), default=1,
                        help="accepted for compatibility; replicates run serially "
                             "and results do not depend on it")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return integer


def _finite_float(positive: bool = False):
    # A finite number > 0 if positive, else a finite number >= 0.
    def number(text: str) -> float:
        value = float(text)
        if not np.isfinite(value) or value < 0 or (positive and value == 0):
            kind = "a finite number > 0" if positive else "a finite number >= 0"
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text}")
        return value
    return number


def _load(args) -> tuple[StdDevProfile, dict]:
    if args.family is not None:
        return parse_family_spec(args.family), {"family": args.family}
    fmt = args.format or ("json" if args.input.suffix == ".json" else "csv")
    profile = load_profile(args.input.read_text(), format=fmt)
    return profile, {"file": str(args.input)}


def _cmd_bounds(args) -> tuple[dict, int]:
    profile, source = _load(args)
    report = bounds.compute_bound_report(
        profile,
        c=args.c,
        gamma=args.gamma,
        replicates=args.replicates,
        seed=args.seed,
    )
    return {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "profile": {"d": profile.d, "digest": profile.digest(), **source},
        "report": report.to_dict(),
        "seed": args.seed,
    }, EXIT_OK


def _cmd_mc(args) -> tuple[dict, int]:
    profile, source = _load(args)
    quantities = montecarlo.PROFILE_QUANTITIES if args.quantity == "all" else [args.quantity]
    x_quantities = [q for q in quantities if q in montecarlo.X_QUANTITIES]
    estimates = (montecarlo.est_x(profile, args.replicates, args.seed, x_quantities)
                 if x_quantities else {})
    if "gdot" in quantities:
        estimates["gdot"] = montecarlo.est_gdot(profile, args.replicates, args.seed)
    if "ymax" in quantities:
        split = psd_split(profile.variance_matrix)
        estimates["ymax"] = montecarlo.est_ymax(split, args.replicates, args.seed)
    return {
        "schema": SCHEMA_VERSION,
        "command": "mc",
        "profile": {"d": profile.d, "digest": profile.digest(), **source},
        "estimates": {q: estimates[q].to_dict() for q in quantities},
        "replicates": args.replicates,
        "seed": args.seed,
    }, EXIT_OK


def _cmd_ball(args):
    profile, _ = _load(args)
    rows = geometry.ball_boundary_2d(profile, args.points)
    return geometry.ball_boundary_csv(rows), EXIT_OK


def _cmd_scan(args) -> tuple[dict, int]:
    families = []
    for token in (tok.strip() for tok in args.families.split(",")):
        if "=" in token and ":" not in token and families:
            families[-1] += "," + token  # sparse_random:density=0.35,seed=9
        elif token:
            families.append(token)
    dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    if not families or not dims:
        raise ValueError("scan needs at least one family and one dimension")
    rows = []
    for name in families:
        for d in dims:
            # family tokens may carry extra params (band:w=2); the scanned
            # dimension is merged in
            spec = f"{name},d={d}" if ":" in name else f"{name}:d={d}"
            profile = parse_family_spec(spec)
            rows.append(_scan_row(profile, spec, args))
    return {
        "schema": SCHEMA_VERSION,
        "command": "scan",
        "rows": rows,
        "replicates": args.replicates,
        "seed": args.seed,
    }, EXIT_OK


def _scan_row(profile: StdDevProfile, spec: str, args) -> dict:
    report = bounds.compute_bound_report(profile, replicates=args.replicates, seed=args.seed)
    x = montecarlo.est_x(profile, args.replicates, args.seed)
    norm, rowmax, entrymax = x["norm"], x["rowmax"], x["entrymax"]
    equiv_value = report.values["equiv_expression"]
    return {
        "family": spec,
        "d": profile.d,
        "digest": profile.digest(),
        "bounds": report.to_dict()["bounds"],
        "constants": report.to_dict()["constants"],
        "estimates": {
            "norm": norm.to_dict(),
            "rowmax": rowmax.to_dict(),
            "entrymax": entrymax.to_dict(),
            "gdot": report.mc["gdot"],
            "ymax": report.mc["ymax"],
        },
        "conjecture_ratio": norm.mean / equiv_value if equiv_value else 1.0,
        "norm_over_rowmax": norm.mean / rowmax.mean if rowmax.mean else 1.0,
    }


def _cmd_verify(args) -> tuple[dict, int]:
    if args.check in ("basic", "comparison", "split") and args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    check = {
        "basic": _check_basic,
        "comparison": _check_comparison,
        "slice": _check_slice,
        "split": _check_split,
        "equiv": _check_equiv,
    }[args.check]
    failures, details = check(args)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "check": args.check,
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "passed": not failures,
        "failures": failures,
        **details,
    }
    return report, EXIT_OK if not failures else EXIT_VERIFY_FAILED


def basic_corpus(trials: int, seed: int):
    """Random (profile, v, w, gamma) tuples: d in 2..16, gamma cycling
    {0.1, 1, 10}, support density cycling {1, 0.6, 0.3}."""
    gammas = (0.1, 1.0, 10.0)
    densities = (1.0, 0.6, 0.3)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, 17))
        profile = random_profile(d, seed=seed * 1_000_003 + t,
                                 density=densities[(t // 3) % 3])
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        yield profile, v, w, gammas[t % 3]


def _check_basic(args) -> tuple[list, dict]:
    failures = []
    min_gap = np.inf
    for t, (profile, v, w, gamma) in enumerate(basic_corpus(args.trials, args.seed)):
        lhs = geometry.natural_dist_sq(profile, v, w)
        gap = geometry.basic_gap(profile, v, w, gamma)
        scale = 1.0 + abs(gap + lhs) + abs(lhs)
        min_gap = min(min_gap, gap / scale)
        if gap < -args.tol * scale:
            failures.append({"trial": t, "d": profile.d, "gamma": gamma,
                             "gap": gap, "scale": scale})
            if len(failures) >= 20:
                break
    return failures, {"min_scaled_gap": float(min_gap)}


def _check_comparison(args) -> tuple[list, dict]:
    failures = []
    min_slack = np.inf
    for t, (profile, v, w, gamma) in enumerate(basic_corpus(args.trials, args.seed)):
        split = psd_split(profile.variance_matrix)
        nat = geometry.natural_dist_sq(profile, v, w)
        comp = geometry.comparison_dist_sq(profile, split, v, w, gamma)
        scale = 1.0 + abs(comp) + abs(nat)
        min_slack = min(min_slack, (comp - nat) / scale)
        if comp < nat - args.tol * scale:
            failures.append({"trial": t, "d": profile.d, "gamma": gamma,
                             "comparison": comp, "natural": nat})
            if len(failures) >= 20:
                break
    return failures, {"min_scaled_slack": float(min_slack)}


def _check_slice(args) -> tuple[list, dict]:
    failures = []
    reports = {}
    for spec in args.family or DEFAULT_SLICE_FAMILIES:
        profile = parse_family_spec(spec)
        outcome = slicing.verify_slice_inequality(profile, args.replicates, args.seed)
        reports[spec] = {**outcome, "decomposition": slicing.decomposition_summary(profile)}
        if not outcome["holds"]:
            failures.append({"family": spec, "outcome": outcome})
    return failures, {"reports": reports}


def _check_split(args) -> tuple[list, dict]:
    failures = []
    for t in range(args.trials):
        rng = np.random.default_rng([args.seed, t])
        d = int(rng.integers(2, 33))
        scale = float(rng.choice([0.01, 1.0, 100.0]))
        a = random_symmetric(d, seed=args.seed * 1_000_003 + t, scale=scale)
        split = psd_split(a)
        problems = linalg.split_invariant_violations(a, split)
        if problems:
            failures.append({"trial": t, "d": d, "problems": problems})
            if len(failures) >= 20:
                break
    return failures, {}


def _check_equiv(args) -> tuple[list, dict]:
    failures = []
    reports = {}
    for spec in args.family or DEFAULT_EQUIV_FAMILIES:
        profile = parse_family_spec(spec)
        report = montecarlo.equivalence_report(profile, args.replicates, args.seed)
        reports[spec] = report
        for a, row in report["ratios"].items():
            for b, ratio in row.items():
                if not (1.0 / RATIO_ENVELOPE <= ratio <= RATIO_ENVELOPE):
                    failures.append({"family": spec, "pair": [a, b], "ratio": ratio})
    return failures, {"reports": reports}


if __name__ == "__main__":
    sys.exit(main())
