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

from . import bounds, checks, geometry, montecarlo
from .checks import basic_corpus  # noqa: F401  (re-exported: read as cli.basic_corpus)
from .generators import _check_memory, parse_family_spec
from .profile import StdDevProfile, load_profile

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

DEFAULT_EQUIV_FAMILIES = ["wigner:d=64", "diagonal_unit:d=64"]
DEFAULT_SLICE_FAMILIES = ["wigner:d=64", "diagonal_decay:d=256"]

# The verify suites by --check name.  Each looks its checks.* function up
# when it runs, so that a test can replace that function.
_VERIFY_CHECKS = {
    "basic": lambda args: checks.basic(args.trials, args.seed, args.tol),
    "comparison": lambda args: checks.comparison(args.trials, args.seed, args.tol),
    "slice": lambda args: checks.slice(args.family or DEFAULT_SLICE_FAMILIES,
                                       args.replicates, args.seed),
    "split": lambda args: checks.split(args.trials, args.seed),
    "equiv": lambda args: checks.equiv(args.family or DEFAULT_EQUIV_FAMILIES,
                                       args.replicates, args.seed),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # verification failures, so main reports usage errors as input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state in the parser.
    parser = _Parser(prog="specbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The run flags of bounds, mc and scan; verify keeps its own --replicates floor of 1.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--replicates", type=_int_at_least(2), default=200,
                     help="Monte Carlo replicates per estimate")
    run.add_argument("--seed", type=_int_at_least(0), default=0)
    run.add_argument("--workers", type=_int_at_least(1), default=1,
                     help="accepted for compatibility; replicates run serially "
                          "and results do not depend on it")
    run.add_argument("--out", type=Path)

    pb = sub.add_parser("bounds", parents=[run], help="closed-form bound report for one profile")
    _add_profile_flags(pb)
    pb.add_argument("--c", type=_finite_float(positive=True), default=bounds.DEFAULT_C,
                    help="universal constant for the C-carrying bounds")
    pb.add_argument("--gamma", type=_finite_float(positive=True), default=1.0,
                    help="gamma for the fixed-gamma comparison bound")

    pm = sub.add_parser("mc", parents=[run], help="Monte Carlo estimate of one quantity")
    _add_profile_flags(pm)
    pm.add_argument("--quantity", required=True,
                    choices=[*montecarlo.PROFILE_QUANTITIES, "all"])

    pv = sub.add_parser("verify", help="run one verification suite")
    pv.add_argument("--check", required=True, choices=list(_VERIFY_CHECKS))
    pv.add_argument("--trials", type=_int_at_least(1), default=10000)
    pv.add_argument("--seed", type=_int_at_least(0), default=0)
    pv.add_argument("--tol", type=_finite_float(), default=1e-9)
    pv.add_argument("--family", action="append", default=None,
                    help="family spec(s) for the slice/equiv checks")
    pv.add_argument("--replicates", type=_int_at_least(1), default=50)
    pv.add_argument("--out", type=Path)

    pball = sub.add_parser("ball", help="trace the deformed-ball boundary (d=2)")
    _add_profile_flags(pball)
    pball.add_argument("--points", type=_int_at_least(3), default=256)
    pball.add_argument("--out", type=Path)

    ps = sub.add_parser("scan", parents=[run], help="bounds + MC quantities over families x dims")
    ps.add_argument("--families", required=True,
                    help="comma-separated family specs, e.g. wigner,sparse_random:density=0.3,seed=1; "
                         "a key=value token continues the family before it")
    ps.add_argument("--dims", required=True,
                    help="comma-separated dimensions, e.g. 16,64")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A run whose values alone exceed physical memory is refused before
        # anything is drawn: 8 bytes per replicate, and 256 per ball point (the
        # tracemalloc peak at 1e5 and 4e5 points, mostly CSV lines as strings).
        for flag, size in (("replicates", 8), ("points", 256)):
            count = getattr(args, flag, 0)  # ball has no --replicates, the rest no --points
            _check_memory(f"--{flag}", count, size * count)
        started = time.perf_counter()
        handler = {"bounds": _cmd_bounds, "mc": _cmd_mc, "verify": _cmd_verify,
                   "ball": _cmd_ball, "scan": _cmd_scan}[args.command]
        report, status = handler(args)
        if isinstance(report, dict):
            report = {"schema": SCHEMA_VERSION, "command": args.command, **report,
                      "wall_time_s": time.perf_counter() - started}
            # allow_nan=False: a non-finite number is an error, never
            # invalid JSON on stdout
            text = json.dumps(report, indent=2, allow_nan=False) + "\n"
        else:
            text = report  # the CSV ends in its own newline
        if getattr(args, "out", None):
            args.out.write_text(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy names the requested size, e.g. "Unable to allocate 29.1 TiB
        # for an array with shape (2000000, 2000000) ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return status


def _add_profile_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=Path, help="profile file (CSV or JSON)")
    group.add_argument("--family", help="family spec, e.g. wigner:d=16")


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
    # The profile and its report block: d, digest and where it came from.
    if args.family is not None:
        profile, source = parse_family_spec(args.family), {"family": args.family}
    else:
        fmt = "json" if args.input.suffix == ".json" else "csv"
        profile = load_profile(args.input.read_text(), format=fmt)
        source = {"file": str(args.input)}
    return profile, {"d": profile.d, "digest": profile.digest(), **source}


def _cmd_bounds(args) -> tuple[dict, int]:
    profile, block = _load(args)
    try:
        report = bounds.compute_bound_report(
            profile,
            c=args.c,
            gamma=args.gamma,
            replicates=args.replicates,
            seed=args.seed,
        )
    except bounds.ConstantOverflow as exc:  # the flags are named as the keywords
        raise ValueError(f"argument --{exc.name}: {exc}") from None
    return {"profile": block, "report": report, "seed": args.seed}, EXIT_OK


def _cmd_mc(args) -> tuple[dict, int]:
    profile, block = _load(args)
    quantities = montecarlo.PROFILE_QUANTITIES if args.quantity == "all" else [args.quantity]
    estimates = montecarlo.estimate(profile, quantities, args.replicates, args.seed)
    return {
        "profile": block,
        "estimates": {q: e.to_dict() for q, e in estimates.items()},
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
    dims = [_dim_token(tok) for tok in args.dims.split(",") if tok.strip()]
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
    return {"rows": rows, "replicates": args.replicates, "seed": args.seed}, EXIT_OK


def _dim_token(token: str) -> int:
    try:
        d = int(token)
    except ValueError:
        raise ValueError(f"--dims: expected an integer dimension, got {token.strip()!r}") from None
    if d < 1:
        raise ValueError(f"--dims: expected a dimension >= 1, got {d}")
    return d


def _scan_row(profile: StdDevProfile, spec: str, args) -> dict:
    report = bounds.compute_bound_report(profile, replicates=args.replicates, seed=args.seed)
    x = montecarlo.estimate(profile, montecarlo.X_QUANTITIES, args.replicates, args.seed)
    norm, rowmax = x["norm"], x["rowmax"]
    equiv_value = report["bounds"]["equiv_expression"]
    return {
        "family": spec,
        "d": profile.d,
        "digest": report["profile_digest"],
        "bounds": report["bounds"],
        "constants": report["constants"],
        "estimates": {**{q: e.to_dict() for q, e in x.items()},
                      "gdot": report["mc"]["gdot"], "ymax": report["mc"]["ymax"]},
        "conjecture_ratio": norm.mean / equiv_value if equiv_value else 1.0,
        "norm_over_rowmax": norm.mean / rowmax.mean if rowmax.mean else 1.0,
    }


def _cmd_verify(args) -> tuple[dict, int]:
    if args.check == "equiv" and args.replicates < 2:  # the parser holds slice's floor
        raise ValueError(f"argument --replicates: expected an integer >= 2, got {args.replicates}")
    for i, spec in enumerate(args.family or ()):  # the reports are keyed by spec
        if spec in args.family[:i]:
            raise ValueError(f"argument --family: family {spec!r} given twice")
    failures, details = _VERIFY_CHECKS[args.check](args)
    report = {"check": args.check, "trials": args.trials, "seed": args.seed, "tol": args.tol,
              "passed": not failures, "failures": failures, **details}
    return report, EXIT_OK if not failures else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
