"""The three benchmark workloads and the checks on their outputs.

A workload is built from the benchmark seed into a fixed batch of calls.
Every call goes through the specbounds module attribute at call time, so
the tracer's wrappers are seen when they are installed.  Each call knows
how many Monte Carlo replicates and trials its arguments ask for, and how
to check its own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from specbounds import cli, generators, geometry, montecarlo
from specbounds.profile import StdDevProfile

# Pinned by a Monte Carlo run (R = 600, seed 424242) for the d = 200
# homogeneous profile; the acceptance suite pins the same value.
WIGNER_200_ORACLE = 27.977329
WIGNER_200_REL_TOL = 0.02

# Monte Carlo estimates must sit within this many standard errors of an
# exact oracle.
ORACLE_STDERRS = 5.0

# Per replicate, ||X|| >= max row norm >= max |X_ij| holds exactly; the
# slack covers rounding in the eigensolver.
ORDER_REL_SLACK = 1e-8

MC_QUANTITIES = ("norm", "rowmax", "entrymax", "gdot", "ymax")

# Scan rows run compute_bound_report (gdot and ymax) plus est_norm,
# est_rowmax and est_entrymax, each at the requested replicate count.
SCAN_DRAWS_PER_REPLICATE = 5


@dataclass
class Call:
    """One closed-loop call: run() is timed, check() is not.

    check() returns the canonical text of every non-timing output (the
    determinism digest hashes it) and a list of problems.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]
    replicates: int
    trials: int


# -- strict report parsing ------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def parse_report(text: str) -> dict:
    """Parse a CLI report; NaN and Infinity are errors, not numbers."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def cli_call(argv: list[str], check_report, replicates: int, trials: int) -> Call:
    def check(outcome) -> tuple[str, list[str]]:
        status, out, err = outcome
        if status != 0:
            return f"exit {status}", [f"exit status {status}: {err.strip()[:200]}"]
        try:
            report = parse_report(out)
        except ValueError as exc:
            return "unparsable", [f"report: {exc}"]
        report.pop("wall_time_s", None)
        problems = check_report(report)
        return json.dumps(report, sort_keys=True), problems

    return Call(" ".join(argv[:5]), lambda: run_cli(argv), check, replicates, trials)


# -- oracles -------------------------------------------------------------


def diagonal_norm_oracle(diag, intervals: int = 2000) -> float:
    """E||X|| for a diagonal profile with standard deviations diag.

    ||X|| = max_i b_i |g_i|, so E||X|| = int_0^inf (1 - prod_i erf(t / (b_i
    sqrt 2))) dt.  Composite Simpson on [0, 12 max b_i], beyond which the
    integrand is below 1e-30 per coordinate; 2000 intervals agree with
    8000 to 1e-13 at d <= 256.
    """
    scales = [float(b) * math.sqrt(2.0) for b in diag if b > 0.0]
    if not scales:
        return 0.0
    top = 12.0 * max(scales) / math.sqrt(2.0)
    h = top / intervals

    def tail(t: float) -> float:
        prod = 1.0
        for s in scales:
            prod *= math.erf(t / s)
        return 1.0 - prod

    total = tail(0.0) + tail(top)
    for k in range(1, intervals):
        total += (4.0 if k % 2 else 2.0) * tail(k * h)
    return total * h / 3.0


def _near(estimate: dict, target: float, label: str) -> list[str]:
    deviation = abs(estimate["mean"] - target)
    if deviation > ORACLE_STDERRS * estimate["stderr"]:
        return [f"{label}: mean {estimate['mean']!r} is {deviation!r} from oracle "
                f"{target!r} (stderr {estimate['stderr']!r})"]
    return []


def _estimate_problems(est: dict, replicates: int, label: str) -> list[str]:
    problems = []
    if est.get("replicates") != replicates:
        problems.append(f"{label}: replicates {est.get('replicates')} != {replicates}")
    if not (math.isfinite(est["mean"]) and math.isfinite(est["stderr"]) and est["stderr"] >= 0):
        problems.append(f"{label}: bad estimate {est}")
    return problems


def _ordering_problems(est: dict, label: str) -> list[str]:
    # Same (seed, r) streams for the three quantities, so the per-replicate
    # order carries over to the means.
    norm, rowmax, entrymax = (est[q]["mean"] for q in ("norm", "rowmax", "entrymax"))
    if norm < rowmax * (1 - ORDER_REL_SLACK) or rowmax < entrymax * (1 - ORDER_REL_SLACK):
        return [f"{label}: norm {norm!r} >= rowmax {rowmax!r} >= entrymax {entrymax!r} fails"]
    return []


def _diagonal_problems(est: dict, oracle: float, label: str) -> list[str]:
    problems = []
    for q in ("norm", "rowmax", "entrymax", "gdot"):
        problems += _near(est[q], oracle, f"{label} {q}")
    # For diagonal X, ||X|| = max row norm = max |X_ii| on every replicate,
    # and the three estimators read the same streams.
    norm, rowmax, entrymax = (est[q]["mean"] for q in ("norm", "rowmax", "entrymax"))
    if rowmax != entrymax or abs(norm - entrymax) > ORDER_REL_SLACK * entrymax:
        problems.append(f"{label}: norm {norm!r}, rowmax {rowmax!r} and entrymax "
                        f"{entrymax!r} differ on a diagonal profile")
    # A diagonal variance matrix is PSD: no negative part, so ymax is 0.
    ymax = est.get("ymax")
    if ymax is not None and (ymax["mean"] != 0.0 or ymax["stderr"] != 0.0):
        problems.append(f"{label}: ymax {ymax} is not exactly 0 on a PSD profile")
    return problems


def _verify_problems(report: dict, check: str, trials: int) -> list[str]:
    problems = []
    if report.get("check") != check or report.get("trials") != trials or trials < 1:
        problems.append(f"verify {check}: echoed check/trials do not match the call")
    if report.get("passed") is not True or report.get("failures"):
        problems.append(f"verify {check}: not passed ({report.get('failures')!r:.200})")
    return problems


def _is_diagonal(p: StdDevProfile) -> bool:
    return not np.any(p.b - np.diag(np.diag(p.b)))


# -- workloads -----------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"specbounds-bench/{workload}/{seed}")


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# mc_small_d: criterion-3 triples and `mc --quantity all` on small profiles.
DIST_D = 6
DIST_TRIPLES = 6
DIST_REPLICATES = 1000
SMALL_MC_REPLICATES = 100


def build_mc_small_d(seed: int) -> list[Call]:
    rng = _rng("mc_small_d", seed)
    calls = []
    for t in range(DIST_TRIPLES):
        p = generators.random_profile(DIST_D, seed=_seed(rng), density=(1.0, 0.6)[t % 2])
        vw = np.random.default_rng(_seed(rng))
        v, w = vw.standard_normal(DIST_D), vw.standard_normal(DIST_D)
        mc_seed = _seed(rng)
        closed = geometry.natural_dist_sq(p, v, w)
        calls.append(_distance_call(f"est_distance_sq triple {t}", p, v, w, mc_seed, closed))
    specs = [
        f"sparse_random:d=8,density=0.5,seed={rng.randrange(1000)}",
        "diagonal_decay:d=16",
        f"kronecker_flip:d=8,seed={rng.randrange(1000)}",
    ]
    for spec in specs:
        calls.append(_mc_call(spec, "all", SMALL_MC_REPLICATES, _seed(rng), workers=1))
    return calls


def _distance_call(label: str, p, v, w, mc_seed: int, closed: float) -> Call:
    def run():
        return montecarlo.est_distance_sq(p, v, w, DIST_REPLICATES, mc_seed)

    def check(est) -> tuple[str, list[str]]:
        est = est.to_dict()
        problems = _estimate_problems(est, DIST_REPLICATES, "distsq")
        problems += _near(est, closed, "distsq vs natural_dist_sq")
        return json.dumps(est, sort_keys=True), problems

    return Call(label, run, check, DIST_REPLICATES, 1)


def _mc_call(spec: str, quantity: str, replicates: int, mc_seed: int, workers: int,
             extra_check=None) -> Call:
    profile = generators.parse_family_spec(spec)
    oracle = diagonal_norm_oracle(np.diag(profile.b)) if _is_diagonal(profile) else None
    quantities = MC_QUANTITIES if quantity == "all" else (quantity,)

    def check_report(report: dict) -> list[str]:
        est = report["estimates"]
        if sorted(est) != sorted(quantities):
            return [f"mc {spec}: quantities {sorted(est)}"]
        problems = []
        for q in quantities:
            problems += _estimate_problems(est[q], replicates, f"mc {spec} {q}")
        if quantity == "all":
            problems += _ordering_problems(est, f"mc {spec}")
            if oracle is not None:
                problems += _diagonal_problems(est, oracle, f"mc {spec}")
        if extra_check is not None:
            problems += extra_check(est)
        return problems

    argv = ["mc", "--family", spec, "--quantity", quantity, "--replicates", str(replicates),
            "--seed", str(mc_seed), "--workers", str(workers)]
    return cli_call(argv, check_report, replicates * len(quantities), len(quantities))


# mc_large_d: the scan grid, the d = 200 Wigner norm, and the slice check.
# Calls are kept short, one scan cell or slice family each, so that each
# call's fastest time finds the machine's quiet moments (see batch_wall in
# run.py).  The diagonal cells carry the 5-stderr oracle checks and keep 30
# replicates; the other scan cells have exact checks only.
SCAN_FAMILIES = ("wigner", "band:w=3", "diagonal_decay")
SCAN_DIMS = (128, 256)
SCAN_REPLICATES = {"wigner": 10, "band:w=3": 10, "diagonal_decay": 30}
WIGNER_REPLICATES = 15
SLICE_REPLICATES = 5
SLICE_FAMILIES = cli.DEFAULT_SLICE_FAMILIES


def build_mc_large_d(seed: int) -> list[Call]:
    rng = _rng("mc_large_d", seed)
    workers = nproc()
    calls = [_scan_call(family, d, _seed(rng), workers)
             for family in SCAN_FAMILIES for d in SCAN_DIMS]

    def near_oracle(est: dict) -> list[str]:
        mean = est["norm"]["mean"]
        if abs(mean - WIGNER_200_ORACLE) > WIGNER_200_REL_TOL * WIGNER_200_ORACLE:
            return [f"wigner:d=200 norm {mean!r} not within 2% of {WIGNER_200_ORACLE}"]
        return []

    calls.append(_mc_call("wigner:d=200", "norm", WIGNER_REPLICATES, _seed(rng),
                          workers, extra_check=near_oracle))
    calls += [_slice_call(spec, _seed(rng)) for spec in SLICE_FAMILIES]
    return calls


def _scan_call(family: str, d: int, scan_seed: int, workers: int) -> Call:
    spec = f"{family},d={d}" if ":" in family else f"{family}:d={d}"
    replicates = SCAN_REPLICATES[family]
    oracle = (diagonal_norm_oracle(np.diag(generators.gen_diagonal_decay(d).b))
              if family == "diagonal_decay" else None)

    def check_report(report: dict) -> list[str]:
        rows = report["rows"]
        if [(r["family"], r["d"]) for r in rows] != [(spec, d)]:
            return [f"scan: rows {[(r['family'], r['d']) for r in rows]}"]
        row = rows[0]
        label = f"scan {spec}"
        est = row["estimates"]
        problems = []
        for q in MC_QUANTITIES:
            problems += _estimate_problems(est[q], replicates, f"{label} {q}")
        problems += _ordering_problems(est, label)
        bad = {k: v for k, v in row["bounds"].items() if not v >= 0}
        if bad:
            problems.append(f"{label}: bounds {bad}")
        if not (row["conjecture_ratio"] > 0 and row["norm_over_rowmax"] > 0):
            problems.append(f"{label}: ratios {row['conjecture_ratio']}, "
                            f"{row['norm_over_rowmax']}")
        if oracle is not None:
            problems += _diagonal_problems(est, oracle, label)
        return problems

    argv = ["scan", "--families", family, "--dims", str(d),
            "--replicates", str(replicates), "--seed", str(scan_seed),
            "--workers", str(workers)]
    return cli_call(argv, check_report, replicates * SCAN_DRAWS_PER_REPLICATE, 1)


def _slice_call(spec: str, slice_seed: int) -> Call:
    def check_report(report: dict) -> list[str]:
        problems = _verify_problems(report, "slice", report.get("trials", 0))
        reports = report.get("reports", {})
        if list(reports) != [spec]:
            problems.append(f"verify slice: families {sorted(reports)}")
        for family, outcome in reports.items():
            if outcome["holds"] is not True or outcome["replicates"] != SLICE_REPLICATES:
                problems.append(f"verify slice {family}: {outcome!r:.200}")
        return problems

    argv = ["verify", "--check", "slice", "--family", spec,
            "--replicates", str(SLICE_REPLICATES), "--seed", str(slice_seed)]
    return cli_call(argv, check_report, SLICE_REPLICATES, 1)


# verify_corpus: the verification corpora and a PSD violation scan.
BASIC_TRIALS = 150
COMPARISON_TRIALS = 80
SPLIT_TRIALS = 60
SCAN_D = 32
VIOLATION_TRIALS = 150


def build_verify_corpus(seed: int) -> list[Call]:
    rng = _rng("verify_corpus", seed)
    calls = [
        _verify_call(check, trials, _seed(rng))
        for check, trials in (("basic", BASIC_TRIALS), ("comparison", COMPARISON_TRIALS),
                              ("split", SPLIT_TRIALS))
    ]
    variance = generators.random_psd_nonneg(SCAN_D, seed=_seed(rng))
    calls.append(_violation_call(StdDevProfile(SCAN_D, np.sqrt(variance)), _seed(rng)))
    return calls


def _verify_call(check: str, trials: int, verify_seed: int) -> Call:
    argv = ["verify", "--check", check, "--trials", str(trials), "--seed", str(verify_seed)]
    return cli_call(argv, lambda report: _verify_problems(report, check, trials), 0, trials)


def _violation_call(p: StdDevProfile, scan_seed: int) -> Call:
    def run():
        return geometry.violation_scan(p, VIOLATION_TRIALS, scan_seed)

    def check(fraction) -> tuple[str, list[str]]:
        # For a PSD variance matrix d(v, w) <= 2 ||x(v) - x(w)|| always holds.
        problems = [] if fraction == 0.0 else [f"violation_scan: fraction {fraction!r} != 0"]
        return repr(fraction), problems

    # Each trial is one Monte Carlo draw of the violation indicator.
    return Call(f"violation_scan d={p.d}", run, check, VIOLATION_TRIALS, VIOLATION_TRIALS)


WORKLOADS = {
    "mc_small_d": build_mc_small_d,
    "mc_large_d": build_mc_large_d,
    "verify_corpus": build_verify_corpus,
}
