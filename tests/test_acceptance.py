"""Acceptance suite.

One test per numbered criterion, each enforced at its stated tolerance and
printing a single pass/fail line (run with -s to see them inline).
"""

import json
import math
import time

import numpy as np
import pytest

from specbounds import checks
from specbounds.checks import EQUIV_QUANTITIES, equivalence_report
from specbounds.cli import main
from specbounds.generators import (
    gen_bandeira,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_wigner,
    make_family,
    random_psd_nonneg,
    random_symmetric,
)
from specbounds.geometry import bandeira_ratio, natural_dist_sq, violation_scan
from specbounds.linalg import psd_split, spectral_norm, split_invariant_violations
from specbounds.montecarlo import (
    est_distance_sq,
    est_gdot,
    est_norm,
    est_rowmax,
    estimate,
)
from specbounds.profile import StdDevProfile, max_entry
from specbounds.slicing import slice_bands, verify_slice_inequality
from specbounds.generators import random_profile

# Pinned by a pre-build Monte Carlo oracle run (R=600, seed 424242) for the
# d=200 homogeneous profile: mean 27.977329, stderr 0.019.
WIGNER_200_ORACLE = 27.977329

SCAN_FAMILIES = (
    ("wigner", {}),
    ("diagonal_unit", {}),
    ("diagonal_decay", {}),
    ("band", {"w": 3}),
    ("sparse_random", {"density": 0.35, "seed": 9}),
    ("kronecker_flip", {"seed": 9}),
)
SCAN_DIMS = (16, 64, 256)
SCAN_REPLICATES = 200
SCAN_SEED = 1789


def _criterion(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def scan_corpus():
    rows = []
    for name, params in SCAN_FAMILIES:
        for d in SCAN_DIMS:
            profile = make_family(name, {**params, "d": d})
            # one pass over the X blocks for the norm and the report
            est = estimate(profile, ("norm", "rowmax", "entrymax", "gdot"),
                           SCAN_REPLICATES, SCAN_SEED)
            rows.append(
                {
                    "family": name,
                    "d": d,
                    "norm": est["norm"],
                    "equiv": equivalence_report(profile, est),
                }
            )
    return rows


def test_criterion_1_wigner_edge():
    target = 2.0 * math.sqrt(200.0)
    started = time.perf_counter()
    est = est_norm(gen_wigner(200), 200, 2024)
    elapsed = time.perf_counter() - started
    relative = abs(est.mean - target) / target
    near_oracle = abs(est.mean - WIGNER_200_ORACLE) / WIGNER_200_ORACLE
    ok = relative <= 0.08 and near_oracle <= 0.02 and elapsed < 60.0
    _criterion(
        1,
        f"Wigner edge: mean {est.mean:.3f} vs 2*sqrt(200) = {target:.3f} "
        f"({100 * relative:.2f}% off, oracle off {100 * near_oracle:.2f}%, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_basic_gap_suite():
    trials = 100_000
    started = time.perf_counter()
    failures, details = checks.basic(trials, seed=1, tol=1e-9)
    worst = details["min_scaled_gap"]
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    _criterion(
        2,
        f"deformation-inequality gap >= -1e-9*scale on {trials} trials "
        f"(worst scaled gap {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_natural_metric_oracle():
    worst = 0.0
    ok = True
    for t in range(50):
        rng = np.random.default_rng([9000, t])
        p = random_profile(6, seed=9000 + t, density=(1.0, 0.6)[t % 2])
        v = rng.standard_normal(6)
        w = rng.standard_normal(6)
        oracle = est_distance_sq(p, v, w, 20_000, seed=t)
        deviation = abs(natural_dist_sq(p, v, w) - oracle.mean)
        worst = max(worst, deviation / oracle.stderr)
        if deviation > 5.0 * oracle.stderr:
            ok = False
    _criterion(
        3,
        f"closed-form metric matches MC oracle within 5 stderr on 50 triples "
        f"(worst {worst:.2f} stderr)",
        ok,
    )


def test_criterion_4_comparison_domination():
    trials = 100_000
    failures, details = checks.comparison(trials, seed=1, tol=1e-9)
    worst = details["min_scaled_slack"]
    ok = not failures
    _criterion(
        4,
        f"comparison-process distance dominates the metric on the criterion-2 "
        f"corpus (worst scaled slack {worst:.2e})",
        ok,
    )


def test_criterion_5_bandeira_asymptotics():
    limit_product = bandeira_ratio(1.0, 2.0, 1e-6) * math.sqrt(1e-6)
    finite = bandeira_ratio(1.0, 2.0, 0.01)
    ok = abs(limit_product - 0.8) / 0.8 <= 0.05 and abs(finite - 8.08) / 8.08 <= 0.02
    _criterion(
        5,
        f"singular-pair ratio: sqrt(delta)-scaled limit {limit_product:.4f} "
        f"(target 0.8), finite-delta value {finite:.4f} (target 8.08)",
        ok,
    )


def test_criterion_6_psd_case():
    ok = True
    worst_fraction = 0.0
    worst_slack = math.inf
    for k in range(20):
        variance = random_psd_nonneg(32, seed=300 + k)
        p = StdDevProfile(32, np.sqrt(variance))
        fraction = violation_scan(p, 10_000, seed=k)
        worst_fraction = max(worst_fraction, fraction)
        if fraction != 0.0:
            ok = False
        norm = est_norm(p, 200, seed=500 + k)
        gdot = est_gdot(p, 200, seed=500 + k)
        bound = 2.0 * gdot.mean + 2.0 * max_entry(p)
        combined = math.hypot(norm.stderr, 2.0 * gdot.stderr)
        worst_slack = min(worst_slack, bound + 4.0 * combined - norm.mean)
        if norm.mean > bound + 4.0 * combined:
            ok = False
    _criterion(
        6,
        f"PSD case: zero violations on 20 profiles (max fraction "
        f"{worst_fraction}), norm below PSD bound (worst slack {worst_slack:.3f})",
        ok,
    )


def test_criterion_7_slicing():
    wigner = verify_slice_inequality(gen_wigner(64), 50, seed=7)
    diag_decay = verify_slice_inequality(gen_diagonal_decay(256), 50, seed=7)
    diag_unit = verify_slice_inequality(gen_diagonal_unit(64), 50, seed=7)
    bands_ok = (
        slice_bands(4) == ((1, 4),)
        and slice_bands(16) == ((1, 4), (5, 16))
        and slice_bands(256) == ((1, 4), (5, 16), (17, 256))
    )
    diagonal_exact = (
        diag_decay["ratio_slice_min"] == 1.0
        and diag_decay["ratio_slice_max"] == 1.0
        and diag_unit["ratio_slice_min"] == 1.0
        and diag_unit["ratio_slice_max"] == 1.0
    )
    ok = wigner["holds"] and diag_decay["holds"] and bands_ok and diagonal_exact
    _criterion(
        7,
        f"slicing: norm inequalities hold on every replicate (wigner max ratio "
        f"{wigner['max_ratio']:.4f}); diagonal slice ratio exactly 1; band "
        f"tables match for d in (4, 16, 256)",
        ok,
    )


def test_criterion_8_equivalence_envelope(scan_corpus):
    ok = True
    lo, hi = math.inf, 0.0
    for row in scan_corpus:
        for ratio_row in row["equiv"]["ratios"].values():
            for ratio in ratio_row.values():
                lo, hi = min(lo, ratio), max(hi, ratio)
                if not 0.1 <= ratio <= 10.0:
                    ok = False
    profile = gen_bandeira(1.0)
    bandeira = equivalence_report(
        profile, estimate(profile, EQUIV_QUANTITIES, SCAN_REPLICATES, SCAN_SEED))
    for ratio_row in bandeira["ratios"].values():
        for ratio in ratio_row.values():
            lo, hi = min(lo, ratio), max(hi, ratio)
            if not 0.1 <= ratio <= 10.0:
                ok = False
    _criterion(
        8,
        f"equivalence ratios within [1/10, 10] across families and dims "
        f"(observed range [{lo:.3f}, {hi:.3f}])",
        ok,
    )


def test_criterion_9_spectral_split():
    ok = True
    for t in range(1000):
        rng = np.random.default_rng([600, t])
        d = int(rng.integers(2, 33))
        a = random_symmetric(d, seed=600_000 + t, scale=float(rng.choice([0.1, 1.0, 10.0])))
        split = psd_split(a)
        if split_invariant_violations(a, split):
            ok = False
            break
        top = abs(spectral_norm(a) - np.max(np.abs(split.eigenvalues)))
        if top > 1e-8 * np.max(np.abs(split.eigenvalues)):
            ok = False
            break
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    half = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    worst_residual = 0.0
    for k in range(10):
        bprime = random_psd_nonneg(5, seed=700 + k)
        split = psd_split(np.kron(bprime, flip))
        residual = np.linalg.norm(split.bminus - np.kron(bprime, half), "fro")
        worst_residual = max(worst_residual, residual)
        if residual > 1e-8:
            ok = False
        variances = np.diag(split.bminus)
        caps = 0.5 * np.max(np.kron(bprime, flip), axis=1)
        if not np.all(variances <= caps + 1e-10):
            ok = False
    _criterion(
        9,
        f"spectral-split invariants on 1000 matrices; Kronecker negative-part "
        f"identity to 1e-8 (worst residual {worst_residual:.2e}) with "
        f"Var(Y_i) <= max_j b_ij^2 / 2",
        ok,
    )


def test_criterion_10_conjecture_lower_bound(scan_corpus):
    ok = True
    worst_lower = math.inf
    worst_upper = math.inf
    for row in scan_corpus:
        norm = row["norm"]
        rowmax = row["equiv"]["estimates"]["rowmax"]
        combined = math.hypot(norm.stderr, rowmax["stderr"])
        lower_slack = norm.mean + 4.0 * combined - rowmax["mean"]
        worst_lower = min(worst_lower, lower_slack)
        if rowmax["mean"] > norm.mean + 4.0 * combined:
            ok = False
        envelope = 10.0 * math.sqrt(math.log(math.log(row["d"]))) * rowmax["mean"]
        worst_upper = min(worst_upper, envelope - norm.mean)
        if norm.mean > envelope:
            ok = False
    _criterion(
        10,
        f"scanned corpus: rowmax <= norm + 4 stderr (worst slack "
        f"{worst_lower:.3f}) and norm <= 10 sqrt(ln ln d) rowmax (worst slack "
        f"{worst_upper:.3f})",
        ok,
    )


def test_criterion_11_cli_determinism(capsys):
    argv = ["mc", "--family", "sparse_random:d=32,density=0.5,seed=3",
            "--quantity", "all", "--replicates", "100", "--seed", "23"]
    outputs = []
    for extra in ([], [], ["--workers", "4"], ["--workers", "8"]):
        status = main(argv + extra)
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        outputs.append(json.dumps(report["estimates"], sort_keys=True))
    ok = len(set(outputs)) == 1
    _criterion(
        11,
        "mc command output is byte-identical across reruns and worker counts",
        ok,
    )
