import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from specbounds import bounds
from specbounds.bounds import (
    BOUND_IDS,
    BOUND_KINDS,
    bvh_bound,
    compute_bound_report,
    cor_sharp_bound,
    equiv_expression,
    latala05_bound,
    optimize_gamma,
    remark_upper,
    thm41_bound,
)
from specbounds.generators import gen_diagonal_unit, gen_wigner, parse_family_spec, random_profile
from specbounds.montecarlo import est_norm
from specbounds.profile import StdDevProfile
from specbounds.slicing import bvhrect_bound

ZERO3 = StdDevProfile(3, np.zeros((3, 3)))
README = Path(__file__).resolve().parent.parent / "README.md"


class TestBvhBound:
    def test_wigner_16(self):
        assert bvh_bound(gen_wigner(16)) == pytest.approx(
            4.0 + math.sqrt(math.log(16)), rel=1e-12
        )

    def test_d1_has_no_log_term(self):
        assert bvh_bound(gen_diagonal_unit(1)) == 1.0

    def test_zero_profile(self):
        assert bvh_bound(ZERO3) == 0.0


class TestEquivExpression:
    def test_identity_d3(self):
        assert equiv_expression(gen_diagonal_unit(3)) == pytest.approx(
            1.0 + math.sqrt(math.log(3)), rel=1e-12
        )

    def test_wigner(self):
        for d in (2, 9, 33):
            assert equiv_expression(gen_wigner(d)) == pytest.approx(
                math.sqrt(d) + math.sqrt(math.log(d)), rel=1e-12
            )

    def test_d1_reduces_to_entry(self):
        p = StdDevProfile(1, np.array([[0.7]]))
        assert equiv_expression(p) == pytest.approx(0.7, rel=1e-15)


class TestRemarkUpper:
    def test_wigner_any_c(self):
        for d, c in ((4, 1.0), (16, 2.5)):
            assert remark_upper(gen_wigner(d), c) == pytest.approx(
                math.sqrt(d) + c * math.sqrt(math.log(d + 1)), rel=1e-12
            )

    def test_zero_profile(self):
        assert remark_upper(ZERO3, 2.0) == 0.0

    def test_identity_d1_c1(self):
        assert remark_upper(gen_diagonal_unit(1), 1.0) == pytest.approx(
            1.0 + math.sqrt(math.log(2)), rel=1e-12
        )

    def test_nonpositive_c(self):
        with pytest.raises(ValueError):
            remark_upper(gen_wigner(2), 0.0)


class TestCorSharpBound:
    def test_wigner_16_c1(self):
        # all rows share fourth moment 16; the log-weighted max sits at i=d
        assert cor_sharp_bound(gen_wigner(16), 1.0) == pytest.approx(
            8.0 + 2.0 * math.sqrt(math.log(17)), rel=1e-12
        )

    def test_zero_profile(self):
        assert cor_sharp_bound(ZERO3, 1.0) == 0.0

    def test_identity_d2_c1(self):
        assert cor_sharp_bound(gen_diagonal_unit(2), 1.0) == pytest.approx(
            2.0 + math.sqrt(math.log(3)), rel=1e-12
        )


class TestLatala05Bound:
    def test_wigner_16(self):
        assert latala05_bound(gen_wigner(16)) == pytest.approx(8.0, rel=1e-12)

    def test_identity_d1(self):
        assert latala05_bound(gen_diagonal_unit(1)) == 2.0

    def test_zero_profile(self):
        assert latala05_bound(ZERO3) == 0.0


class TestThm41Bound:
    def test_posdef_form(self):
        assert thm41_bound(1.0, 0.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_ymax_and_entry_terms(self):
        assert thm41_bound(0.0, 1.0, 1.0, 1.0) == pytest.approx(3.0)

    def test_gamma_one_minimizes_without_ymax(self):
        values = [thm41_bound(1.0, 0.0, 0.5, g) for g in (0.3, 0.7, 1.0, 1.5, 4.0)]
        assert min(values) == values[2]

    def test_negative_ymax_mean_is_clipped(self):
        clipped = thm41_bound(1.0, -0.3, 0.0, 1.0)
        assert clipped == thm41_bound(1.0, 0.0, 0.0, 1.0)

    def test_accepts_plain_floats(self):
        assert thm41_bound(1.0, 0.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            thm41_bound(1.0, 0.0, 0.0, -1.0)


class TestOptimizeGamma:
    def test_zero_ymax_returns_gamma_one(self):
        gamma, bound = optimize_gamma(1.0, 0.0, 0.25)
        assert gamma == 1.0
        assert bound == pytest.approx(2.5)

    def test_grid_floor_when_only_ymax(self):
        gamma, bound = optimize_gamma(0.0, 1.0, 0.0)
        assert gamma == pytest.approx(1e-6)
        assert bound == pytest.approx(math.sqrt(1e-6), rel=1e-9)

    def test_mixed_terms_bounded_by_gamma_one_value(self):
        _, bound = optimize_gamma(1.0, 1.0, 0.0)
        assert bound <= 3.0

    def test_against_dense_grid_oracle(self):
        # independent oracle: brute-force minimum on a much finer log grid
        for gdot, ymax, entry in ((1.0, 1.0, 0.0), (0.2, 3.0, 0.1), (5.0, 0.4, 1.0)):
            dense = np.logspace(-6, 6, 200001)
            oracle = min(thm41_bound(gdot, ymax, entry, g) for g in dense)
            _, bound = optimize_gamma(gdot, ymax, entry)
            assert bound == pytest.approx(oracle, rel=1e-6)

    def test_closed_form_optimum(self):
        # t = sqrt(gamma) turns the bound into t (G + Y) + G / t + 2m
        for gdot, ymax, entry in ((1.0, 1.0, 0.0), (0.2, 3.0, 0.1), (5.0, 0.4, 1.0),
                                  (1e-3, 7.0, 2.0)):
            gamma, bound = optimize_gamma(gdot, ymax, entry)
            assert gamma == pytest.approx(gdot / (gdot + ymax), rel=1e-12)
            expected = 2.0 * math.sqrt(gdot * (gdot + ymax)) + 2.0 * entry
            assert bound == pytest.approx(expected, rel=1e-12)


class TestBvhrectBound:
    def test_all_ones_2x3(self):
        expected = math.sqrt(3) + math.sqrt(2) + math.sqrt(math.log(2))
        assert bvhrect_bound(np.ones((2, 3))) == pytest.approx(expected, rel=1e-12)

    def test_single_row(self):
        for n in (1, 4, 9):
            assert bvhrect_bound(np.ones((1, n))) == pytest.approx(
                math.sqrt(n) + 1.0, rel=1e-12
            )

    def test_zero_matrix(self):
        assert bvhrect_bound(np.zeros((3, 4))) == 0.0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            bvhrect_bound(np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("c", [np.ones(3), np.ones((2, 2, 2))])
    def test_non_matrix_rejected(self, c):
        with pytest.raises(ValueError, match="expected a matrix"):
            bvhrect_bound(c)


class TestBoundProperties:
    def test_equiv_below_bvh(self):
        for seed in range(30):
            p = random_profile(2 + seed % 12, seed=seed, density=(1.0, 0.5)[seed % 2])
            assert equiv_expression(p) <= bvh_bound(p) + 1e-12 * (1 + bvh_bound(p))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for seed in range(12):
            p = random_profile(8, seed=seed)
            perm = rng.permutation(8)
            q = StdDevProfile(8, p.b[np.ix_(perm, perm)])
            for fn in (bvh_bound, equiv_expression, latala05_bound,
                       lambda x: remark_upper(x, 2.0), lambda x: cor_sharp_bound(x, 2.0)):
                assert fn(q) == pytest.approx(fn(p), rel=1e-12)

    def test_one_homogeneous(self):
        for seed in range(12):
            p = random_profile(6, seed=seed)
            for scale in (0.0, 0.3, 7.0):
                q = StdDevProfile(6, scale * p.b)
                for fn in (bvh_bound, equiv_expression, latala05_bound,
                           lambda x: remark_upper(x, 2.0),
                           lambda x: cor_sharp_bound(x, 2.0)):
                    assert fn(q) == pytest.approx(scale * fn(p), abs=1e-12)

    def test_latala_derivation_envelope(self):
        # C * max_i (sum_j b_ij^4)^(1/4) sqrt(ln(i+1)) <= 2C (sum_ij b_ij^4)^(1/4):
        # the sorted fourth moments satisfy m_i <= total/i and
        # sup_i sqrt(ln(i+1))/i^(1/4) < 1
        from specbounds.profile import row_l4_max_term

        c = 2.0
        for seed in range(30):
            p = random_profile(2 + seed % 14, seed=seed)
            total = float(np.sum(p.b ** 4)) ** 0.25
            assert c * row_l4_max_term(p, 1) <= 2.0 * c * total + 1e-12


class TestBoundReport:
    def test_report_keys_and_constants(self):
        report = compute_bound_report(gen_wigner(8), replicates=20, seed=1)
        assert tuple(report["bounds"]) == BOUND_IDS
        assert report["constants"]["c"] == 2.0
        assert report["mc"]["gdot"]["replicates"] == 20

    def test_rejects_bad_values(self, monkeypatch):
        monkeypatch.setattr(bounds, "bvh_bound", lambda p: -1.0)
        with pytest.raises(ValueError, match="bvh"):
            compute_bound_report(gen_wigner(2), replicates=20, seed=1)

    def test_wigner_psd_case_uses_gamma_one(self):
        report = compute_bound_report(gen_wigner(8), replicates=20, seed=1)
        assert report["constants"]["gamma_star"] == 1.0
        assert report["bounds"]["cor_opt"] == pytest.approx(report["bounds"]["thm41"])


class TestBoundKinds:
    def test_every_id_has_a_kind(self):
        # The README's bound table lists every id with its kind, in report
        # order.
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| id | formula | kind |") + 2
        rows = []
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows.append((cells[0].strip("`"), cells[-1]))
        assert rows == list(BOUND_KINDS.items())
        assert {k for k, kind in BOUND_KINDS.items() if kind == "explicit"} == {"thm41", "cor_opt"}
        assert set(BOUND_KINDS.values()) == {"explicit", "order"}

    # The scan families at d = 16 and 64, plus two bandeira profiles.
    SPECS = [f"{family}{',' if ':' in family else ':'}d={d}"
             for family in ("wigner", "band:w=3", "diagonal_decay", "diagonal_unit",
                            "sparse_random:density=0.35,seed=9", "kronecker_flip:seed=9")
             for d in (16, 64)] + ["bandeira:delta=1e-3", "bandeira:delta=1"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_explicit_bounds_hold_within_four_stderr(self, spec):
        # bound >= E||X|| - 4 stderr, the stderr combining the norm's with
        # the gdot and ymax terms' at the bound's own gamma.
        p = parse_family_spec(spec)
        report = compute_bound_report(p, replicates=200, seed=17)
        norm = est_norm(p, 200, 17)
        gdot, ymax = report["mc"]["gdot"]["stderr"], report["mc"]["ymax"]["stderr"]
        gammas = {"thm41": report["constants"]["gamma"],
                  "cor_opt": report["constants"]["gamma_star"]}
        for bound_id in (k for k, kind in BOUND_KINDS.items() if kind == "explicit"):
            gamma = gammas[bound_id]
            stderr = math.hypot(norm.stderr, math.sqrt(2.0 + gamma + 1.0 / gamma) * gdot,
                                math.sqrt(gamma) * ymax)
            assert report["bounds"][bound_id] >= norm.mean - 4.0 * stderr, bound_id
