import math

import numpy as np
import pytest

from specbounds.bounds import (
    BOUND_IDS,
    BoundReport,
    bvh_bound,
    bvhrect_bound,
    compute_bound_report,
    cor_sharp_bound,
    equiv_expression,
    latala05_bound,
    optimize_gamma,
    remark_upper,
    thm41_bound,
)
from specbounds.generators import gen_diagonal_unit, gen_wigner, random_profile
from specbounds.montecarlo import McEstimate
from specbounds.profile import StdDevProfile

ZERO3 = StdDevProfile(3, np.zeros((3, 3)))


def _estimate(mean, quantity="gdot"):
    return McEstimate(mean=mean, stderr=0.0, replicates=2, seed=0, quantity=quantity)


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
        assert thm41_bound(_estimate(1.0), _estimate(0.0), 0.0, 1.0) == pytest.approx(2.0)

    def test_ymax_and_entry_terms(self):
        assert thm41_bound(_estimate(0.0), _estimate(1.0), 1.0, 1.0) == pytest.approx(3.0)

    def test_gamma_one_minimizes_without_ymax(self):
        values = [thm41_bound(_estimate(1.0), _estimate(0.0), 0.5, g)
                  for g in (0.3, 0.7, 1.0, 1.5, 4.0)]
        assert min(values) == values[2]

    def test_negative_ymax_mean_is_clipped(self):
        clipped = thm41_bound(_estimate(1.0), _estimate(-0.3), 0.0, 1.0)
        assert clipped == thm41_bound(_estimate(1.0), _estimate(0.0), 0.0, 1.0)

    def test_accepts_plain_floats(self):
        assert thm41_bound(1.0, 0.0, 0.0, 1.0) == pytest.approx(2.0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            thm41_bound(_estimate(1.0), _estimate(0.0), 0.0, -1.0)


class TestOptimizeGamma:
    def test_zero_ymax_returns_gamma_one(self):
        gamma, bound = optimize_gamma(_estimate(1.0), _estimate(0.0), 0.25)
        assert gamma == 1.0
        assert bound == pytest.approx(2.5)

    def test_grid_floor_when_only_ymax(self):
        gamma, bound = optimize_gamma(_estimate(0.0), _estimate(1.0), 0.0)
        assert gamma == pytest.approx(1e-6)
        assert bound == pytest.approx(math.sqrt(1e-6), rel=1e-9)

    def test_mixed_terms_bounded_by_gamma_one_value(self):
        _, bound = optimize_gamma(_estimate(1.0), _estimate(1.0), 0.0)
        assert bound <= 3.0

    def test_against_dense_grid_oracle(self):
        # independent oracle: brute-force minimum on a much finer log grid
        for gdot, ymax, entry in ((1.0, 1.0, 0.0), (0.2, 3.0, 0.1), (5.0, 0.4, 1.0)):
            dense = np.logspace(-6, 6, 200001)
            oracle = min(
                thm41_bound(_estimate(gdot), _estimate(ymax), entry, g) for g in dense
            )
            _, bound = optimize_gamma(_estimate(gdot), _estimate(ymax), entry)
            assert bound == pytest.approx(oracle, rel=1e-6)

    def test_closed_form_optimum(self):
        # t = sqrt(gamma) turns the bound into t (G + Y) + G / t + 2m
        for gdot, ymax, entry in ((1.0, 1.0, 0.0), (0.2, 3.0, 0.1), (5.0, 0.4, 1.0),
                                  (1e-3, 7.0, 2.0)):
            gamma, bound = optimize_gamma(_estimate(gdot), _estimate(ymax), entry)
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
        assert tuple(report.to_dict()["bounds"]) == BOUND_IDS
        assert report.constants["c"] == 2.0
        assert report.mc["gdot"]["replicates"] == 20

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BoundReport(d=2, digest="x", values={"bvh": -1.0})

    def test_wigner_psd_case_uses_gamma_one(self):
        report = compute_bound_report(gen_wigner(8), replicates=20, seed=1)
        assert report.constants["gamma_star"] == 1.0
        assert report.values["cor_opt"] == pytest.approx(report.values["thm41"])
