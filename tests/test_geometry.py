import math

import numpy as np
import pytest
from conftest import CHUNK, reference_pair

from specbounds import geometry
from specbounds.cli import basic_corpus
from specbounds.generators import (
    gen_bandeira,
    gen_diagonal_unit,
    gen_wigner,
    random_profile,
    random_psd_nonneg,
)
from specbounds.geometry import (
    BALL_CSV_HEADER,
    ball_boundary_2d,
    ball_boundary_csv,
    bandeira_ratio,
    basic_gap,
    comparison_dist_sq,
    deform,
    natural_dist_sq,
    quad_form_sq_diff,
    simplex_sup,
    violation_scan,
)
from specbounds.linalg import psd_split
from specbounds.montecarlo import est_distance_sq
from specbounds.profile import StdDevProfile

V12 = np.array([1.0, 2.0])
V21 = np.array([2.0, 1.0])


def _corpus(trials, seed, dmax=16):
    gammas = (0.1, 1.0, 10.0)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        d = int(rng.integers(2, dmax + 1))
        p = random_profile(d, seed=seed * 99991 + t, density=(1.0, 0.5)[t % 2])
        yield p, rng.standard_normal(d), rng.standard_normal(d), gammas[t % 3]


class TestDeform:
    def test_wigner_is_identity_on_unit_vectors(self):
        p = gen_wigner(5)
        v = np.random.default_rng(0).standard_normal(5)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(deform(p, v), v, rtol=1e-12)

    def test_identity_profile_squares_coordinates(self):
        point = deform(gen_diagonal_unit(2), np.array([0.6, 0.8]))
        np.testing.assert_allclose(point, [0.36, 0.64], rtol=1e-12)
        assert np.sum(np.abs(point)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector(self):
        np.testing.assert_array_equal(deform(gen_wigner(3), np.zeros(3)), np.zeros(3))

    def test_norm_identity(self):
        # ||x(v)||^2 = sum_ij v_i^2 b_ij^2 v_j^2 to 1e-12 relative
        for seed in range(15):
            p = random_profile(8, seed=seed)
            v = np.random.default_rng(seed).standard_normal(8)
            x = deform(p, v)
            lhs = float(x @ x)
            vsq = v * v
            rhs = float(vsq @ (p.b ** 2) @ vsq)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_odd(self):
        p = random_profile(6, seed=3)
        v = np.random.default_rng(4).standard_normal(6)
        np.testing.assert_allclose(deform(p, -v), -deform(p, v), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            deform(gen_wigner(3), np.ones(4))


class TestSimplexSup:
    def test_identity_gives_max_abs(self):
        g = np.array([0.3, -2.0, 1.1])
        assert simplex_sup(gen_diagonal_unit(3), g) == pytest.approx(2.0, rel=1e-12)

    def test_zero_vector(self):
        assert simplex_sup(gen_wigner(4), np.zeros(4)) == 0.0

    def test_wigner_gives_euclidean_norm(self):
        g = np.array([1.0, -2.0, 2.0])
        assert simplex_sup(gen_wigner(3), g) == pytest.approx(3.0, rel=1e-12)


class TestNaturalDistSq:
    def test_equal_vectors(self):
        p = random_profile(4, seed=0)
        v = np.arange(4.0)
        assert natural_dist_sq(p, v, v) == 0.0

    def test_bandeira_closed_form(self):
        # delta (a^2 - b^2)^2 with a=1, b=2, delta=0.01
        assert natural_dist_sq(gen_bandeira(0.01), V12, V21) == pytest.approx(
            0.09, rel=1e-12
        )

    def test_one_dimensional(self):
        p = StdDevProfile(1, np.array([[1.0]]))
        assert natural_dist_sq(p, np.array([1.0]), np.array([0.0])) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_symmetric_in_arguments(self):
        for seed in range(10):
            p = random_profile(5, seed=seed)
            rng = np.random.default_rng(seed)
            v, w = rng.standard_normal(5), rng.standard_normal(5)
            assert natural_dist_sq(p, v, w) == pytest.approx(
                natural_dist_sq(p, w, v), rel=1e-13
            )

    def test_matches_monte_carlo_oracle(self):
        # small version of the acceptance-3 check
        for seed in range(5):
            rng = np.random.default_rng([seed, 77])
            p = random_profile(5, seed=seed + 400)
            v, w = rng.standard_normal(5), rng.standard_normal(5)
            oracle = est_distance_sq(p, v, w, 5000, seed)
            assert abs(natural_dist_sq(p, v, w) - oracle.mean) <= 5.0 * oracle.stderr


class TestQuadFormSqDiff:
    def test_equal_vectors(self):
        p = random_profile(3, seed=1)
        v = np.ones(3)
        assert quad_form_sq_diff(p, v, v) == 0.0

    def test_bandeira_hand_expansion(self):
        assert quad_form_sq_diff(gen_bandeira(0.01), V12, V21) == pytest.approx(
            9 * 0.01 - 18.0, rel=1e-12
        )

    def test_nonnegative_for_psd_variance(self):
        b = np.sqrt(random_psd_nonneg(6, 3))
        p = StdDevProfile(6, b)
        rng = np.random.default_rng(8)
        for _ in range(50):
            v, w = rng.standard_normal(6), rng.standard_normal(6)
            assert quad_form_sq_diff(p, v, w) >= -1e-10


class TestBasicGap:
    def test_equal_vectors_gap_zero(self):
        p = random_profile(4, seed=2)
        v = np.arange(4.0) + 1
        for gamma in (0.1, 1.0, 10.0):
            assert basic_gap(p, v, v, gamma) == 0.0

    def test_bandeira_hand_value(self):
        # 4 ||x(v)-x(w)||^2 - gamma*q - d^2 with all three closed forms
        xdist_sq = (math.sqrt(4.01) - 2.0 * math.sqrt(1.04)) ** 2
        expected = 4.0 * xdist_sq + 17.91 - 0.09
        assert basic_gap(gen_bandeira(0.01), V12, V21, 1.0) == pytest.approx(
            expected, rel=1e-10
        )

    def test_nonnegative_on_random_corpus(self):
        for p, v, w, gamma in _corpus(3000, seed=5):
            lhs = natural_dist_sq(p, v, w)
            gap = basic_gap(p, v, w, gamma)
            assert gap >= -1e-9 * (1.0 + abs(gap + lhs) + lhs)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            basic_gap(gen_wigner(2), V12, V21, 0.0)


class TestComparisonDistSq:
    def test_equal_vectors(self):
        p = random_profile(4, seed=6)
        split = psd_split(p.variance_matrix)
        v = np.ones(4)
        assert comparison_dist_sq(p, split, v, v, 1.0) == 0.0

    def test_psd_case_is_four_xdist(self):
        b = np.sqrt(random_psd_nonneg(5, 9))
        p = StdDevProfile(5, b)
        split = psd_split(p.variance_matrix)
        rng = np.random.default_rng(10)
        v, w = rng.standard_normal(5), rng.standard_normal(5)
        dx = deform(p, v) - deform(p, w)
        assert comparison_dist_sq(p, split, v, w, 1.0) == pytest.approx(
            4.0 * float(dx @ dx), rel=1e-10
        )

    def test_dominates_natural_metric(self):
        for p, v, w, gamma in _corpus(1500, seed=8):
            split = psd_split(p.variance_matrix)
            nat = natural_dist_sq(p, v, w)
            comp = comparison_dist_sq(p, split, v, w, gamma)
            assert comp >= nat - 1e-9 * (1.0 + comp + nat)


class TestOptimizedGapCalibration:
    def test_gamma_optimized_bound_dominates(self):
        # per-trial numeric optimization of the inequality's right-hand side
        # still dominates the metric (unit-sphere pairs)
        grid = np.logspace(-6, 6, 121)
        for t in range(300):
            rng = np.random.default_rng([13, t])
            d = int(rng.integers(2, 13))
            p = random_profile(d, seed=17_000 + t)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            dx = deform(p, v) - deform(p, w)
            xdist_sq = float(dx @ dx)
            q = quad_form_sq_diff(p, v, w)
            optimized = min(
                (2.0 + g + 1.0 / g) * xdist_sq - g * q for g in grid
            )
            nat = natural_dist_sq(p, v, w)
            assert optimized >= nat - 1e-9 * (1.0 + abs(optimized) + nat)


class TestBandeiraRatio:
    def test_hand_value(self):
        expected = (math.sqrt(0.01) * 3.0) / (2.0 * math.sqrt(1.04) - math.sqrt(4.01))
        assert bandeira_ratio(1.0, 2.0, 0.01) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.08, rel=0.01)

    def test_small_delta_asymptotics(self):
        # ratio * sqrt(delta) -> 2ab/(a^2+b^2)
        assert bandeira_ratio(1.0, 2.0, 1e-6) * math.sqrt(1e-6) == pytest.approx(
            0.8, rel=0.05
        )

    def test_swap_symmetry(self):
        assert bandeira_ratio(2.0, 1.0, 0.01) == pytest.approx(
            bandeira_ratio(1.0, 2.0, 0.01), rel=1e-12
        )

    def test_equal_arguments_rejected(self):
        with pytest.raises(ValueError):
            bandeira_ratio(1.0, 1.0, 0.1)

    @pytest.mark.parametrize("args", [(1.0, 2.0, 0.0), (1.0, 2.0, math.nan),
                                      (1.0, 2.0, math.inf), (math.nan, 2.0, 0.5),
                                      (1.0, math.inf, 0.5)],
                             ids=["zero", "nan_delta", "inf_delta", "nan_a", "inf_b"])
    def test_bad_delta(self, args):
        with pytest.raises(ValueError):
            bandeira_ratio(*args)


class TestViolationScan:
    def test_psd_variance_never_violates(self):
        b = np.sqrt(random_psd_nonneg(8, 21))
        assert violation_scan(StdDevProfile(8, b), 2000, 0) == 0.0

    def test_zero_profile(self):
        assert violation_scan(StdDevProfile(4, np.zeros((4, 4))), 500, 0) == 0.0

    def test_bandeira_small_delta_has_violations(self):
        assert violation_scan(gen_bandeira(1e-4), 2000, 0) > 0.0

    def test_deterministic_in_seed(self):
        p = gen_bandeira(1e-4)
        assert violation_scan(p, 1000, 5) == violation_scan(p, 1000, 5)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            violation_scan(gen_wigner(2), 0, 0)


class TestBallBoundary:
    def test_identity_profile_traces_signed_squares(self):
        rows = ball_boundary_2d(gen_diagonal_unit(2), 8)
        for theta, x1, x2 in rows:
            assert x1 == pytest.approx(math.cos(theta) * abs(math.cos(theta)), abs=1e-12)
            assert x2 == pytest.approx(math.sin(theta) * abs(math.sin(theta)), abs=1e-12)
        assert rows[0][1] == pytest.approx(1.0) and rows[0][2] == pytest.approx(0.0)

    def test_wigner_traces_unit_circle(self):
        rows = ball_boundary_2d(gen_wigner(2), 4)
        radii = np.hypot(rows[:, 1], rows[:, 2])
        np.testing.assert_allclose(radii, 1.0, rtol=1e-12)

    def test_quarter_turn_axis_point(self):
        rows = ball_boundary_2d(gen_diagonal_unit(2), 4)
        theta, x1, x2 = rows[1]
        assert theta == pytest.approx(math.pi / 2)
        assert x1 == pytest.approx(0.0, abs=1e-12) and x2 == pytest.approx(1.0)

    def test_requires_d2(self):
        with pytest.raises(ValueError, match="d = 2"):
            ball_boundary_2d(gen_wigner(3), 8)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            ball_boundary_2d(gen_wigner(2), 2)

    def test_csv_format(self):
        text = ball_boundary_csv(ball_boundary_2d(gen_wigner(2), 4))
        lines = text.strip().splitlines()
        assert lines[0] == BALL_CSV_HEADER
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "0.0"


# The formulas as written before the geometry calls shared private kernels,
# kept as the reference for exact (==) equality.
def _ref_image(p, v):
    return v * np.sqrt(p.variance_matrix @ (v * v))


def _ref_image_dist_sq(p, v, w):
    dx = _ref_image(p, v) - _ref_image(p, w)
    return float(dx @ dx)


def _ref_natural(p, v, w):
    b2 = p.variance_matrix
    a = (v + w) ** 2
    c = (v - w) ** 2
    s = v * v - w * w
    return float(a @ b2 @ c + s @ b2 @ s - np.diag(b2) @ (s * s))


def _ref_quad(p, v, w):
    s = v * v - w * w
    return float(s @ p.variance_matrix @ s)


def _ref_basic_gap(p, v, w, gamma):
    rhs = (2.0 + gamma + 1.0 / gamma) * _ref_image_dist_sq(p, v, w) - gamma * _ref_quad(p, v, w)
    return rhs - _ref_natural(p, v, w)


def _ref_comparison(p, split, v, w, gamma):
    s = v * v - w * w
    return (2.0 + gamma + 1.0 / gamma) * _ref_image_dist_sq(p, v, w) + gamma * float(
        s @ split.bminus @ s)


def _ref_violation_scan(p, trials, seed):
    violations = 0
    for t in range(trials):
        v, w = (u / np.linalg.norm(u) for u in reference_pair(t, seed, p.d))
        dist = math.sqrt(max(_ref_natural(p, v, w), 0.0))
        xdist = 2.0 * math.sqrt(_ref_image_dist_sq(p, v, w))
        if dist > xdist + 1e-12 * (1.0 + dist + xdist):
            violations += 1
    return violations / trials


def _psd_profile(d, seed):
    return StdDevProfile(d, np.sqrt(random_psd_nonneg(d, seed)))


class TestSharedKernels:
    def test_bit_identical_to_reference_formulas(self):
        for p, v, w, gamma in basic_corpus(2000, 1):
            split = psd_split(p.variance_matrix)
            assert natural_dist_sq(p, v, w) == _ref_natural(p, v, w)
            assert quad_form_sq_diff(p, v, w) == _ref_quad(p, v, w)
            assert basic_gap(p, v, w, gamma) == _ref_basic_gap(p, v, w, gamma)
            assert comparison_dist_sq(p, split, v, w, gamma) == _ref_comparison(
                p, split, v, w, gamma)
            assert np.array_equal(deform(p, v), _ref_image(p, v))
        for seed in (1, 2):
            p = _psd_profile(32, seed)
            assert violation_scan(p, 2000, seed) == _ref_violation_scan(p, 2000, seed)
        p = gen_bandeira(0.125)
        thetas = 2.0 * np.pi * np.arange(512) / 512
        rows = [(t, *_ref_image(p, np.array([np.cos(t), np.sin(t)]))) for t in thetas]
        assert ball_boundary_csv(ball_boundary_2d(p, 512)) == ball_boundary_csv(np.array(rows))

    def test_each_call_checks_and_squares_once(self, monkeypatch):
        p = random_profile(6, seed=3)
        split = psd_split(p.variance_matrix)
        scan_profile = _psd_profile(8, 4)
        v, w = np.random.default_rng(5).standard_normal((2, 6))
        counts = {"check": 0, "square": 0}
        check, square = geometry._check_vector, StdDevProfile.variance_matrix.fget

        def counting_check(*args):
            counts["check"] += 1
            return check(*args)

        def counting_square(self):
            counts["square"] += 1
            return square(self)

        monkeypatch.setattr(geometry, "_check_vector", counting_check)
        monkeypatch.setattr(StdDevProfile, "variance_matrix", property(counting_square))

        def counted(call):
            counts.update(check=0, square=0)
            call()
            return counts["check"], counts["square"]

        assert counted(lambda: basic_gap(p, v, w, 1.0)) == (2, 1)
        assert counted(lambda: comparison_dist_sq(p, split, v, w, 1.0)) == (2, 1)
        assert counted(lambda: natural_dist_sq(p, v, w)) == (2, 1)
        assert counted(lambda: quad_form_sq_diff(p, v, w)) == (2, 1)
        assert counted(lambda: deform(p, v)) == (1, 1)
        for trials in (1, 50):
            assert counted(lambda: violation_scan(scan_profile, trials, 0)) == (0, 1)
        assert counted(lambda: ball_boundary_2d(gen_bandeira(0.5), 16)) == (0, 1)


class TestStackedViolationScan:
    # Non-PSD profiles, where some pairs do violate the inequality.
    PROFILES = {
        "bandeira:delta=1e-4": gen_bandeira(1e-4),
        "bandeira:delta=0.125": gen_bandeira(0.125),
        "random_profile(6, seed=5)": random_profile(6, seed=5),
        "random_profile(6, seed=6)": random_profile(6, seed=6),
    }

    @pytest.mark.parametrize("name", PROFILES)
    def test_nonzero_count_equals_per_trial_reference(self, name):
        p = self.PROFILES[name]
        assert np.linalg.eigvalsh(p.variance_matrix).min() < 0
        expected = _ref_violation_scan(p, 2000, 7)
        assert expected > 0.0
        assert violation_scan(p, 2000, 7) == expected

    def test_one_trial_past_the_chunk(self):
        # With seed 6 the one trial past the chunk is itself a violation, so
        # losing or misnumbering it changes the fraction.
        p = gen_bandeira(0.125)
        trials = CHUNK + 1
        v, w = (u / np.linalg.norm(u) for u in reference_pair(trials - 1, 6, p.d))
        assert math.sqrt(_ref_natural(p, v, w)) > 2.0 * math.sqrt(_ref_image_dist_sq(p, v, w))
        assert violation_scan(p, trials, 6) == _ref_violation_scan(p, trials, 6)

    def test_count_over_two_chunks_and_one_trial(self):
        # 3 violations in 2049 trials at seed 5
        p, trials = gen_bandeira(1e-4), 2 * CHUNK + 1
        expected = _ref_violation_scan(p, trials, 5)
        assert expected == 3 / trials
        assert violation_scan(p, trials, 5) == expected

    def test_zero_row_becomes_the_normalised_ones_vector(self):
        x = np.array([[[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]],
                      [[1.0, 2.0, 2.0], [0.0, 0.0, 0.0]]])
        units = geometry._unit_rows(x)
        ones = np.ones(3) / np.linalg.norm(np.ones(3))
        np.testing.assert_array_equal(units[0, 0], ones)
        np.testing.assert_array_equal(units[1, 1], ones)
        np.testing.assert_array_equal(units[0, 1], [0.6, 0.0, 0.8])
        np.testing.assert_allclose(units[1, 0], np.array([1.0, 2.0, 2.0]) / 3.0, rtol=1e-15)
        assert np.array_equal(x[0, 0], np.zeros(3))  # the input is left alone


class TestRowStackKernels:
    # The kernels' promise: each row of a (k, d) stack holds the bits of
    # the one-trial (d,) call on that row.
    @pytest.mark.parametrize("d", [1, 2, 9, 32])
    def test_each_row_equals_the_one_trial_call(self, d):
        b2 = random_profile(d, seed=d).variance_matrix
        bminus = psd_split(b2).bminus
        # (v, w) interleaved per trial, as violation_scan lays them out
        v, w = np.random.default_rng([11, d]).standard_normal((5, 2, d)).transpose(1, 0, 2)
        s = v * v - w * w
        image = geometry._image(b2, v)
        quads = geometry._quad(b2, s), geometry._quad(bminus, s)
        image_dist_sq = geometry._image_dist_sq(b2, v, w)
        dist_sq, quad = geometry._natural_dist_sq(b2, v, w)
        assert image.shape == v.shape and dist_sq.shape == quad.shape == (5,)
        for k in range(5):
            assert np.array_equal(image[k], geometry._image(b2, v[k]))
            assert quads[0][k] == geometry._quad(b2, s[k])
            assert quads[1][k] == geometry._quad(bminus, s[k])
            assert image_dist_sq[k] == geometry._image_dist_sq(b2, v[k], w[k])
            assert (dist_sq[k], quad[k]) == geometry._natural_dist_sq(b2, v[k], w[k])

    def test_ball_boundary_equals_per_angle_deform(self):
        p = gen_bandeira(0.125)
        rows = ball_boundary_2d(p, 4096)
        expected = [(t, *deform(p, np.array([np.cos(t), np.sin(t)])))
                    for t in 2.0 * np.pi * np.arange(4096) / 4096]
        assert np.array_equal(rows, np.array(expected))


class TestStackedMatrixKernels:
    # With a (k, d, d) stack of matrices, row i pairs with matrix i, and
    # holds the bits of the one-trial call on that row and that matrix.
    @pytest.mark.parametrize("d", [1, 2, 9, 16])
    def test_each_row_equals_the_one_trial_call_on_its_matrix(self, d):
        b2 = np.array([random_profile(d, seed=d + k, density=0.6).variance_matrix
                       for k in range(6)])
        bminus = np.array([psd_split(b).bminus for b in b2])
        v, w = np.random.default_rng([12, d]).standard_normal((2, 6, d))
        s = v * v - w * w
        dist_sq, quad = geometry._natural_dist_sq(b2, v, w)
        image_dist_sq = geometry._image_dist_sq(b2, v, w)
        quads = geometry._quad(b2, s), geometry._quad(bminus, s)
        assert dist_sq.shape == quad.shape == image_dist_sq.shape == (6,)
        for k in range(6):
            assert (dist_sq[k], quad[k]) == geometry._natural_dist_sq(b2[k], v[k], w[k])
            assert image_dist_sq[k] == geometry._image_dist_sq(b2[k], v[k], w[k])
            assert quads[0][k] == geometry._quad(b2[k], s[k])
            assert quads[1][k] == geometry._quad(bminus[k], s[k])
