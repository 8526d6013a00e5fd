import math
from collections import Counter

import numpy as np
import pytest

from specbounds import cli, montecarlo
from specbounds.generators import (
    gen_bandeira,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_wigner,
    make_family,
    parse_family_spec,
    random_profile,
)
from specbounds.geometry import simplex_sup
from specbounds.linalg import psd_split, spectral_norm
from specbounds.montecarlo import (
    GDOT_TAG,
    X_TAG,
    YMAX_TAG,
    McEstimate,
    RandomStream,
    block_norms,
    block_size,
    equivalence_report,
    est_distance_sq,
    est_entrymax,
    est_gdot,
    est_norm,
    est_rowmax,
    est_x,
    est_ymax,
    sample_X,
    x_stacks,
)
from specbounds.profile import StdDevProfile, support_blocks

ZERO4 = StdDevProfile(4, np.zeros((4, 4)))


class TestSampleX:
    def test_zero_profile_always_zero(self):
        for r in range(5):
            x = sample_X(ZERO4, RandomStream(1, r))
            np.testing.assert_array_equal(x, np.zeros((4, 4)))

    def test_symmetric(self):
        x = sample_X(random_profile(6, seed=0), RandomStream(0, 0))
        np.testing.assert_array_equal(x, x.T)

    def test_same_stream_same_draw(self):
        p = gen_wigner(5)
        a = sample_X(p, RandomStream(9, 3))
        b = sample_X(p, RandomStream(9, 3))
        np.testing.assert_array_equal(a, b)
        c = sample_X(p, RandomStream(9, 4))
        assert not np.array_equal(a, c)

    def test_entrywise_mean_is_zero(self):
        p = random_profile(4, seed=2)
        reps = 10_000
        draws = np.stack([sample_X(p, RandomStream(5, r)) for r in range(reps)])
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean) <= 4.0 * stderr + 1e-15)

    def test_entrywise_second_moment_matches_variances(self):
        p = random_profile(4, seed=3)
        reps = 10_000
        draws = np.stack(
            [sample_X(p, RandomStream(6, r)) ** 2 for r in range(reps)]
        )
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - p.b ** 2) <= 4.0 * stderr + 1e-15)


def _scatter_sample_X(p, stream, k=None):
    # Reference: the tril_indices two-scatter sampler that the gather replaced.
    rows, cols = np.tril_indices(p.d)
    shape = (p.d, p.d) if k is None else (k, p.d, p.d)
    lower = stream.generator().standard_normal(shape[:-2] + (rows.size,))
    g = np.empty(shape)
    g[..., rows, cols] = lower
    g[..., cols, rows] = lower
    return p.b * g


class TestSampleXGather:
    @pytest.mark.parametrize("d", [1, 2, 6, 17])
    @pytest.mark.parametrize("k", [None, 1, 5])
    def test_matches_scatter_reference(self, d, k):
        p = random_profile(d, seed=d, density=0.5)
        stream = RandomStream(3, X_TAG, d)
        got = sample_X(p, stream, k)
        want = _scatter_sample_X(p, stream, k)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


class TestEstimators:
    def test_est_norm_zero_profile(self):
        est = est_norm(ZERO4, 50, 0)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_est_rowmax_half_normal_mean(self):
        # d = 1: the row norm is |g|, whose mean is sqrt(2/pi)
        est = est_rowmax(gen_diagonal_unit(1), 10_000, 11)
        assert abs(est.mean - math.sqrt(2.0 / math.pi)) <= 4.0 * est.stderr

    def test_est_gdot_equals_entrymax_on_diagonal(self):
        # both reduce to E max_i |g_i| on the identity profile
        p = gen_diagonal_unit(16)
        gdot = est_gdot(p, 10_000, 21)
        entrymax = est_entrymax(p, 10_000, 22)
        combined = math.hypot(gdot.stderr, entrymax.stderr)
        assert abs(gdot.mean - entrymax.mean) <= 4.0 * combined

    def test_est_ymax_psd_is_exactly_zero(self):
        split = psd_split(gen_wigner(6).variance_matrix)
        est = est_ymax(split, 100, 0)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_est_ymax_indefinite_is_positive(self):
        split = psd_split(gen_bandeira(0.01).variance_matrix)
        est = est_ymax(split, 2000, 1)
        assert est.mean > 0.0

    def test_replicate_floor(self):
        with pytest.raises(ValueError, match="replicates"):
            est_norm(gen_wigner(2), 1, 0)

    def test_metadata_recorded(self):
        est = est_entrymax(gen_wigner(3), 17, 123)
        assert est.replicates == 17 and est.seed == 123 and est.quantity == "entrymax"


class TestEstDistanceSq:
    def test_equal_vectors_exactly_zero(self):
        p = random_profile(5, seed=1)
        v = np.arange(5.0)
        est = est_distance_sq(p, v, v, 100, 0)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_one_dimensional_case(self):
        p = StdDevProfile(1, np.array([[1.0]]))
        est = est_distance_sq(p, np.array([1.0]), np.array([0.0]), 10_000, 5)
        # (<v,Xv> - <w,Xw>)^2 = g^2 with E g^2 = 1
        assert abs(est.mean - 1.0) <= 4.0 * est.stderr

    def test_bandeira_closed_form(self):
        est = est_distance_sq(
            gen_bandeira(0.01), np.array([1.0, 2.0]), np.array([2.0, 1.0]), 20_000, 7
        )
        assert abs(est.mean - 0.09) <= 4.0 * est.stderr

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            est_distance_sq(gen_wigner(3), np.ones(2), np.ones(3), 10, 0)


class TestStructuralChecks:
    def test_expected_square_is_diagonal_of_row_sums(self):
        # E X^2 = diag(sum_j b_ij^2), checked entrywise at 5 stderr
        p = random_profile(8, seed=4)
        reps = 10_000
        draws = np.stack(
            [
                (lambda x: x @ x)(sample_X(p, RandomStream(31, r)))
                for r in range(reps)
            ]
        )
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(reps)
        expected = np.diag(np.sum(p.b ** 2, axis=1))
        assert np.all(np.abs(mean - expected) <= 5.0 * stderr + 1e-12)

    def test_row_norm_variance_bounded(self):
        # Gaussian Poincare: Var sqrt(sum_j X_ij^2) <= max_j b_ij^2,
        # allowed 1.5x slack for sampling noise
        p = random_profile(6, seed=9)
        reps = 10_000
        norms = np.stack(
            [
                np.sqrt(np.sum(sample_X(p, RandomStream(41, r)) ** 2, axis=1))
                for r in range(reps)
            ]
        )
        variances = norms.var(axis=0, ddof=1)
        caps = np.max(p.b ** 2, axis=1)
        assert np.all(variances <= 1.5 * caps)

    @pytest.mark.parametrize("n", [2, 8, 64, 512])
    def test_gaussian_maxima_calibration(self, n):
        # E max_{i<=n} |g_i| tracks sqrt(ln(n+1)) within a broad constant
        est = est_gdot(gen_diagonal_unit(n), 3000, 51)
        ratio = est.mean / math.sqrt(math.log(n + 1))
        assert 0.5 <= ratio <= 2.5

    def test_rowmax_monotone_in_profile_entries(self):
        p = random_profile(5, seed=13)
        base = est_rowmax(p, 4000, 61)
        b = p.b.copy()
        b[1, 3] += 1.0
        b[3, 1] += 1.0
        bigger = est_rowmax(StdDevProfile(5, b), 4000, 61)
        combined = math.hypot(base.stderr, bigger.stderr)
        assert bigger.mean >= base.mean - 4.0 * combined


class TestDeterminism:
    def test_bit_identical_reruns(self):
        p = gen_wigner(12)
        a = est_rowmax(p, 400, 77)
        b = est_rowmax(p, 400, 77)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_worker_count_does_not_change_result(self):
        p = random_profile(10, seed=3)
        for fn in (est_norm, est_rowmax, est_entrymax, est_gdot):
            serial = fn(p, 200, 55, workers=1)
            threaded = fn(p, 200, 55, workers=4)
            assert (serial.mean, serial.stderr) == (threaded.mean, threaded.stderr)

    def test_distinct_seeds_differ(self):
        p = gen_wigner(8)
        assert est_norm(p, 100, 1).mean != est_norm(p, 100, 2).mean


class TestEquivalenceReport:
    def test_zero_profile_convention(self):
        report = equivalence_report(ZERO4, 50, 0)
        assert all(value == 0.0 for value in report["means"].values())
        for row in report["ratios"].values():
            assert all(ratio == 1.0 for ratio in row.values())

    def test_wigner_ratios_in_envelope(self):
        report = equivalence_report(gen_wigner(32), 100, 3)
        for row in report["ratios"].values():
            for ratio in row.values():
                assert 0.1 <= ratio <= 10.0

    def test_contains_all_four_quantities(self):
        report = equivalence_report(gen_diagonal_unit(8), 50, 0)
        assert set(report["means"]) == {
            "rowmax",
            "gdot",
            "sigma_plus_entrymax",
            "equiv_expression",
        }
        assert report["replicates"] == 50 and report["seed"] == 0

    def test_diagonal_ratio_matrix_consistency(self):
        report = equivalence_report(gen_diagonal_unit(8), 50, 0)
        means = report["means"]
        ratios = report["ratios"]
        for a in means:
            assert ratios[a][a] == pytest.approx(1.0)
            for b in means:
                assert ratios[a][b] == pytest.approx(means[a] / means[b])


def _count_sample_X(monkeypatch):
    calls = []
    original = montecarlo.sample_X

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "sample_X", counted)
    return calls


class TestEstX:
    SEED = 505
    PROFILES = {
        "dense": lambda d: random_profile(d, seed=1),
        "sparse": lambda d: random_profile(d, seed=2, density=0.3),
        "diagonal": gen_diagonal_decay,
    }

    @pytest.mark.parametrize("kind", sorted(PROFILES))
    @pytest.mark.parametrize("d", [6, 16])
    def test_matches_single_quantity_estimators(self, kind, d):
        p = self.PROFILES[kind](d)
        replicates = 2 * _documented_k(d * (d + 1) // 2) + 3
        fused = est_x(p, replicates, self.SEED)
        assert list(fused) == ["norm", "rowmax", "entrymax"]
        for fn in (est_norm, est_rowmax, est_entrymax):
            single = fn(p, replicates, self.SEED)
            assert fused[single.quantity].to_dict() == single.to_dict()

    def test_subset_in_requested_order(self):
        p = gen_wigner(5)
        fused = est_x(p, 30, self.SEED, ("entrymax", "norm"))
        assert list(fused) == ["entrymax", "norm"]
        assert fused["norm"].to_dict() == est_norm(p, 30, self.SEED).to_dict()

    def test_replicate_floor_draws_nothing(self, monkeypatch):
        calls = _count_sample_X(monkeypatch)
        with pytest.raises(ValueError, match="replicates must be >= 2"):
            est_x(gen_wigner(4), 1, self.SEED)
        assert calls == []

    def test_unknown_quantity_is_rejected(self):
        with pytest.raises(ValueError, match="gdot"):
            est_x(gen_wigner(4), 10, self.SEED, ("norm", "gdot"))


class TestEachXBlockDrawnOnce:
    # d = 16: K = 240 replicates per block, so R = 2K + 3 spans 3 blocks.
    D = 16
    REPLICATES = 2 * 240 + 3
    BLOCKS = 3

    def test_mc_all(self, monkeypatch, capsys):
        calls = _count_sample_X(monkeypatch)
        assert cli.main(["mc", "--family", f"band:d={self.D},w=3", "--quantity", "all",
                         "--replicates", str(self.REPLICATES)]) == 0
        assert len(calls) == self.BLOCKS

    def test_scan_row(self, monkeypatch, capsys):
        calls = _count_sample_X(monkeypatch)
        assert cli.main(["scan", "--families", "wigner", "--dims", str(self.D),
                         "--replicates", str(self.REPLICATES)]) == 0
        assert len(calls) == self.BLOCKS

    def test_equivalence_report(self, monkeypatch):
        calls = _count_sample_X(monkeypatch)
        equivalence_report(gen_wigner(self.D), self.REPLICATES, 0)
        assert len(calls) == self.BLOCKS


def _documented_k(n):
    # K = max(1, 32768 // n) replicates per block of 256 KiB of normals
    return max(1, 32768 // n)


def _documented_rows(draw, n, replicates):
    """Replicate r is row r % K of block r // K; each block is drawn whole
    (K rows) here, so a partial last block in the estimator must be its
    prefix."""
    k = _documented_k(n)
    blocks = [draw(block, k) for block in range((replicates + k - 1) // k)]
    return [blocks[r // k][r % k] for r in range(replicates)]


def _assert_matches(est, values):
    assert est.replicates == len(values)
    assert est.mean == pytest.approx(np.mean(values), rel=1e-12)
    assert est.stderr == pytest.approx(
        np.std(values, ddof=1) / math.sqrt(len(values)), rel=1e-12
    )


class TestBlockContract:
    SEED = 404

    def test_documented_block_sizes(self):
        tri = lambda d: d * (d + 1) // 2
        assert [block_size(tri(d)) for d in (6, 16, 128, 180, 181)] == [1560, 240, 3, 2, 1]

    @pytest.mark.parametrize("d", [6, 16])
    def test_x_estimators_match_scalar_definitions(self, d):
        p = random_profile(d, seed=d)
        n = d * (d + 1) // 2
        replicates = 2 * _documented_k(n) + 3
        xs = _documented_rows(
            lambda block, k: sample_X(p, RandomStream(self.SEED, X_TAG, block), k),
            n, replicates,
        )
        vw = np.random.default_rng(d)
        v, w = vw.standard_normal(d), vw.standard_normal(d)
        _assert_matches(est_norm(p, replicates, self.SEED), [spectral_norm(x) for x in xs])
        _assert_matches(
            est_rowmax(p, replicates, self.SEED),
            [max(math.sqrt(float(row @ row)) for row in x) for x in xs],
        )
        _assert_matches(
            est_entrymax(p, replicates, self.SEED), [float(np.max(np.abs(x))) for x in xs]
        )
        _assert_matches(
            est_distance_sq(p, v, w, replicates, self.SEED),
            [float(v @ x @ v - w @ x @ w) ** 2 for x in xs],
        )

    @pytest.mark.parametrize("d", [6, 16])
    def test_g_estimators_match_scalar_definitions(self, d):
        p = random_profile(d, seed=d)
        replicates = 2 * _documented_k(d) + 3
        gs = _documented_rows(
            lambda block, k: RandomStream(self.SEED, GDOT_TAG, block)
            .generator().standard_normal((k, d)),
            d, replicates,
        )
        _assert_matches(est_gdot(p, replicates, self.SEED), [simplex_sup(p, g) for g in gs])

        split = psd_split(p.variance_matrix)
        rank = split.factor_l.shape[1]
        assert rank > 0
        replicates = 2 * _documented_k(rank) + 3
        gs = _documented_rows(
            lambda block, k: RandomStream(self.SEED, YMAX_TAG, block)
            .generator().standard_normal((k, rank)),
            rank, replicates,
        )
        _assert_matches(
            est_ymax(split, replicates, self.SEED),
            [float(np.max(split.factor_l @ g)) for g in gs],
        )

    @pytest.mark.parametrize("family", ["diagonal_unit", "diagonal_decay"])
    def test_common_random_numbers_on_diagonal_profiles(self, family):
        # ||X|| = max row norm = max |X_ii| on every replicate of a diagonal X
        p = make_family(family, {"d": 16})
        norm = est_norm(p, 500, self.SEED)
        rowmax = est_rowmax(p, 500, self.SEED)
        entrymax = est_entrymax(p, 500, self.SEED)
        assert (rowmax.mean, rowmax.stderr) == (entrymax.mean, entrymax.stderr)
        assert norm.mean == pytest.approx(entrymax.mean, rel=1e-12)
        assert norm.stderr == pytest.approx(entrymax.stderr, rel=1e-12)

    @pytest.mark.parametrize("d", [6, 16])
    def test_longer_run_extends_shorter_run(self, d):
        p = random_profile(d, seed=d)
        k = _documented_k(d * (d + 1) // 2)
        replicates = k + 5
        short = np.concatenate(list(x_stacks(p, replicates, self.SEED)))
        long = np.concatenate(list(x_stacks(p, replicates + k, self.SEED)))
        assert short.shape == (replicates, d, d)
        np.testing.assert_array_equal(short, long[:replicates])

    def test_seed_and_tags_select_distinct_streams(self):
        p = gen_wigner(4)
        draws = [sample_X(p, RandomStream(*key)) for key in
                 [(1, X_TAG, 0), (2, X_TAG, 0), (1, GDOT_TAG, 0), (1, X_TAG, 1)]]
        for a in range(len(draws)):
            for b in range(a):
                assert not np.array_equal(draws[a], draws[b])


def _diagonal_norm_oracle(diag, intervals=2000):
    """E max_i b_i |g_i| = int_0^inf (1 - prod_i erf(t / (b_i sqrt 2))) dt
    by composite Simpson on [0, 12 max b_i], past which each factor is 1
    to double precision."""
    counts = Counter(float(b) for b in diag if b > 0.0)
    top = 12.0 * max(counts)
    h = top / intervals

    def tail(t):
        prod = 1.0
        for b, count in counts.items():
            prod *= math.erf(t / (b * math.sqrt(2.0))) ** count
        return 1.0 - prod

    weights = [1.0] + [4.0 if k % 2 else 2.0 for k in range(1, intervals)] + [1.0]
    return h / 3.0 * sum(wk * tail(k * h) for k, wk in enumerate(weights))


class TestDiagonalOracle:
    # For a diagonal profile ||X|| = max row norm = max |X_ij| = max_i b_i |g_i|
    # and gdot = max_i b_i |g_i| too, so all four share one exact expectation.

    def test_oracle_half_normal(self):
        assert _diagonal_norm_oracle([1.0]) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-10)

    def test_x_estimators_on_diagonal_decay(self):
        p = gen_diagonal_decay(256)
        oracle = _diagonal_norm_oracle(np.diag(p.b))
        for fn in (est_norm, est_rowmax, est_entrymax):
            est = fn(p, 200, 8)
            assert abs(est.mean - oracle) <= 5.0 * est.stderr, fn.__name__

    def test_gdot_on_diagonal_unit_4096(self):
        p = gen_diagonal_unit(4096)
        oracle = _diagonal_norm_oracle(np.diag(p.b))
        est = est_gdot(p, 200, 8)
        assert abs(est.mean - oracle) <= 5.0 * est.stderr


def _record_spectral_norm_shapes(monkeypatch):
    shapes = []
    original = montecarlo.spectral_norm

    def counting(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(montecarlo, "spectral_norm", counting)
    return shapes


class TestBlockNorms:
    SEED = 606

    def test_block_diagonal_profile_matches_full_eigensolve(self, block_diagonal_profile):
        p = block_diagonal_profile
        n = p.d * (p.d + 1) // 2
        replicates = 2 * _documented_k(n) + 3
        xs = _documented_rows(
            lambda block, k: sample_X(p, RandomStream(self.SEED, X_TAG, block), k),
            n, replicates,
        )
        _assert_matches(est_norm(p, replicates, self.SEED), [spectral_norm(x) for x in xs])

    def test_one_eigensolve_per_block_size(self, monkeypatch, block_diagonal_profile):
        p = block_diagonal_profile
        x = sample_X(p, RandomStream(self.SEED, X_TAG, 0), 4)
        shapes = _record_spectral_norm_shapes(monkeypatch)
        block_norms(x, support_blocks(p))
        assert shapes == [(8, 1, 1), (4, 2, 2), (4, 3, 3)]

    def test_connected_profile_solves_the_stack_itself(self, monkeypatch):
        p = gen_wigner(6)
        x = sample_X(p, RandomStream(self.SEED, X_TAG, 0), 3)
        seen = []
        monkeypatch.setattr(montecarlo, "spectral_norm", lambda a: seen.append(a) or 0.0)
        block_norms(x, support_blocks(p))
        assert len(seen) == 1 and seen[0] is x

    def test_diagonal_decay_256_needs_no_full_eigensolve(self, monkeypatch):
        p = gen_diagonal_decay(256)
        shapes = _record_spectral_norm_shapes(monkeypatch)
        est = est_x(p, 30, self.SEED)
        assert shapes and all(shape[1:] == (1, 1) for shape in shapes)
        # 1 x 1 eigensolves return |X_ii| exactly
        assert est["norm"].to_dict() == {**est["entrymax"].to_dict(), "quantity": "norm"}


def _two_by_two_norm_oracle(p, intervals=2000):
    """E||X|| for d = 2.  ||X|| = |u| + sqrt(v^2 + w^2) with u, v = (x11 +-
    x22)/2 and w = x12; v and w are independent, and the length of a
    centred Gaussian vector with variances (s_v^2, s_w^2) has mean
    sqrt(pi/2) (1/2 pi) int_0^2pi sqrt(s_v^2 cos^2 + s_w^2 sin^2) dtheta.
    Composite Simpson over the period."""
    (b11, b12), (_, b22) = p.b
    s_u = s_v = math.hypot(b11, b22) / 2.0
    h = 2.0 * math.pi / intervals

    def radius(theta):
        return math.sqrt((s_v * math.cos(theta)) ** 2 + (b12 * math.sin(theta)) ** 2)

    weights = [1.0] + [4.0 if k % 2 else 2.0 for k in range(1, intervals)] + [1.0]
    mean_radius = h / 3.0 * sum(wk * radius(k * h) for k, wk in enumerate(weights))
    return s_u * math.sqrt(2.0 / math.pi) + math.sqrt(math.pi / 2.0) * mean_radius / (2.0 * math.pi)


def _entrymax_oracle(p):
    """E max |X_ij| over the independent entries i >= j: the
    max-of-half-normals integral of _diagonal_norm_oracle over b_ij, i >= j."""
    return _diagonal_norm_oracle(p.b[np.tril_indices(p.d)])


class TestExactOracles:
    # Seeds and replicate counts were fixed before the first run.
    SEED = 606

    def test_two_by_two_oracle_closed_forms(self):
        # diagonal: max(|g1|, |g2|); off-diagonal only: |x12| = half-normal
        assert _two_by_two_norm_oracle(gen_diagonal_unit(2)) == pytest.approx(
            _diagonal_norm_oracle([1.0, 1.0]), rel=1e-10)
        flip = StdDevProfile(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert _two_by_two_norm_oracle(flip) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                              rel=1e-10)

    @pytest.mark.parametrize("spec", ["wigner:d=2", "bandeira:delta=0.25"])
    def test_norm_on_d2(self, spec):
        p = parse_family_spec(spec)
        est = est_norm(p, 20000, self.SEED)
        assert abs(est.mean - _two_by_two_norm_oracle(p)) <= 5.0 * est.stderr

    def test_entrymax_oracle_matches_diagonal_oracle(self):
        p = gen_diagonal_decay(16)
        assert _entrymax_oracle(p) == _diagonal_norm_oracle(np.diag(p.b))

    @pytest.mark.parametrize("spec", ["band:d=128,w=5",
                                      "sparse_random:d=64,density=0.3,seed=2"])
    def test_entrymax(self, spec):
        p = parse_family_spec(spec)
        est = est_entrymax(p, 2000, self.SEED)
        assert abs(est.mean - _entrymax_oracle(p)) <= 5.0 * est.stderr

    def test_entrymax_and_norm_on_several_components(self):
        # 7 isolated indices beside one component of 57: the norm takes the
        # block path in the same pass that reads entrymax
        p = parse_family_spec("sparse_random:d=64,density=0.03,seed=2")
        assert [b.shape for b in support_blocks(p)] == [(7, 1), (1, 57)]
        est = est_x(p, 2000, self.SEED)
        assert abs(est["entrymax"].mean - _entrymax_oracle(p)) <= 5.0 * est["entrymax"].stderr
        assert est["norm"].mean >= est["rowmax"].mean >= est["entrymax"].mean
