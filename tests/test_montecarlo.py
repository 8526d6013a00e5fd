import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from conftest import dense_blocks, dense_x_stacks

from specbounds import cli, linalg, montecarlo
from specbounds.bounds import compute_bound_report, optimize_gamma
from specbounds.checks import EQUIV_QUANTITIES, equivalence_report
from specbounds.generators import (
    gen_bandeira,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_kronecker_flip,
    gen_wigner,
    make_family,
    parse_family_spec,
    random_profile,
)
from specbounds.geometry import simplex_sup
from specbounds.linalg import _clipped_factor, psd_split, spectral_norm, sym_eig
from specbounds.montecarlo import (
    GDOT_TAG,
    PROFILE_QUANTITIES,
    X_TAG,
    YMAX_TAG,
    McEstimate,
    RandomStream,
    block_norms,
    block_size,
    est_distance_sq,
    est_entrymax,
    est_gdot,
    est_norm,
    est_rowmax,
    est_ymax,
    estimate,
    sample_X,
    x_blocks,
)
from specbounds.profile import StdDevProfile, max_entry, rearrange, support_blocks
from specbounds.slicing import verify_slice_inequality

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
        est = est_ymax(gen_wigner(6), 100, 0)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_est_ymax_indefinite_is_positive(self):
        est = est_ymax(gen_bandeira(0.01), 2000, 1)
        assert est.mean > 0.0

    @pytest.mark.parametrize("spec", ["wigner:d=16", "band:d=16,w=3", "kronecker_flip:d=16,seed=9",
                                      "sparse_random:d=32,density=0.35,seed=9"])
    @pytest.mark.parametrize("e", [-24, -20, -16, -1, 1, 160])
    def test_est_ymax_scales_with_the_profile(self, spec, e):
        # B scales by 4^e and the psd_split clip with it, so rank(B-) and
        # every draw are unchanged and Y scales by exactly 2^e
        p = parse_family_spec(spec)
        scaled = StdDevProfile(p.d, np.ldexp(p.b, e))
        rank = psd_split(p.variance_matrix).factor_l.shape[1]
        assert psd_split(scaled.variance_matrix).factor_l.shape[1] == rank
        est, got = est_ymax(p, 40, 5), est_ymax(scaled, 40, 5)
        assert (got.mean, got.stderr) == (np.ldexp(est.mean, e), np.ldexp(est.stderr, e))

    def test_replicate_floor(self):
        with pytest.raises(ValueError, match="replicates"):
            est_norm(gen_wigner(2), 1, 0)

    def test_non_finite_estimate_rejected(self):
        # inf * 0 gives NaN values, which must not come back as an estimate
        with pytest.raises(ValueError, match="non-finite distsq estimate"):
            est_distance_sq(gen_wigner(3), [np.inf, 0.0, 0.0], np.zeros(3), 10, 0)

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

    @pytest.mark.parametrize("spec", ["block_diagonal", "wigner:d=6"])
    def test_linear_form_without_a_dense_x(self, monkeypatch, spec, block_diagonal_profile):
        # the increment is a linear form in the X normals: no sample_X draw,
        # and the values of (<v, Xv> - <w, Xw>)^2 on the dense X of each replicate
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        replicates, seed = 2 * _documented_k(p.d * (p.d + 1) // 2) + 3, 17
        vw = np.random.default_rng(p.d)
        v, w = vw.standard_normal(p.d), vw.standard_normal(p.d)
        xs = np.concatenate(list(dense_x_stacks(p, replicates, seed)))
        values = [float(v @ x @ v - w @ x @ w) ** 2 for x in xs]
        monkeypatch.setattr(montecarlo, "sample_X", lambda *args: pytest.fail("sample_X called"))
        _assert_matches(est_distance_sq(p, v, w, replicates, seed), values)

    # (scale of v and w, scale of b): b shrinks where v is large, so that the
    # squares of the values stay finite; at 1e-150 the values underflow to 0.
    SCALES = [(1e-150, 1.0), (1.0, 1.0), (1e150, 1e-230)]

    @pytest.mark.parametrize("d", [1, 6, 24])
    @pytest.mark.parametrize("scale", SCALES + ["v=w"], ids=["1e-150", "1", "1e150", "v=w"])
    def test_bits_of_the_documented_linear_form(self, d, scale):
        # The increment is sum_{i >= j} b_ij (v_i v_j - w_i w_j) (2 - delta_ij)
        # g_ij over the np.tril_indices order of the X normals; its squares,
        # dotted one stream block at a time, reduce to the estimate bit for bit.
        v_scale, b_scale = (1.0, 1.0) if scale == "v=w" else scale
        b = random_profile(d, seed=d, density=1.0 if d == 1 else 0.6).b
        assert d == 1 or (b == 0).any()
        p = StdDevProfile(d, b * b_scale)
        vw = np.random.default_rng(d + 1).standard_normal((2, d)) * v_scale
        v, w = vw[0], vw[0] if scale == "v=w" else vw[1]
        v[-1] = -0.0  # a signed zero
        n = d * (d + 1) // 2
        k = _documented_k(n)
        replicates, seed = 2 * k + 5, 23  # a partial third stream block
        i, j = np.tril_indices(d)
        coef = p.b[i, j] * (v[i] * v[j] - w[i] * w[j]) * (2.0 - (i == j))
        values = np.concatenate([
            (RandomStream(seed, X_TAG, block).generator()
             .standard_normal((min(k, replicates - start), n)) @ coef) ** 2
            for block, start in enumerate(range(0, replicates, k))])
        est = est_distance_sq(p, v, w, replicates, seed)
        assert (est.mean, est.stderr) == (
            np.mean(values), np.std(values, ddof=1) / math.sqrt(replicates))


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

    def test_distinct_seeds_differ(self):
        p = gen_wigner(8)
        assert est_norm(p, 100, 1).mean != est_norm(p, 100, 2).mean


def _equivalence_report(p, replicates, seed):
    return equivalence_report(p, estimate(p, EQUIV_QUANTITIES, replicates, seed))


class TestEquivalenceReport:
    def test_zero_profile_convention(self):
        report = _equivalence_report(ZERO4, 50, 0)
        assert all(value == 0.0 for value in report["means"].values())
        for row in report["ratios"].values():
            assert all(ratio == 1.0 for ratio in row.values())

    def test_wigner_ratios_in_envelope(self):
        report = _equivalence_report(gen_wigner(32), 100, 3)
        for row in report["ratios"].values():
            for ratio in row.values():
                assert 0.1 <= ratio <= 10.0

    def test_contains_all_four_quantities(self):
        report = _equivalence_report(gen_diagonal_unit(8), 50, 0)
        assert set(report["means"]) == {
            "rowmax",
            "gdot",
            "sigma_plus_entrymax",
            "equiv_expression",
        }
        assert report["replicates"] == 50 and report["seed"] == 0

    def test_other_estimates_are_ignored(self):
        p = gen_wigner(6)
        more = estimate(p, ("ymax", "norm", *EQUIV_QUANTITIES), 40, 2)
        assert equivalence_report(p, more) == _equivalence_report(p, 40, 2)

    def test_diagonal_ratio_matrix_consistency(self):
        report = _equivalence_report(gen_diagonal_unit(8), 50, 0)
        means = report["means"]
        ratios = report["ratios"]
        for a in means:
            assert ratios[a][a] == pytest.approx(1.0)
            for b in means:
                assert ratios[a][b] == pytest.approx(means[a] / means[b])


def _count_x_draws(monkeypatch):
    # The X stream blocks drawn: the RandomStream.generator calls on the X tag.
    draws = []
    original = RandomStream.generator

    def counted(stream):
        if stream.tag == X_TAG:
            draws.append(stream)
        return original(stream)

    monkeypatch.setattr(RandomStream, "generator", counted)
    return draws


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
        fused = estimate(p, ("norm", "rowmax", "entrymax"), replicates, self.SEED)
        assert list(fused) == ["norm", "rowmax", "entrymax"]
        for fn in (est_norm, est_rowmax, est_entrymax):
            single = fn(p, replicates, self.SEED)
            assert fused[single.quantity].to_dict() == single.to_dict()

    def test_subset_in_requested_order(self):
        p = gen_wigner(5)
        fused = estimate(p, ("entrymax", "norm"), 30, self.SEED)
        assert list(fused) == ["entrymax", "norm"]
        assert fused["norm"].to_dict() == est_norm(p, 30, self.SEED).to_dict()

    def test_gdot_and_ymax_mixed_in(self):
        p = parse_family_spec("kronecker_flip:d=6,seed=1")
        mixed = estimate(p, ("ymax", "entrymax", "gdot"), 30, self.SEED)
        assert list(mixed) == ["ymax", "entrymax", "gdot"]
        for fn in (est_ymax, est_entrymax, est_gdot):
            single = fn(p, 30, self.SEED)
            assert mixed[single.quantity].to_dict() == single.to_dict()

    def test_replicate_floor_draws_nothing(self, monkeypatch):
        calls = _count_x_draws(monkeypatch)
        with pytest.raises(ValueError, match="replicates must be >= 2"):
            estimate(gen_wigner(4), ("norm", "rowmax", "entrymax"), 1, self.SEED)
        assert calls == []

    def test_unknown_quantity_is_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            estimate(gen_wigner(4), ("norm", "sigma"), 10, self.SEED)


class TestEachXBlockDrawnOnce:
    # d = 16: K = 240 replicates per block, so R = 2K + 3 spans 3 blocks.
    D = 16
    REPLICATES = 2 * 240 + 3
    BLOCKS = 3

    def test_mc_all(self, monkeypatch, capsys):
        calls = _count_x_draws(monkeypatch)
        assert cli.main(["mc", "--family", f"band:d={self.D},w=3", "--quantity", "all",
                         "--replicates", str(self.REPLICATES)]) == 0
        assert len(calls) == self.BLOCKS

    def test_mc_all_on_several_blocks(self, monkeypatch, capsys):
        # 16 support blocks of one index each, all gathered from one draw
        calls = _count_x_draws(monkeypatch)
        assert cli.main(["mc", "--family", f"diagonal_decay:d={self.D}", "--quantity", "all",
                         "--replicates", str(self.REPLICATES)]) == 0
        assert len(calls) == self.BLOCKS

    def test_scan_row(self, monkeypatch, capsys):
        calls = _count_x_draws(monkeypatch)
        assert cli.main(["scan", "--families", "wigner", "--dims", str(self.D),
                         "--replicates", str(self.REPLICATES)]) == 0
        assert len(calls) == self.BLOCKS

    def test_equivalence_report(self, monkeypatch):
        # the norm and the report's estimates in one pass; the report draws
        # nothing
        calls = _count_x_draws(monkeypatch)
        p = gen_wigner(self.D)
        est = estimate(p, ("norm", *EQUIV_QUANTITIES), self.REPLICATES, 0)
        assert len(calls) == self.BLOCKS
        equivalence_report(p, est)
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
            est_ymax(p, replicates, self.SEED),
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
        blocks = support_blocks(p)
        short = list(x_blocks(p, blocks, replicates, self.SEED))
        long = list(x_blocks(p, blocks, replicates + k, self.SEED))
        for c, idx in enumerate(blocks):
            a = np.concatenate([item[c] for item in short])
            b = np.concatenate([item[c] for item in long])
            assert a.shape == (replicates, *idx.shape, idx.shape[1])
            np.testing.assert_array_equal(a, b[:replicates])

    def test_seed_and_tags_select_distinct_streams(self):
        p = gen_wigner(4)
        draws = [sample_X(p, RandomStream(*key)) for key in
                 [(1, X_TAG, 0), (2, X_TAG, 0), (1, GDOT_TAG, 0), (1, X_TAG, 1)]]
        for a in range(len(draws)):
            for b in range(a):
                assert not np.array_equal(draws[a], draws[b])


# erf(x) is exactly 1.0 in double precision from x = 5.9215871957945 on.
ERF_IS_ONE = 6.0


def _diagonal_norm_oracle(diag, intervals=2000):
    """E max_i b_i |g_i| = int_0^inf (1 - prod_i erf(t / (b_i sqrt 2))) dt
    by composite Simpson on [0, 12 max b_i], past which each factor is 1
    to double precision.  Each product runs over the distinct b_i in the
    order they first appear, and two shortcuts keep its bits: a factor
    with t / (b_i sqrt 2) >= ERF_IS_ONE is exactly 1 and is skipped, and
    once 1 - prod rounds to 1 no further factor (each <= 1) can move it."""
    counts = Counter(float(b) for b in diag if b > 0.0)
    values, powers = np.array(list(counts)), np.array(list(counts.values()))
    top = 12.0 * max(counts)
    h = top / intervals

    def tail(t):
        keep = values * (ERF_IS_ONE * math.sqrt(2.0)) > t
        args = (t / (values[keep] * math.sqrt(2.0))).tolist()
        prod = 1.0
        for factor in map(pow, map(math.erf, args), powers[keep].tolist()):
            prod *= factor
            if 1.0 - prod == 1.0:
                break
        return 1.0 - prod

    weights = [1.0] + [4.0 if k % 2 else 2.0 for k in range(1, intervals)] + [1.0]
    return h / 3.0 * sum(wk * tail(k * h) for k, wk in enumerate(weights))


def _plain_norm_oracle(diag, intervals=2000):
    # _diagonal_norm_oracle with every factor multiplied in
    counts = Counter(float(b) for b in diag if b > 0.0)
    h = 12.0 * max(counts) / intervals

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

    def test_erf_is_one_past_the_cutoff(self):
        assert all(math.erf(x) == 1.0 for x in np.linspace(ERF_IS_ONE, 40.0, 4001).tolist())

    @pytest.mark.parametrize("spec", ["wigner:d=16", "diagonal_decay:d=64", "band:d=16,w=3",
                                      "kronecker_flip:d=64", "bandeira:delta=0.25"])
    def test_shortcuts_keep_every_bit(self, spec):
        p = parse_family_spec(spec)
        low = p.b[np.tril_indices(p.d)]
        assert _diagonal_norm_oracle(low) == _plain_norm_oracle(low)

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
    # the shape of each stack that block_norms hands to the eigensolve
    shapes = []
    original = montecarlo._spectral_norms

    def counting(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(montecarlo, "_spectral_norms", counting)
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
        block_norms(dense_blocks(x, support_blocks(p)))
        assert shapes == [(8, 1, 1), (4, 2, 2), (4, 3, 3)]

    def test_connected_profile_solves_the_stack_itself(self, monkeypatch):
        # one block, X itself: one stacked d x d eigensolve per stream block
        k = _documented_k(6 * 7 // 2)
        shapes = _record_spectral_norm_shapes(monkeypatch)
        estimate(gen_wigner(6), ("norm",), 2 * k + 3, self.SEED)
        assert shapes == [(k, 6, 6), (k, 6, 6), (3, 6, 6)]

    def test_diagonal_decay_256_needs_no_full_eigensolve(self, monkeypatch):
        p = gen_diagonal_decay(256)
        shapes = _record_spectral_norm_shapes(monkeypatch)
        est = estimate(p, ("norm", "rowmax", "entrymax"), 30, self.SEED)
        assert shapes and all(shape[1:] == (1, 1) for shape in shapes)
        # 1 x 1 eigensolves return |X_ii| exactly
        assert est["norm"].to_dict() == {**est["entrymax"].to_dict(), "quantity": "norm"}


def _block_rowmax(parts):
    # The square root of the largest row sum of squares over the (k, m, s, s)
    # block stacks parts, per draw.  Each row is summed from contiguous
    # memory, as numpy sums the rows of the x_blocks stacks; the gathers of
    # conftest.dense_blocks are strided, and numpy sums strided rows in
    # another order.
    squares = [np.ascontiguousarray(part) ** 2 for part in parts]
    return np.sqrt(np.max([np.sum(sq, axis=3).max(axis=(1, 2)) for sq in squares], axis=0))


class TestBlockPathMatchesDense:
    # estimate reads X in its support blocks; the reference reduces the
    # dense sample_X stacks of conftest.dense_x_stacks, with the norm and
    # rowmax from the blocks gathered from the dense stack.
    REPLICATES, SEED = 40, 11
    SPECS = ["wigner:d=64", "band:d=40,w=3", "kronecker_flip:d=16,seed=9",
             "diagonal_decay:d=256", "diagonal_unit:d=9", "block_diagonal",
             "sparse_random:d=48,density=0.05,seed=9", "sparse_random:d=128,density=0.01,seed=4"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_equal_to_dense_reductions(self, spec, block_diagonal_profile):
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        blocks = support_blocks(p)
        values = {"norm": [], "rowmax": [], "entrymax": []}
        for x in dense_x_stacks(p, self.REPLICATES, self.SEED):
            parts = dense_blocks(x, blocks)
            values["norm"].append(block_norms(parts))
            values["rowmax"].append(_block_rowmax(parts))
            values["entrymax"].append(np.max(np.abs(x), axis=(1, 2)))
        est = estimate(p, tuple(values), self.REPLICATES, self.SEED)
        for quantity, stacks in values.items():
            v = np.concatenate(stacks)
            assert (est[quantity].mean, est[quantity].stderr) == (
                float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(self.REPLICATES)))

    def test_rowmax_per_block_on_components_of_sizes_one_to_four(self):
        # rowmax sums each block's own rows.  numpy sums a row of 8 or more
        # entries pairwise, so on d = 12 the dense row sum over the component
        # {0, 4, 5} is x0 + (x4 + x5), while its block sums (x0 + x4) + x5:
        # the two agree to rounding.  That component carries the largest
        # entries, so its rows give rowmax on most draws.
        b = np.zeros((12, 12))
        for idx, size in (([0, 4, 5], 3.0), ([1, 7, 9, 11], 1.0), ([2, 3], 1.0)):
            b[np.ix_(idx, idx)] = size
        for i in (6, 8, 10):
            b[i, i] = 1.0
        p = StdDevProfile(12, b)
        blocks = support_blocks(p)
        assert sorted(idx.shape[1] for idx in blocks) == [1, 2, 3, 4]
        items = x_blocks(p, blocks, 200, self.SEED)
        for stacks, x in zip(items, dense_x_stacks(p, 200, self.SEED), strict=True):
            parts = dense_blocks(x, blocks)
            for block, dense in zip(stacks, parts, strict=True):
                assert np.array_equal(block, dense)
            rowmax = montecarlo.blockwise_max(montecarlo._BLOCK_VALUES["rowmax"], stacks)
            assert np.array_equal(rowmax, _block_rowmax(parts))
            np.testing.assert_allclose(rowmax, np.sqrt(np.max(np.sum(x * x, axis=2), axis=1)),
                                       rtol=1e-14)

    @pytest.mark.parametrize("spec, dense", [("wigner:d=16", True), ("diagonal_decay:d=16", False),
                                             ("block_diagonal", False)])
    def test_dense_x_only_for_one_block(self, monkeypatch, spec, dense, block_diagonal_profile):
        # every profile is gathered per support block, without sample_X; only
        # a connected one has the whole dense X as its one block
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        monkeypatch.setattr(montecarlo, "sample_X",
                            lambda *args: pytest.fail("sample_X called"))
        estimate(p, ("norm", "rowmax", "entrymax"), 10, self.SEED)
        (stacks,) = x_blocks(p, support_blocks(p), 10, self.SEED)
        assert (len(stacks) == 1 and stacks[0].shape[1:] == (1, p.d, p.d)) == dense


# Each generator family at several d, with the two bandeira profiles.
FAMILY_SPECS = [spec.format(d=d) for d in (6, 64, 256) for spec in (
    "wigner:d={d}", "band:d={d},w=3", "diagonal_decay:d={d}", "diagonal_unit:d={d}",
    "sparse_random:d={d}", "kronecker_flip:d={d}")] + ["bandeira:delta=0.25", "bandeira:delta=4"]


class TestXBlocks:
    SEED = 808
    SPECS = ["wigner:d=16", "band:d=16,w=3", "diagonal_decay:d=16", "block_diagonal",
             "sparse_random:d=5,density=0"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_one_shape_for_every_profile(self, spec, block_diagonal_profile):
        # each item is a list with one (k, m, s, s) stack per (m, s) entry of
        # support_blocks, connected profiles included
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        blocks = support_blocks(p)
        k = _documented_k(p.d * (p.d + 1) // 2)
        items = list(x_blocks(p, blocks, 2 * k + 3, self.SEED))
        for item, rows in zip(items, (k, k, 3), strict=True):
            assert isinstance(item, list) and len(item) == len(blocks)
            assert [stack.shape for stack in item] == [(rows, *idx.shape, idx.shape[1])
                                                      for idx in blocks]

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_every_stack_is_exactly_symmetric_and_finite(self, spec):
        # block_norms hands these stacks to the eigensolve unvalidated, for
        # the profile and for its rearrangement (verify_slice_inequality)
        p = parse_family_spec(spec)
        for q in (p, rearrange(p)):
            for item in x_blocks(q, support_blocks(q), 3, self.SEED):
                for stack in item:
                    assert np.isfinite(stack).all()
                    assert np.array_equal(stack, stack.swapaxes(-1, -2))

    def test_largest_valid_profile_gives_finite_stacks(self):
        # entries just inside the sum_ij b_ij^4 guard
        d = 8
        p = StdDevProfile(d, np.full((d, d), 0.99 * (np.finfo(float).max / (2 * d * d)) ** 0.25))
        for item in x_blocks(p, support_blocks(p), 50, self.SEED):
            assert all(np.isfinite(stack).all() for stack in item)
            assert np.isfinite(block_norms(item)).all()


class TestValidatedWhereDataEnters:
    # The estimators draw their X blocks and square their B from a profile
    # that was checked when it was made, so no eigensolve of theirs runs
    # the symmetry and finiteness check again.
    SPECS = ["wigner:d=16", "diagonal_decay:d=64", "kronecker_flip:d=16", "band:d=40,w=3",
             "bandeira:delta=0.25", "sparse_random:d=48,density=0.05,seed=9", "block_diagonal"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_no_symmetry_check_inside_the_estimators(self, monkeypatch, spec,
                                                     block_diagonal_profile):
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        checked = []
        original = linalg._as_symmetric
        monkeypatch.setattr(linalg, "_as_symmetric",
                            lambda a, stack=False: checked.append(np.shape(a)) or original(a, stack))
        estimate(p, PROFILE_QUANTITIES, 20, 3)
        verify_slice_inequality(p, 5, 3)
        compute_bound_report(p, replicates=20, seed=3)
        assert checked == []
        spectral_norm(p.b)  # the public entry point still checks
        assert checked == [p.b.shape]


def _ymax_reference(p, replicates, seed):
    # est_ymax on the validated eigensolve of every B, diagonal or not
    variance = p.variance_matrix
    factor = _clipped_factor(variance, *sym_eig(variance))
    values = (np.max(g @ factor.T, axis=1) for g in
              montecarlo._normal_stacks(factor.shape[1], replicates, seed, YMAX_TAG))
    return montecarlo._reduce(values, replicates, seed, "ymax")


def _refuse(*args, **kwargs):
    raise AssertionError("no eigensolve or draw was expected")


class TestDiagonalYmax:
    # A diagonal B = b^2 is PSD, so B^- = 0 and Y = 0 on every replicate.
    DIAGONAL = {"diagonal_decay:d=256": gen_diagonal_decay(256),
                "diagonal_unit:d=64": gen_diagonal_unit(64),
                "zero": StdDevProfile(8, np.zeros((8, 8))),
                "zero_rows": StdDevProfile(6, np.diag([1.0, 0.0, 2.5, 0.0, 0.0, 1e-3])),
                "underflowing_off_diagonal": StdDevProfile(3, np.array(
                    [[1.0, 1e-200, 0.0], [1e-200, 2.0, 0.0], [0.0, 0.0, 0.5]]))}

    @pytest.mark.parametrize("name", list(DIAGONAL))
    def test_zero_without_an_eigensolve_or_a_draw(self, monkeypatch, name):
        for module, attr in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (montecarlo, "_normal_stacks"), (montecarlo, "RandomStream")):
            monkeypatch.setattr(module, attr, _refuse)
        est = est_ymax(self.DIAGONAL[name], 50, 7)
        assert repr(est.to_dict()) == repr(
            {"quantity": "ymax", "mean": 0.0, "stderr": 0.0, "replicates": 50, "seed": 7})

    @pytest.mark.parametrize("name", list(DIAGONAL))
    def test_equal_to_the_eigensolve_path(self, name):
        p = self.DIAGONAL[name]
        assert repr(est_ymax(p, 50, 7).to_dict()) == repr(_ymax_reference(p, 50, 7).to_dict())

    @pytest.mark.parametrize("spec", ["wigner:d=16", "kronecker_flip:d=16", "band:d=40,w=3",
                                      "bandeira:delta=0.25", "sparse_random:d=64,seed=2"])
    def test_connected_profiles_keep_their_bits(self, spec):
        # B is not diagonal: the unvalidated eigensolve gives the bits of sym_eig
        p = parse_family_spec(spec)
        assert est_ymax(p, 300, 7).to_dict() == _ymax_reference(p, 300, 7).to_dict()

    @pytest.mark.parametrize("name", ["zero", "diagonal_unit:d=64"])
    def test_one_replicate_raises_before_any_work(self, monkeypatch, name):
        p = self.DIAGONAL[name]
        monkeypatch.setattr(StdDevProfile, "variance_matrix", property(_refuse))
        monkeypatch.setattr(montecarlo, "_normal_stacks", _refuse)
        with pytest.raises(ValueError, match="replicates must be >= 2, got 1"):
            est_ymax(p, 1, 7)


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


def _bandeira_oracles(delta, points=65536):
    """E||X|| and E gdot for bandeira:delta, X = [[sqrt(delta) g1, g2], [g2,
    0]]: ||X|| = sqrt(delta) |g1| / 2 + sqrt(delta g1^2 / 4 + g2^2) and gdot =
    max(sqrt(delta g1^2 + g2^2), |g1|).  With (g1, g2) = r (cos, sin), E r =
    sqrt(pi/2), and the means over the angle are periodic trapezoid rules."""
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    radius = math.sqrt(math.pi / 2.0)
    norm = math.sqrt(delta / (2.0 * math.pi)) + radius * np.sqrt(delta * cos2 / 4.0 + sin2).mean()
    gdot = radius * np.maximum(np.sqrt(delta * cos2 + sin2), np.sqrt(cos2)).mean()
    return float(norm), float(gdot)


def _rank_one_ymax_oracle(p):
    """E ymax when B^- = L L^T has one column L: Y = L g, so E max_i Y_i =
    (max L - min L) E g+ = (max L - min L) / sqrt(2 pi)."""
    eigenvalues, eigenvectors = np.linalg.eigh(p.variance_matrix)
    assert np.count_nonzero(eigenvalues < 0) == 1
    factor = math.sqrt(-eigenvalues[0]) * eigenvectors[:, 0]
    return (factor.max() - factor.min()) / math.sqrt(2.0 * math.pi)


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

    # X_ij, i >= j, are independent, so the entrymax oracle holds on every
    # profile and checks the x_blocks gather of each family and d.  Seed 31
    # and R = 2000 were fixed before the first run.
    ENTRYMAX_PROBES = [spec.format(d=d) for d in (16, 64, 256) for spec in (
        "wigner:d={d}", "band:d={d},w=3", "diagonal_decay:d={d}", "sparse_random:d={d}",
        "kronecker_flip:d={d}")] + ["bandeira:delta=0.25", "bandeira:delta=4"]

    @pytest.mark.parametrize("spec", ENTRYMAX_PROBES)
    def test_entrymax_on_every_family(self, spec):
        p = parse_family_spec(spec)
        est = est_entrymax(p, 2000, 31)
        assert abs(est.mean - _entrymax_oracle(p)) <= 5.0 * est.stderr

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
        est = estimate(p, ("norm", "rowmax", "entrymax"), 2000, self.SEED)
        assert abs(est["entrymax"].mean - _entrymax_oracle(p)) <= 5.0 * est["entrymax"].stderr
        assert est["norm"].mean >= est["rowmax"].mean >= est["entrymax"].mean

    @pytest.mark.parametrize("d", [16, 200])
    def test_gdot_on_wigner(self, d):
        # every row of B is all ones, so max_i sqrt(sum_j g_j^2) = ||g||, a chi
        # variable with mean sqrt(2) Gamma((d+1)/2) / Gamma(d/2)
        exact = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
        est = est_gdot(gen_wigner(d), 4000, self.SEED)
        assert abs(est.mean - exact) <= 5.0 * est.stderr

    @pytest.mark.parametrize("spec", ["bandeira:delta=0.25", "kronecker_flip:d=2,seed=1"])
    def test_ymax_when_bminus_has_rank_one(self, spec):
        # B^- = L L^T with one column L, so Y = L g and max_i L_i g equals
        # g max L for g > 0 and |g| (-min L) for g < 0: E = (max L - min L) E g+
        p = parse_family_spec(spec)
        eigenvalues, eigenvectors = np.linalg.eigh(p.variance_matrix)
        assert np.count_nonzero(eigenvalues < 0) == 1
        factor = math.sqrt(-eigenvalues[0]) * eigenvectors[:, 0]
        exact = (factor.max() - factor.min()) / math.sqrt(2.0 * math.pi)
        est = est_ymax(p, 20000, self.SEED)
        assert abs(est.mean - exact) <= 5.0 * est.stderr

    # gen_kronecker_flip(I_32) is b = I_32 kron [[0, 1], [1, 0]]: 32 support
    # blocks [[0, g], [g, 0]], one per edge of a perfect matching, and B^- =
    # I_32 kron [[1, -1], [-1, 1]] / 2, so each estimate is a max of
    # half-normals with an exact mean.
    MATCHING_NORM = _diagonal_norm_oracle([1.0] * 32)
    MATCHING_GDOT = _diagonal_norm_oracle([1.0] * 64)
    MATCHING_YMAX = _diagonal_norm_oracle([math.sqrt(0.5)] * 32)

    def test_matching_oracle_values(self):
        assert (self.MATCHING_NORM, self.MATCHING_GDOT, self.MATCHING_YMAX) == pytest.approx(
            (2.34708, 2.59611, 1.65964), abs=5e-6)
        assert [idx.shape for idx in support_blocks(gen_kronecker_flip(np.eye(32)))] == [(32, 2)]

    def test_norm_on_a_perfect_matching(self):
        # ||X|| of a block is |g|: the max of 32 |N(0, 1)|
        est = est_norm(gen_kronecker_flip(np.eye(32)), 20000, self.SEED)
        assert abs(est.mean - self.MATCHING_NORM) <= 5.0 * est.stderr

    def test_gdot_on_a_perfect_matching(self):
        # row i holds one b = 1, at its partner j: the max of all 64 |g_j|
        est = est_gdot(gen_kronecker_flip(np.eye(32)), 20000, self.SEED)
        assert abs(est.mean - self.MATCHING_GDOT) <= 5.0 * est.stderr

    def test_ymax_on_a_perfect_matching(self):
        # Y is (h, -h) on each block with h ~ N(0, 1/2): the max of 32 |h|
        est = est_ymax(gen_kronecker_flip(np.eye(32)), 20000, self.SEED)
        assert abs(est.mean - self.MATCHING_YMAX) <= 5.0 * est.stderr

    def test_exact_cor_opt_bounds_the_exact_norm(self):
        # cor_opt = 2 sqrt(G (G + Y)) + 2 max b at the exact G and Y, no Monte Carlo
        _, cor_opt = optimize_gamma(self.MATCHING_GDOT, self.MATCHING_YMAX,
                                    max_entry(gen_kronecker_flip(np.eye(32))))
        assert cor_opt == pytest.approx(8.6478, abs=5e-5)
        assert cor_opt >= self.MATCHING_NORM

    def test_explicit_bounds_on_a_perfect_matching(self):
        # With max b = 1, thm41 at gamma = 1 is 2G + Y + 2 and cor_opt is
        # 2 sqrt(G (G + Y)) + 2.  Their stderrs come by the delta method from
        # the independent gdot and ymax stderrs, with weights (2, 1) and
        # ((2G + Y), G) / sqrt(G (G + Y)).
        report = compute_bound_report(gen_kronecker_flip(np.eye(32)), replicates=20000,
                                      seed=self.SEED)
        g, y = self.MATCHING_GDOT, self.MATCHING_YMAX
        root = math.sqrt(g * (g + y))
        exact = {"thm41": (2.0 * g + y + 2.0, 2.0, 1.0),
                 "cor_opt": (optimize_gamma(g, y, 1.0)[1], (2.0 * g + y) / root, g / root)}
        assert [exact[bound][0] for bound in exact] == pytest.approx([8.85186, 8.64782], abs=5e-6)
        s_g, s_y = (report["mc"][q]["stderr"] for q in ("gdot", "ymax"))
        for bound, (value, w_g, w_y) in exact.items():
            stderr = math.hypot(w_g * s_g, w_y * s_y)
            assert abs(report["bounds"][bound] - value) <= 5.0 * stderr, bound

    # bandeira:delta at delta = 1e-3, 0.25, 1 and 4: E||X|| and E gdot.
    BANDEIRA = {1e-3: (0.811002, 1.128449), 0.25: (1.055045, 1.147603),
                1.0: (1.365225, 1.253314), 4.0: (2.051199, 1.932566)}

    def test_bandeira_oracle_values(self):
        for delta, values in self.BANDEIRA.items():
            assert _bandeira_oracles(delta) == pytest.approx(values, abs=5e-7), delta

    @pytest.mark.parametrize("delta", list(BANDEIRA))
    def test_norm_and_gdot_on_bandeira(self, delta):
        p = gen_bandeira(delta)
        norm, gdot = _bandeira_oracles(delta)
        est = est_norm(p, 50000, self.SEED)
        assert abs(est.mean - norm) <= 5.0 * est.stderr
        est = est_gdot(p, 50000, self.SEED)
        assert abs(est.mean - gdot) <= 5.0 * est.stderr

    def test_exact_cor_opt_bounds_the_exact_norm_on_bandeira(self):
        # The paper's example of why the gamma term is needed, over nine
        # decades of delta, no Monte Carlo
        for delta in np.logspace(-6.0, 3.0, 37).tolist():
            p = gen_bandeira(delta)
            norm, gdot = _bandeira_oracles(delta)
            _, cor_opt = optimize_gamma(gdot, _rank_one_ymax_oracle(p), max_entry(p))
            assert cor_opt >= norm, delta

    @pytest.mark.parametrize("delta", list(BANDEIRA))
    def test_explicit_bounds_on_bandeira(self, delta):
        # With max b = max(sqrt(delta), 1), thm41 at gamma = 1 is 2G + Y +
        # 2 max b and cor_opt is 2 sqrt(G (G + Y)) + 2 max b, at the exact G
        # and rank-one Y; the stderr weights are those of the perfect matching.
        p = gen_bandeira(delta)
        report = compute_bound_report(p, replicates=50000, seed=self.SEED)
        _, g = _bandeira_oracles(delta)
        y, bmax = _rank_one_ymax_oracle(p), max(math.sqrt(delta), 1.0)
        root = math.sqrt(g * (g + y))
        exact = {"thm41": (2.0 * g + y + 2.0 * bmax, 2.0, 1.0),
                 "cor_opt": (optimize_gamma(g, y, bmax)[1], (2.0 * g + y) / root, g / root)}
        s_g, s_y = (report["mc"][q]["stderr"] for q in ("gdot", "ymax"))
        for bound, (value, w_g, w_y) in exact.items():
            stderr = math.hypot(w_g * s_g, w_y * s_y)
            assert abs(report["bounds"][bound] - value) <= 5.0 * stderr, bound


class TestReduce:
    # _reduce copies np.mean and np.std(ddof=1) op for op; the lengths sit on
    # both sides of numpy's 8- and 128-element pairwise summation blocks.
    LENGTHS = [2, 7, 8, 9, 127, 128, 129, 1000, 4097]

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_bits_of_numpy_mean_and_std(self, n, scale):
        rng = np.random.default_rng(n)
        for values in (scale * (1.5 + rng.standard_normal(n)), scale * rng.exponential(size=n)):
            expected = (float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(n)))
            for blocks in (1, 2, 3):
                est = montecarlo._reduce(iter(np.array_split(values, blocks)), n, 3, "q")
                assert (est.mean, est.stderr) == expected, blocks

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_estimate_is_refused(self, bad):
        # 1e200 is finite, but its squared deviation overflows the stderr
        values = [np.array([1.0, 2.0]), np.array([bad, 3.0])]
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match="non-finite q estimate"):
                montecarlo._reduce(iter(values), 4, 3, "q")

    def test_to_dict_is_asdict(self):
        est = est_gdot(gen_wigner(3), 10, 4)
        assert list(est.to_dict().items()) == list(asdict(est).items())
