import math

import numpy as np
import pytest

from specbounds import montecarlo, slicing
from specbounds.generators import (
    gen_band,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_sparse_random,
    gen_wigner,
    random_profile,
)
from specbounds.montecarlo import est_norm
from specbounds.profile import StdDevProfile, gamma_star, rearrange
from specbounds.slicing import (
    bvhrect_bound,
    decompose,
    decomposition_summary,
    slice_assembled_bound,
    slice_bands,
    verify_slice_inequality,
)


class TestSliceBands:
    def test_hand_table_d16(self):
        assert slice_bands(16) == ((1, 4), (5, 16))

    def test_hand_table_d4(self):
        bands = slice_bands(4)
        assert bands == ((1, 4),)
        assert len(bands) == 1

    def test_hand_table_d256(self):
        assert slice_bands(256) == ((1, 4), (5, 16), (17, 256))

    def test_tiny_dimensions(self):
        assert slice_bands(1) == ((1, 1),)
        assert slice_bands(5) == ((1, 4), (5, 5))

    def test_matches_ceil_log_log(self):
        for d in (5, 16, 17, 100, 256, 257, 4999):
            expected = math.ceil(math.log2(math.log2(d)))
            assert len(slice_bands(d)) == expected

    def test_partition_up_to_5000(self):
        for d in range(1, 5001):
            bands = slice_bands(d)
            covered = []
            for lo, hi in bands:
                assert lo <= hi
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, d + 1))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            slice_bands(0)


class TestDecompose:
    def test_profiles_cover_lower_triangle(self):
        p = random_profile(20, seed=1)
        stacked = np.vstack(decompose(p))
        np.testing.assert_array_equal(stacked, np.tril(rearrange(p).b))

    def test_entry_cap_per_slice(self):
        # on the rearranged profile every entry of slice n >= 2 obeys
        # b <= Gamma / sqrt(ln(band start - 1))
        for p in (
            gen_wigner(40),
            gen_diagonal_decay(300),
            gen_sparse_random(70, 0.4, 3),
            random_profile(90, seed=5),
        ):
            gamma = gamma_star(p, offset=0)
            for (lo, _), profile in zip(slice_bands(p.d)[1:], decompose(p)[1:]):
                cap = gamma / math.sqrt(math.log(lo - 1))
                assert np.all(profile <= cap * (1.0 + 1e-12))


class TestAssembledBound:
    def test_zero_profile(self):
        assert slice_assembled_bound(StdDevProfile(6, np.zeros((6, 6)))) == 0.0

    def test_small_dimension_single_slice(self):
        p = random_profile(3, seed=7)
        expected = 2.0 * bvhrect_bound(np.tril(rearrange(p).b))
        assert slice_assembled_bound(p) == pytest.approx(expected, rel=1e-12)

    def test_wigner_16_formula_evaluation(self):
        # slice 2 (rows 5..16) dominates: 12 x 16 effective block of the
        # lower triangle with row norm 4, column norm sqrt(12)
        expected = 2.0 * math.sqrt(2.0) * (
            4.0 + math.sqrt(12.0) + math.sqrt(math.log(12.0))
        )
        assert slice_assembled_bound(gen_wigner(16)) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_rows_shrink_log_term(self):
        # a diagonal profile's slices are effectively n x n after trimming
        p = gen_diagonal_unit(16)
        summary = decomposition_summary(p)
        assert summary["slices"][1]["effective_shape"] == [12, 12]

    def test_zero_row_of_a_slice_is_trimmed(self):
        # ones on the leading 6 x 6 block, row and column 7 zero: slice 2
        # (rows 5..7) trims to 2 x 6, so its log term is sqrt(ln 2), not sqrt(ln 3)
        b = np.zeros((7, 7))
        b[:6, :6] = 1.0
        second = decomposition_summary(StdDevProfile(7, b))["slices"][1]
        assert second["effective_shape"] == [2, 6]
        assert second["bvhrect"] == math.sqrt(6.0) + math.sqrt(2.0) + math.sqrt(math.log(2.0))

    def test_sound_for_generated_families(self):
        for p in (
            gen_wigner(24),
            gen_diagonal_unit(24),
            gen_diagonal_decay(24),
            gen_band(24, 3),
            gen_sparse_random(24, 0.3, 1),
        ):
            est = est_norm(p, 100, 17)
            assert slice_assembled_bound(p) >= est.mean - 4.0 * est.stderr


class TestVerifySliceInequality:
    def test_holds_on_wigner(self):
        outcome = verify_slice_inequality(gen_wigner(32), 20, 3)
        assert outcome["holds"]
        assert outcome["max_ratio"] <= 1.0 + 1e-9

    def test_diagonal_ratio_exactly_one(self):
        outcome = verify_slice_inequality(gen_diagonal_decay(64), 10, 5)
        assert outcome["holds"]
        assert outcome["ratio_slice_min"] == 1.0
        assert outcome["ratio_slice_max"] == 1.0

    def test_zero_profile_vacuous(self):
        outcome = verify_slice_inequality(StdDevProfile(8, np.zeros((8, 8))), 5, 0)
        assert outcome["holds"]
        assert outcome["max_ratio"] == 1.0

    def test_records_run_parameters(self):
        outcome = verify_slice_inequality(gen_wigner(8), 4, 9)
        assert outcome["replicates"] == 4 and outcome["seed"] == 9

    def test_bad_replicates(self):
        with pytest.raises(ValueError):
            verify_slice_inequality(gen_wigner(4), 0, 0)

    def test_holds_on_block_diagonal_profile(self, block_diagonal_profile):
        assert verify_slice_inequality(block_diagonal_profile, 50, 4)["holds"]

    def test_full_norm_from_block_eigensolves(self, monkeypatch):
        # ||X|| of a diagonal X: one stacked 1 x 1 eigensolve per stack and
        # no singular values of the full matrix; Xlow and Xup keep theirs
        replicates = 5
        eig_shapes, svd_shapes = [], []
        for module, name, shapes in ((montecarlo, "spectral_norm", eig_shapes),
                                     (slicing, "operator_norm", svd_shapes)):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, f=original, s=shapes:
                                s.append(np.shape(a)) or f(a))
        outcome = verify_slice_inequality(gen_diagonal_decay(256), replicates, 7)
        assert outcome["holds"]
        assert eig_shapes == [(256, 1, 1)] * replicates
        assert svd_shapes.count((256, 256)) == 2 * replicates

    @staticmethod
    def _assert_fails_with_finite_ratios(outcome):
        assert outcome["holds"] is False
        ratios = [outcome[k] for k in ("max_ratio", "ratio_slice_min", "ratio_slice_max")]
        assert all(math.isfinite(r) for r in ratios)

    def test_fails_when_low_norm_exceeds_slice_sum(self, monkeypatch):
        # At d = 16 the slices are 4 x 16 and 12 x 16, while Xlow and Xup are
        # square: faked slice norms of 1 (nonzero) and triangular norms of 10
        # give ||Xlow||^2 = 100 > 2 = sum_n ||X^(n)||^2.
        monkeypatch.setattr(slicing, "operator_norm",
                            lambda a: 10.0 if a.shape[0] == a.shape[1] else 1.0)
        self._assert_fails_with_finite_ratios(verify_slice_inequality(gen_wigner(16), 4, 2))

    def test_fails_when_full_norm_exceeds_split_sum(self, monkeypatch):
        monkeypatch.setattr(slicing, "block_norms", lambda stack, blocks: np.full(len(stack), 1e6))
        self._assert_fails_with_finite_ratios(verify_slice_inequality(gen_wigner(16), 4, 2))


class TestSummary:
    def test_structure(self):
        summary = decomposition_summary(gen_wigner(16))
        assert summary["n_slices"] == 2
        assert summary["bands"] == [[1, 4], [5, 16]]
        assert len(summary["slices"]) == 2
        assert summary["assembled_bound"] == pytest.approx(
            slice_assembled_bound(gen_wigner(16))
        )
        for entry in summary["slices"]:
            assert entry["bvhrect"] > 0.0
