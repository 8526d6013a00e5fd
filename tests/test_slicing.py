import math

import numpy as np
import pytest

from specbounds import montecarlo, slicing
from specbounds.bounds import bvhrect_bound
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
    decompose,
    decomposition_summary,
    lower_tri,
    slice_assembled_bound,
    slice_bands,
    upper_tri,
    verify_slice_inequality,
)


class TestSliceBands:
    def test_hand_table_d16(self):
        assert slice_bands(16).bands == ((1, 4), (5, 16))

    def test_hand_table_d4(self):
        decomposition = slice_bands(4)
        assert decomposition.bands == ((1, 4),)
        assert decomposition.n_slices == 1

    def test_hand_table_d256(self):
        assert slice_bands(256).bands == ((1, 4), (5, 16), (17, 256))

    def test_tiny_dimensions(self):
        assert slice_bands(1).bands == ((1, 1),)
        assert slice_bands(5).bands == ((1, 4), (5, 5))

    def test_matches_ceil_log_log(self):
        for d in (5, 16, 17, 100, 256, 257, 4999):
            expected = math.ceil(math.log2(math.log2(d)))
            assert slice_bands(d).n_slices == expected

    def test_partition_up_to_5000(self):
        for d in range(1, 5001):
            bands = slice_bands(d).bands
            covered = []
            for lo, hi in bands:
                assert lo <= hi
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, d + 1))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            slice_bands(0)


class TestTriangularParts:
    def test_diagonal_unchanged_by_lower(self):
        a = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(lower_tri(a), a)

    def test_partition(self):
        a = np.random.default_rng(0).standard_normal((5, 5))
        np.testing.assert_array_equal(lower_tri(a) + upper_tri(a), a)

    def test_all_ones_2x2(self):
        np.testing.assert_array_equal(lower_tri(np.ones((2, 2))), [[1, 0], [1, 1]])


class TestDecompose:
    def test_profiles_cover_lower_triangle(self):
        p = random_profile(20, seed=1)
        decomposition = decompose(p)
        stacked = np.vstack(decomposition.slice_profiles)
        np.testing.assert_array_equal(stacked, lower_tri(rearrange(p).bstar))

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
            decomposition = decompose(p)
            for (lo, _), profile in zip(
                decomposition.bands[1:], decomposition.slice_profiles[1:]
            ):
                cap = gamma / math.sqrt(math.log(lo - 1))
                assert np.all(profile <= cap * (1.0 + 1e-12))


class TestAssembledBound:
    def test_zero_profile(self):
        assert slice_assembled_bound(StdDevProfile(6, np.zeros((6, 6)))) == 0.0

    def test_small_dimension_single_slice(self):
        p = random_profile(3, seed=7)
        expected = 2.0 * bvhrect_bound(lower_tri(rearrange(p).bstar))
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
