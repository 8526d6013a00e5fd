import math

import numpy as np
import pytest
from conftest import dense_blocks, dense_x_stacks

from specbounds import montecarlo, slicing
from specbounds.generators import (
    gen_band,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_sparse_random,
    gen_wigner,
    parse_family_spec,
    random_profile,
)
from specbounds.linalg import operator_norm
from specbounds.montecarlo import est_norm
from specbounds.profile import StdDevProfile, gamma_star, rearrange, support_blocks
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
        # ||X|| of a diagonal X: one stacked 1 x 1 eigensolve per stack; the
        # triangular and slice norms are singular values of 1 x 1 blocks
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
        assert svd_shapes and all(shape[-2:] == (1, 1) for shape in svd_shapes)

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
                            lambda a: np.full(len(a), 10.0 if a.shape[-2] == a.shape[-1] else 1.0))
        self._assert_fails_with_finite_ratios(verify_slice_inequality(gen_wigner(16), 4, 2))

    def test_upper_triangle_leaves_out_the_diagonal(self, monkeypatch):
        # X of a diagonal profile is its diagonal, so the strict upper
        # triangle is zero.  The one x_blocks item of 5 replicates passes
        # operator_norm Xlow, then Xup, then the two bands of d = 8.
        seen = []
        monkeypatch.setattr(slicing, "operator_norm", lambda a: seen.append(a.copy())
                            or operator_norm(a))
        assert verify_slice_inequality(gen_diagonal_unit(8), 5, 3)["holds"]
        assert len(seen) == 4
        low, up = seen[:2]
        assert np.any(low) and not np.any(up)

    def test_fails_when_full_norm_exceeds_split_sum(self, monkeypatch):
        monkeypatch.setattr(slicing, "block_norms", lambda stacks: np.full(len(stacks[0]), 1e6))
        self._assert_fails_with_finite_ratios(verify_slice_inequality(gen_wigner(16), 4, 2))


def _dense_slice_reference(p, replicates, seed):
    """verify_slice_inequality as a loop over whole matrices: the triangular
    and slice norms are singular values of d-column matrices, one replicate
    at a time."""
    bands = slice_bands(p.d)
    pstar = rearrange(p)
    blocks = support_blocks(pstar)
    rows = []
    for stack in dense_x_stacks(pstar, replicates, seed):
        for x, full in zip(stack, montecarlo.block_norms(dense_blocks(stack, blocks))):
            xlow = np.tril(x)
            slice_norms_sq = [operator_norm(xlow[lo - 1 : hi, :]) ** 2 for lo, hi in bands]
            low = operator_norm(xlow)
            low_sq = low ** 2
            total = sum(slice_norms_sq)
            split_sum = operator_norm(np.triu(x, 1)) + low
            fails = (low_sq > total + 1e-9 * (1.0 + total)
                     or full > split_sum + 1e-9 * (1.0 + split_sum))
            rows.append((not fails, slicing._ratio(low_sq, total),
                         slicing._ratio(low_sq, max(slice_norms_sq))))
    holds, ratio_sum, ratio_slice = zip(*rows)
    return {
        "holds": all(holds),
        "max_ratio": max(ratio_sum),
        "ratio_slice_min": min(ratio_slice),
        "ratio_slice_max": max(ratio_slice),
        "replicates": replicates,
        "seed": seed,
    }


class TestBlockPathMatchesDense:
    REPLICATES, SEED = 8, 5

    @pytest.mark.parametrize("spec", ["wigner:d=64", "band:d=40,w=3",
                                      "kronecker_flip:d=16,seed=9",
                                      "diagonal_decay:d=256", "diagonal_unit:d=9"])
    def test_one_block_or_blocks_of_one_are_bit_identical(self, spec):
        p = parse_family_spec(spec)
        assert (verify_slice_inequality(p, self.REPLICATES, self.SEED)
                == _dense_slice_reference(p, self.REPLICATES, self.SEED))

    @pytest.mark.parametrize("spec", ["block_diagonal", "sparse_random:d=48,density=0.05,seed=9"])
    def test_several_blocks_agree_to_rounding(self, spec, block_diagonal_profile):
        p = block_diagonal_profile if spec == "block_diagonal" else parse_family_spec(spec)
        sizes = [idx.shape[1] for idx in support_blocks(rearrange(p)) for _ in idx]
        assert len(sizes) > 1 and max(sizes) >= 2
        block = verify_slice_inequality(p, self.REPLICATES, self.SEED)
        dense = _dense_slice_reference(p, self.REPLICATES, self.SEED)
        assert block["holds"] == dense["holds"]
        for key in ("max_ratio", "ratio_slice_min", "ratio_slice_max"):
            assert block[key] == pytest.approx(dense[key], rel=1e-12, abs=0.0)


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
