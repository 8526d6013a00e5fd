import math

import numpy as np
import pytest

from specbounds.generators import (
    gen_diagonal_unit,
    gen_wigner,
    parse_family_spec,
    random_profile,
)
from specbounds.profile import (
    StdDevProfile,
    gamma_star,
    load_profile,
    max_entry,
    rearrange,
    row_l4_max_term,
    sigma,
    support_blocks,
)


class TestLoadProfile:
    def test_csv_identity(self):
        p = load_profile("1,0\n0,1", format="csv")
        assert p.d == 2
        np.testing.assert_array_equal(p.b, np.eye(2))

    def test_csv_off_diagonal(self):
        p = load_profile("0,1\n1,0", format="csv")
        np.testing.assert_array_equal(p.b, [[0, 1], [1, 0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            load_profile("1,2\n3,4", format="csv")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            load_profile("1,0,0\n0,1,0", format="csv")

    @pytest.mark.parametrize("bad", ["-1,0\n0,1", "nan,0\n0,1", "inf,0\n0,1"])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            load_profile(bad, format="csv")

    def test_json_roundtrip(self):
        p = load_profile('{"d": 2, "b": [[1.5, 0.5], [0.5, 0.0]]}', format="json")
        assert p.d == 2
        assert p.b[0, 1] == 0.5

    def test_json_dimension_mismatch(self):
        with pytest.raises(ValueError, match="d=3"):
            load_profile('{"d": 3, "b": [[1, 0], [0, 1]]}', format="json")

    @pytest.mark.parametrize(
        "bad", ['{"d": 2}', "[[1, 0], [0, 1]]", '{"b": {"x": 1}}']
    )
    def test_malformed_json_rejected(self, bad):
        with pytest.raises(ValueError, match="'b'"):
            load_profile(bad, format="json")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            load_profile("1", format="tsv")


class TestValidation:
    def test_d_mismatch(self):
        with pytest.raises(ValueError, match="declared"):
            StdDevProfile(d=3, b=np.eye(2))

    def test_immutable(self):
        p = gen_wigner(3)
        with pytest.raises(ValueError):
            p.b[0, 0] = 2.0

    def test_d_zero_rejected(self):
        with pytest.raises(ValueError):
            StdDevProfile(d=0, b=np.zeros((0, 0)))


class TestSigma:
    def test_wigner_16(self):
        assert sigma(gen_wigner(16)) == 4.0

    def test_identity_d3(self):
        assert sigma(gen_diagonal_unit(3)) == 1.0

    def test_flip(self):
        assert sigma(StdDevProfile(2, np.array([[0.0, 1.0], [1.0, 0.0]]))) == 1.0


class TestRearrange:
    def test_perm_from_row_maxes(self):
        # row maxes (0.5, 2, 1) -> rows ordered as original indices 1, 2, 0
        b = np.diag([0.5, 2.0, 1.0])
        r = rearrange(StdDevProfile(3, b))
        np.testing.assert_array_equal(r.perm, [1, 2, 0])

    def test_already_sorted_gives_identity(self):
        b = np.diag([3.0, 2.0, 1.0])
        r = rearrange(StdDevProfile(3, b))
        np.testing.assert_array_equal(r.perm, [0, 1, 2])

    def test_tie_break_is_identity(self):
        r = rearrange(gen_wigner(4))
        np.testing.assert_array_equal(r.perm, [0, 1, 2, 3])

    def test_invariants_on_random_corpus(self):
        for seed in range(20):
            p = random_profile(7, seed=seed)
            r = rearrange(p)
            row_max = np.max(r.bstar, axis=1)
            assert np.all(np.diff(row_max) <= 0)
            np.testing.assert_array_equal(r.bstar, r.bstar.T)
            assert sorted(r.bstar.ravel()) == sorted(p.b.ravel())
            np.testing.assert_array_equal(
                r.bstar, p.b[np.ix_(r.perm, r.perm)]
            )

    def test_idempotent(self):
        for seed in range(10):
            p = random_profile(6, seed=seed)
            once = rearrange(p)
            again = rearrange(StdDevProfile(p.d, once.bstar))
            np.testing.assert_array_equal(again.perm, np.arange(p.d))

    def test_sigma_permutation_invariant(self):
        for seed in range(10):
            p = random_profile(9, seed=seed)
            r = rearrange(p)
            assert sigma(p) == pytest.approx(sigma(StdDevProfile(p.d, r.bstar)), rel=1e-15)


class TestGammaStar:
    def test_identity_d3_offset0(self):
        assert gamma_star(gen_diagonal_unit(3), 0) == pytest.approx(
            math.sqrt(math.log(3)), rel=1e-12
        )

    def test_d1_offset0_is_zero(self):
        assert gamma_star(gen_diagonal_unit(1), 0) == 0.0

    def test_d1_offset1(self):
        assert gamma_star(gen_diagonal_unit(1), 1) == pytest.approx(
            math.sqrt(math.log(2)), rel=1e-12
        )

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            gamma_star(gen_diagonal_unit(2), 2)


class TestRowL4MaxTerm:
    def test_wigner_16(self):
        # every row has fourth moment 16, so the max over i of
        # 2 * sqrt(ln(i+1)) sits at i = d
        assert row_l4_max_term(gen_wigner(16), 1) == pytest.approx(
            2.0 * math.sqrt(math.log(17)), rel=1e-12
        )

    def test_zero_profile(self):
        assert row_l4_max_term(StdDevProfile(3, np.zeros((3, 3))), 1) == 0.0

    def test_identity_d2(self):
        # both rows have fourth moment 1; max at i = 2
        assert row_l4_max_term(gen_diagonal_unit(2), 1) == pytest.approx(
            math.sqrt(math.log(3)), rel=1e-12
        )


class TestSortedFourthMoments:
    def test_partial_sums_dominate(self):
        # with rows sorted by fourth moment, row i holds at most 1/i of the
        # total fourth-moment mass
        for seed in range(20):
            p = random_profile(8, seed=seed)
            l4 = np.sort(np.sum(p.b ** 4, axis=1))[::-1]
            total = np.sum(l4)
            for i, value in enumerate(l4, start=1):
                assert value <= total / i + 1e-12 * total


class TestDigest:
    def test_digest_is_stable_and_content_keyed(self):
        assert gen_wigner(4).digest() == gen_wigner(4).digest()
        assert gen_wigner(4).digest() != gen_diagonal_unit(4).digest()


class TestSupportBlocks:
    @pytest.mark.parametrize("spec", [
        "wigner:d=9", "band:d=40,w=2", "band:d=40,w=5",
        # B' kron [[0, 1], [1, 0]]: bipartite support, still connected
        "kronecker_flip:d=12,seed=3",
    ])
    def test_connected_profiles_are_one_block(self, spec):
        p = parse_family_spec(spec)
        blocks = support_blocks(p)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], [np.arange(p.d)])

    @pytest.mark.parametrize("spec", ["diagonal_unit:d=5", "diagonal_decay:d=256"])
    def test_diagonal_profiles_are_singletons(self, spec):
        p = parse_family_spec(spec)
        blocks = support_blocks(p)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], np.arange(p.d)[:, None])

    def test_block_diagonal_with_zero_row(self, block_diagonal_profile):
        blocks = support_blocks(block_diagonal_profile)
        assert [b.tolist() for b in blocks] == [[[2], [4]], [[1, 6]], [[0, 3, 5]]]

    def test_permuted_chain_is_one_block(self):
        # a path 0 - 5 - 2 - 7 - 1 with the other indices isolated; the
        # breadth-first search must follow it across several frontiers
        b = np.zeros((8, 8))
        path = [0, 5, 2, 7, 1]
        for i, j in zip(path, path[1:]):
            b[i, j] = b[j, i] = 1.0
        blocks = support_blocks(StdDevProfile(8, b))
        assert [b.tolist() for b in blocks] == [[[3], [4], [6]], [[0, 1, 2, 5, 7]]]

    def test_zero_profile_is_all_singletons(self):
        blocks = support_blocks(StdDevProfile(3, np.zeros((3, 3))))
        assert [b.tolist() for b in blocks] == [[[0], [1], [2]]]

    def test_blocks_partition_the_indices(self):
        for seed in range(20):
            p = random_profile(12, seed=seed, density=0.15)
            blocks = support_blocks(p)
            members = np.sort(np.concatenate([b.ravel() for b in blocks]))
            np.testing.assert_array_equal(members, np.arange(12))
            # no support between different components
            label = np.empty(12, dtype=int)
            for n, idx in enumerate(row for b in blocks for row in b):
                label[idx] = n
            i, j = np.nonzero(p.b)
            assert np.all(label[i] == label[j])
            # and each component is connected: (I + A)^s reaches every pair
            for idx in (row for b in blocks for row in b):
                step = np.eye(len(idx)) + (p.b[np.ix_(idx, idx)] != 0)
                assert np.all(np.linalg.matrix_power(step, len(idx)) > 0)
