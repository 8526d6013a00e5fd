import math

import numpy as np
import pytest

from specbounds.generators import gen_diagonal_unit, gen_wigner, random_profile
from specbounds.profile import (
    StdDevProfile,
    gamma_star,
    load_profile,
    max_entry,
    rearrange,
    row_l4_max_term,
    sigma,
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
