import math

import numpy as np
import pytest

from specbounds.generators import (
    FAMILY_NAMES,
    gen_band,
    gen_bandeira,
    gen_diagonal_decay,
    gen_diagonal_unit,
    gen_kronecker_flip,
    gen_sparse_random,
    gen_wigner,
    make_family,
    parse_family_spec,
    random_profile,
    random_psd_nonneg,
)
from specbounds.profile import StdDevProfile, sigma


class TestWigner:
    def test_d2(self):
        np.testing.assert_array_equal(gen_wigner(2).b, np.ones((2, 2)))

    def test_d1(self):
        np.testing.assert_array_equal(gen_wigner(1).b, [[1.0]])

    def test_sigma_sqrt_d(self):
        assert sigma(gen_wigner(16)) == 4.0

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            gen_wigner(0)


class TestDiagonalDecay:
    def test_d1(self):
        assert gen_diagonal_decay(1).b[0, 0] == pytest.approx(
            1.0 / math.sqrt(math.log(2)), rel=1e-12
        )

    def test_d3_last_entry(self):
        assert gen_diagonal_decay(3).b[2, 2] == pytest.approx(
            1.0 / math.sqrt(math.log(4)), rel=1e-12
        )

    def test_off_diagonal_zero(self):
        b = gen_diagonal_decay(5).b
        assert np.all(b[~np.eye(5, dtype=bool)] == 0.0)


class TestBandeira:
    def test_delta_one(self):
        np.testing.assert_array_equal(gen_bandeira(1.0).b, [[1, 1], [1, 0]])

    def test_delta_small(self):
        np.testing.assert_allclose(gen_bandeira(0.01).b, [[0.1, 1], [1, 0]], rtol=1e-15)

    def test_squaring_recovers_variance_matrix(self):
        delta = 0.37
        np.testing.assert_allclose(
            gen_bandeira(delta).b ** 2, [[delta, 1], [1, 0]], rtol=1e-15
        )

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_nonpositive_delta(self, delta):
        with pytest.raises(ValueError):
            gen_bandeira(delta)


class TestKroneckerFlip:
    def test_scalar_bprime(self):
        np.testing.assert_array_equal(
            gen_kronecker_flip(np.array([[1.0]])).b, [[0, 1], [1, 0]]
        )

    def test_two_by_two_bprime(self):
        p = gen_kronecker_flip(np.array([[1.0, 1.0], [1.0, 1.0]]))
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(p.b ** 2, np.kron(np.ones((2, 2)), flip), atol=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gen_kronecker_flip(np.array([[2.0, -1.0], [-1.0, 2.0]]))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            gen_kronecker_flip(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_random_psd_inputs_validate(self):
        for seed in range(5):
            p = gen_kronecker_flip(random_psd_nonneg(4, seed))
            assert p.d == 8
            np.testing.assert_array_equal(p.b, p.b.T)


class TestBandAndSparse:
    def test_band_width_one_is_diagonal(self):
        np.testing.assert_array_equal(gen_band(4, 1).b, np.eye(4))

    def test_band_full_width_is_ones(self):
        np.testing.assert_array_equal(gen_band(3, 3).b, np.ones((3, 3)))

    def test_band_width_two(self):
        b = gen_band(4, 2).b
        assert b[0, 1] == 1.0 and b[0, 2] == 0.0

    @pytest.mark.parametrize("w", [0, 5])
    def test_band_width_out_of_range(self, w):
        with pytest.raises(ValueError):
            gen_band(4, w)

    def test_sparse_density_zero(self):
        np.testing.assert_array_equal(gen_sparse_random(8, 0.0, 3).b, np.zeros((8, 8)))

    def test_sparse_density_one(self):
        np.testing.assert_array_equal(gen_sparse_random(5, 1.0, 3).b, np.ones((5, 5)))

    def test_sparse_pure_in_seed(self):
        a = gen_sparse_random(12, 0.3, 42)
        b = gen_sparse_random(12, 0.3, 42)
        np.testing.assert_array_equal(a.b, b.b)
        c = gen_sparse_random(12, 0.3, 43)
        assert not np.array_equal(a.b, c.b)

    def test_sparse_bad_density(self):
        with pytest.raises(ValueError):
            gen_sparse_random(4, 1.5, 0)


class TestFamilySpecs:
    def test_every_family_validates(self):
        specs = {
            "wigner": {"d": 6},
            "diagonal_unit": {"d": 6},
            "diagonal_decay": {"d": 6},
            "band": {"d": 6, "w": 2},
            "bandeira": {"delta": 0.5},
            "kronecker_flip": {"d": 6, "seed": 1},
            "sparse_random": {"d": 6, "density": 0.4, "seed": 1},
        }
        assert set(specs) == set(FAMILY_NAMES)
        for name, params in specs.items():
            p = make_family(name, params)
            assert isinstance(p, StdDevProfile)

    def test_parse_micro_syntax(self):
        p = parse_family_spec("wigner:d=16")
        assert p.d == 16 and np.all(p.b == 1.0)

    def test_parse_band(self):
        assert parse_family_spec("band:d=8,w=3").d == 8

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family_spec("wishart:d=4")

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            parse_family_spec("band:d=8")

    def test_bad_parameter_syntax(self):
        with pytest.raises(ValueError, match="bad family parameter"):
            parse_family_spec("wigner:d16")
        with pytest.raises(ValueError, match="repeated family parameter 'd' in 'wigner:d=4,d=8'"):
            parse_family_spec("wigner:d=4,d=8")

    @pytest.mark.parametrize(
        "spec", ["wigner:d=inf", "band:d=8,w=nan", "sparse_random:d=4,seed=inf",
                 "kronecker_flip:d=4,seed=1.5"]
    )
    def test_non_integer_parameter(self, spec):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_family_spec(spec)

    @pytest.mark.parametrize("name", ["kronecker_flip", "sparse_random"])
    def test_negative_seed_names_family(self, name):
        with pytest.raises(ValueError, match=f"family '{name}' needs seed >= 0"):
            make_family(name, {"d": 4, "seed": -1})

    def test_kronecker_odd_d(self):
        with pytest.raises(ValueError, match="even"):
            parse_family_spec("kronecker_flip:d=7")


class TestStressHelpers:
    def test_random_profile_validates_and_is_pure(self):
        a = random_profile(9, seed=4, density=0.5)
        b = random_profile(9, seed=4, density=0.5)
        np.testing.assert_array_equal(a.b, b.b)

    def test_random_psd_nonneg_is_psd(self):
        m = random_psd_nonneg(8, 0)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
        assert np.all(m >= 0)
