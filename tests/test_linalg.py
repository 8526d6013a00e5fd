import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbounds import linalg
from specbounds.generators import random_psd_nonneg, random_symmetric
from specbounds.linalg import (
    operator_norm,
    psd_split,
    spectral_norm,
    split_invariant_violations,
    sym_eig,
)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestSymEig:
    def test_flip_matrix(self):
        values, vectors = sym_eig(FLIP)
        np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(FLIP @ vectors, vectors * values, atol=1e-14)

    def test_identity(self):
        values, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0])

    def test_already_diagonal(self):
        values, _ = sym_eig(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(values, [2.0, -3.0])

    def test_descending_and_reconstruction(self):
        for seed in range(25):
            a = random_symmetric(int(3 + seed % 10), seed=seed)
            values, vectors = sym_eig(a)
            assert np.all(np.diff(values) <= 0)
            fro = np.linalg.norm(a, "fro")
            recon = vectors @ np.diag(values) @ vectors.T
            assert np.linalg.norm(a - recon, "fro") <= 1e-10 * (1 + fro)
            ortho = vectors.T @ vectors - np.eye(a.shape[0])
            assert np.linalg.norm(ortho, "fro") <= 1e-10 * a.shape[0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPsdSplit:
    def test_flip_negative_part(self):
        split = psd_split(FLIP)
        np.testing.assert_allclose(split.bminus, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        np.testing.assert_allclose(split.bplus, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_psd_input_has_zero_negative_part(self):
        b = random_psd_nonneg(6, 0)
        split = psd_split(b)
        np.testing.assert_allclose(split.bminus, 0.0, atol=1e-12)
        assert split.factor_l.shape == (6, 0)

    def test_kronecker_flip_identity(self):
        # B = B' kron flip with B' PSD has negative part
        # B' kron (1/2) [[1,-1],[-1,1]]
        bprime = random_psd_nonneg(3, 7)
        split = psd_split(np.kron(bprime, FLIP))
        expected = np.kron(bprime, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.linalg.norm(split.bminus - expected, "fro") <= 1e-8

    def test_negation_swaps_parts(self):
        for seed in range(10):
            a = random_symmetric(8, seed=seed)
            split = psd_split(a)
            negated = psd_split(-a)
            np.testing.assert_allclose(negated.bplus, split.bminus, atol=1e-10)
            np.testing.assert_allclose(negated.bminus, split.bplus, atol=1e-10)

    def test_invariants_on_random_corpus(self):
        for seed in range(50):
            a = random_symmetric(2 + seed % 31, seed=seed)
            assert split_invariant_violations(a, psd_split(a)) == []

    def test_factor_reconstructs_bminus(self):
        a = random_symmetric(12, seed=5)
        split = psd_split(a)
        np.testing.assert_allclose(
            split.factor_l @ split.factor_l.T, split.bminus, atol=1e-10
        )


class TestSpectralNorm:
    def test_flip(self):
        assert spectral_norm(FLIP) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-12)

    def test_all_ones_rank_one(self):
        assert spectral_norm(np.ones((4, 4))) == pytest.approx(4.0, rel=1e-12)

    def test_matches_dense_eigensolve_small(self):
        for seed in range(40):
            a = random_symmetric(2 + seed % 31, seed=seed)
            expected = np.max(np.abs(sym_eig(a)[0]))
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-8)

    def test_matches_dense_eigensolve_large(self):
        # exercises the iterative path (d > 64) and its fallback
        for seed in range(8):
            d = 80 + 20 * seed
            a = random_symmetric(d, seed=seed)
            expected = np.max(np.abs(np.linalg.eigvalsh(a)))
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-8)

    def test_large_with_gap(self):
        # well-separated top eigenvalue: the power path converges on its own
        rng = np.random.default_rng(3)
        u = rng.standard_normal(100)
        u /= np.linalg.norm(u)
        a = random_symmetric(100, seed=1) + 500.0 * np.outer(u, u)
        expected = np.max(np.abs(np.linalg.eigvalsh(a)))
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-9)

    def test_zero_matrix_large(self):
        assert spectral_norm(np.zeros((100, 100))) == 0.0

    def test_stack_matches_each_matrix(self):
        stack = np.stack([random_symmetric(7, seed=seed) for seed in range(5)])
        norms = spectral_norm(stack)
        assert norms.shape == (5,)
        np.testing.assert_array_equal(norms, [spectral_norm(a) for a in stack])

    def test_stack_symmetry_checked(self):
        stack = np.stack([np.eye(3), np.triu(np.ones((3, 3)))])
        with pytest.raises(ValueError, match="not symmetric"):
            spectral_norm(stack)

    def test_sym_eig_rejects_stack(self):
        with pytest.raises(ValueError, match="square matrix"):
            sym_eig(np.stack([np.eye(3)] * 2))


class TestOperatorNorm:
    def test_rectangular(self):
        a = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert operator_norm(a) == pytest.approx(4.0, rel=1e-12)

    def test_zero(self):
        assert operator_norm(np.zeros((3, 5))) == 0.0

    def test_matches_spectral_norm_on_symmetric(self):
        for seed in range(10):
            a = random_symmetric(9, seed=seed)
            assert operator_norm(a) == pytest.approx(spectral_norm(a), rel=1e-10)


def _allclose_rule(a):
    # The symmetry rule before the one-pass check.  On NaN input its atol is
    # NaN, which numpy rejects with a RuntimeWarning before answering False.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        atol = 1e-12 * (1.0 + np.abs(a).max())
        return np.allclose(a, a.swapaxes(-1, -2), rtol=0, atol=atol)


def _accepted(a):
    try:
        linalg._as_symmetric(a, stack=True)
    except ValueError:
        return False
    return True


@st.composite
def near_symmetric_stacks(draw):
    """Finite (k, d, d) stacks, d <= 8: exactly symmetric, then one
    off-diagonal entry moved by a multiple of the tolerance near 1, and
    sometimes a NaN entry."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))
    entries = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)
    a = np.array(draw(st.lists(entries, min_size=k * d * d, max_size=k * d * d)))
    a = a.reshape(k, d, d)
    a = np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)
    if d > 1 and draw(st.booleans()):
        atol = 1e-12 * (1.0 + np.abs(a).max())
        factor = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]) | st.floats(0, 3))
        m, i = draw(st.integers(0, k - 1)), draw(st.integers(0, d - 2))
        j = draw(st.integers(i + 1, d - 1))
        a[m, i, j] = a[m, j, i] + draw(st.sampled_from([-1.0, 1.0])) * factor * atol
    if draw(st.integers(0, 4)) == 0:
        a[tuple(draw(st.integers(0, n - 1)) for n in a.shape)] = np.nan
    return a


class TestSymmetryCheck:
    @settings(max_examples=200, deadline=None)
    @given(near_symmetric_stacks())
    def test_same_verdict_as_allclose(self, a):
        assert _accepted(a) == _allclose_rule(a)
        for matrix in a:
            assert _accepted(matrix) == _allclose_rule(matrix)

    @pytest.mark.parametrize("a", [
        [[0.0, np.inf], [1.0, 0.0]],  # within an infinite tolerance
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
    ])
    def test_non_finite_rejected_before_lapack(self, monkeypatch, a):
        def lapack(*args):
            raise AssertionError("non-finite input reached the eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", lapack)
        monkeypatch.setattr(np.linalg, "eigh", lapack)
        for fn in (spectral_norm, sym_eig, psd_split):
            with pytest.raises(ValueError, match="finite"):
                fn(np.array(a))
