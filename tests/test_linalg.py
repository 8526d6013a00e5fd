import dataclasses
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

# Each corruption of a split field, with the invariant it breaks.
CORRUPTIONS = [
    ("eigenvalues", lambda s: s.eigenvalues + 1.0, "eigendecomposition residual"),
    ("eigenvectors", lambda s: 2.0 * s.eigenvectors, "eigenvector orthonormality residual"),
    ("eigenvalues", lambda s: s.eigenvalues[::-1], "eigenvalues not descending"),
    ("bplus", lambda s: s.bplus + np.eye(12), "bplus - bminus residual"),
    ("bminus", lambda s: s.bminus + s.bplus, "bplus @ bminus residual"),
    ("bplus", lambda s: s.bplus - np.eye(12), "bplus min eigenvalue"),
    ("bminus", lambda s: s.bminus - np.eye(12), "bminus min eigenvalue"),
    ("factor_l", lambda s: 2.0 * s.factor_l, "factor residual"),
]


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

    def test_stack_symmetry_judged_per_matrix(self):
        # an asymmetry of 1e-10 is within the tolerance of a matrix with
        # entries near 1e3, but not of one with entries near 1
        small = np.eye(3)
        small[0, 1] += 1e-10
        psd_split(small + 1e3 * np.eye(3))
        with pytest.raises(ValueError, match="not symmetric"):
            psd_split(np.stack([small, 1e3 * np.eye(3)]))

    def test_factor_reconstructs_bminus(self):
        a = random_symmetric(12, seed=5)
        split = psd_split(a)
        np.testing.assert_allclose(
            split.factor_l @ split.factor_l.T, split.bminus, atol=1e-10
        )

    @pytest.mark.parametrize("field, corrupt, message", CORRUPTIONS)
    def test_violations_name_the_broken_invariant(self, field, corrupt, message):
        # an indefinite input, so both parts and the factor are nonzero
        a = random_symmetric(12, seed=5)
        split = psd_split(a)
        broken = dataclasses.replace(split, **{field: corrupt(split)})
        problems = split_invariant_violations(a, broken)
        assert any(problem.startswith(message) for problem in problems), problems

    @pytest.mark.parametrize("scales", [(0.01, 1.0, 100.0), (100.0, 0.01, 1.0), (1.0, 100.0, 0.01)])
    @pytest.mark.parametrize("field, corrupt, message", CORRUPTIONS)
    def test_stacked_violations_equal_the_matrix_calls(self, field, corrupt, message, scales):
        # Matrix 1 of a stack is broken, at each of the three scales: the
        # stacked call must report, string for string, what the 2-D call on
        # each matrix and its own split fields reports.
        stack = np.array([random_symmetric(12, seed=5 + i, scale=s) for i, s in enumerate(scales)])
        split = psd_split(stack)
        names = [f.name for f in dataclasses.fields(split)]

        def matrices(s, rows):
            return linalg.SpectralSplit(**{name: getattr(s, name)[rows] for name in names})

        value = getattr(split, field).copy()
        value[1] = corrupt(matrices(split, 1))
        broken = dataclasses.replace(split, **{field: value})
        expected = [split_invariant_violations(a, matrices(broken, i)) for i, a in enumerate(stack)]
        assert expected[0] == expected[2] == []
        assert any(problem.startswith(message) for problem in expected[1]), expected
        assert split_invariant_violations(stack, broken) == expected
        assert split_invariant_violations(stack[1:2], matrices(broken, slice(1, 2))) == [expected[1]]


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

    @pytest.mark.parametrize("shape", [(7, 4, 9), (5, 9, 4), (6, 1, 1), (3, 12, 12)])
    def test_stack_rows_equal_the_matrix_call(self, shape):
        a = np.random.default_rng(shape[1]).standard_normal(shape)
        a[1] = 0.0  # a zero matrix inside the stack
        norms = operator_norm(a)
        assert norms.shape == shape[:1]
        assert norms.tolist() == [operator_norm(m) for m in a]
        assert norms[1] == 0.0

    @pytest.mark.parametrize("shape", [(4, 3, 5), (4, 0, 5), (4, 5, 0), (0, 3, 5), (0, 3)])
    def test_zero_and_empty_give_zero(self, shape):
        norms = operator_norm(np.zeros(shape))
        assert np.shape(norms) == shape[:-2] and np.all(norms == 0.0)


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
    off-diagonal entry of one matrix moved by a multiple of that matrix's
    tolerance near 1, and sometimes a NaN entry."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))
    entries = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True)
    a = np.array(draw(st.lists(entries, min_size=k * d * d, max_size=k * d * d)))
    a = a.reshape(k, d, d)
    a = np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)
    if d > 1 and draw(st.booleans()):
        m, i = draw(st.integers(0, k - 1)), draw(st.integers(0, d - 2))
        atol = 1e-12 * (1.0 + np.abs(a[m]).max())
        factor = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]) | st.floats(0, 3))
        j = draw(st.integers(i + 1, d - 1))
        a[m, i, j] = a[m, j, i] + draw(st.sampled_from([-1.0, 1.0])) * factor * atol
    if draw(st.integers(0, 4)) == 0:
        a[tuple(draw(st.integers(0, n - 1)) for n in a.shape)] = np.nan
    return a


class TestSymmetryCheck:
    @settings(max_examples=200, deadline=None)
    @given(near_symmetric_stacks())
    def test_same_verdict_as_allclose(self, a):
        # a stack passes when each matrix passes on its own scale
        assert _accepted(a) == all(_allclose_rule(matrix) for matrix in a)
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

    @pytest.mark.parametrize("a, message", [
        ([[1.0, 2.0], [0.0, 1.0]], "matrix is not symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], "matrix entries must be finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "matrix entries must be finite"),
    ])
    def test_public_functions_validate_with_their_messages(self, a, message):
        # the cores behind them trust their input; these entry points do not
        for fn in (spectral_norm, sym_eig, psd_split):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(np.array(a))
        for fn in (spectral_norm, psd_split):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(np.stack([np.eye(2), np.array(a)]))
