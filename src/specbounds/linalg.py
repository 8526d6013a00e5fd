"""Symmetric eigendecomposition, spectral norms, and positive/negative parts.

The dense symmetric eigensolve (LAPACK via numpy) is the ground-truth path
at every dimension.  Power iteration does not pay for the norm here: the
spectrum of a centred Gaussian X is nearly symmetric, so the top two
eigenvalues of X @ X almost tie and the iteration rarely certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Negative eigenvalues above -CLIP_REL * ||B||_F are treated as zero when
# building the low-rank factor, preventing spurious rank on near-PSD input.
# The threshold scales with B, so rank(B-) does not depend on the units of b.
CLIP_REL = 1e-12


@dataclass(frozen=True)
class SpectralSplit:
    """Eigendecomposition of a symmetric B with its PSD parts.

    B = bplus - bminus with bplus, bminus PSD and bplus @ bminus ~ 0;
    factor_l is d x r with factor_l @ factor_l.T = bminus, built only from
    eigenvalues below the clipping threshold.  The split of a (k, d, d)
    stack holds the k splits as stacks, and its factor_l is (k, d, d): the
    factor of matrix i is column-padded with a zero column for each of its
    other eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bplus: np.ndarray
    bminus: np.ndarray
    factor_l: np.ndarray


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a
    symmetric matrix.

    Raises numpy.linalg.LinAlgError if the LAPACK iteration fails to
    converge, which signals numerical pathology in the input.
    """
    return _descending_eigh(_as_symmetric(a))


def psd_split(b: np.ndarray) -> SpectralSplit:
    """Split a symmetric matrix into positive and negative spectral parts;
    for a (k, d, d) stack, split each matrix, with one stacked eigensolve.

    One matrix is the k = 1 case: LAPACK and the matmuls run per matrix, so
    matrix i of a stack gets the bits of psd_split(b[i]), apart from the
    zero columns of its factor_l.  Symmetry, finiteness and the clip of
    the factor are judged per matrix, on the matrix's own scale.
    """
    b = _as_symmetric(b, stack=True)
    eigenvalues, eigenvectors = _descending_eigh(b)
    return SpectralSplit(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        bplus=_spectral_part(eigenvalues, eigenvectors, 1.0),
        bminus=_spectral_part(eigenvalues, eigenvectors, -1.0),
        factor_l=_clipped_factor(b, eigenvalues, eigenvectors),
    )


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue of a symmetric matrix, from the dense
    eigensolve; for a (k, d, d) stack, the array of the k norms."""
    norms = np.max(np.abs(np.linalg.eigvalsh(_as_symmetric(a, stack=True))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def operator_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a general (possibly rectangular) matrix;
    for a (k, r, c) stack, the array of the k values.  Zero and empty
    matrices give 0 without an SVD."""
    a = np.asarray(a, dtype=np.float64)
    nonzero = np.any(a, axis=(-2, -1))
    norms = np.zeros(nonzero.shape)
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(a[nonzero], compute_uv=False)[:, 0]
    return float(norms) if norms.ndim == 0 else norms


def split_invariant_violations(b: np.ndarray, split: SpectralSplit) -> list:
    """Check every SpectralSplit contract on one input; returns violation
    descriptions (empty means the split is sound).  For a (k, d, d) stack
    and its split, returns the k lists of matrix i's violations, from
    stacked products and one stacked eigvalsh over bplus and bminus; one
    matrix is the k = 1 case.  Every threshold scales with the matrix's
    own Frobenius norm."""
    b = np.asarray(b, dtype=np.float64)
    values, vectors = split.eigenvalues, split.eigenvectors
    bplus, bminus, factor_l = split.bplus, split.bminus, split.factor_l
    d = b.shape[-1]
    fro = _fro(b)
    smallest = np.min(np.linalg.eigvalsh(np.stack([bplus, bminus])), axis=-1)
    recon = _fro(b - (vectors * values[..., None, :]) @ vectors.swapaxes(-1, -2))
    ortho = _fro(vectors.swapaxes(-1, -2) @ vectors - np.eye(d))
    parts = _fro(b - (bplus - bminus))
    cross = _fro(bplus @ bminus)
    factor = _fro(factor_l @ factor_l.swapaxes(-1, -2) - bminus)
    # (description, value or None, failing), in the order they are reported
    invariants = (
        ("eigendecomposition residual", recon, recon > 1e-10 * (1.0 + fro)),
        ("eigenvector orthonormality residual", ortho, ortho > 1e-10 * d),
        ("eigenvalues not descending", None, (values[..., 1:] > values[..., :-1]).any(axis=-1)),
        ("bplus - bminus residual", parts, parts > 1e-10 * (1.0 + fro)),
        ("bplus @ bminus residual", cross, cross > 1e-8 * (1.0 + fro ** 2)),
        ("bplus min eigenvalue", smallest[0], smallest[0] < -1e-10 * (1.0 + fro)),
        ("bminus min eigenvalue", smallest[1], smallest[1] < -1e-10 * (1.0 + fro)),
        ("factor residual", factor, factor > 1e-8 * (1.0 + fro)),
    )
    flags = np.reshape([failing for *_, failing in invariants], (len(invariants), -1))
    problems = [[] for _ in range(flags.shape[1])]
    for j, i in zip(*np.nonzero(flags)):  # matrix i's violations in the order above
        name, value, _ = invariants[j]
        problems[i].append(name if value is None else f"{name} {np.ravel(value)[i]:.3e}")
    return problems if b.ndim == 3 else problems[0]


def _bminus(b: np.ndarray) -> np.ndarray:
    # psd_split(b[i]).bminus for each matrix of a (k, d, d) stack that is
    # exactly symmetric by construction, from one stacked eigensolve; LAPACK
    # and the matmul run per matrix, so each result keeps the bits of the
    # one-matrix call.
    return _spectral_part(*_descending_eigh(b), -1.0)


def _clipped_factor(b: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    # L = V_r diag(sqrt(-lambda_r)) over the eigenvalues below -CLIP_REL *
    # ||B||_F: the compact d x r factor of one matrix, or for a stack the
    # (k, d, d) factors with a zero column for each other eigenvalue.
    keep = eigenvalues < -CLIP_REL * _fro(b)[..., None]
    factor = eigenvectors * np.sqrt(np.where(keep, -eigenvalues, 0.0))[..., None, :]
    return factor if b.ndim == 3 else factor[:, keep]


def _fro(a: np.ndarray) -> np.ndarray:
    # ||a||_F of a matrix, or of each matrix of a stack, as the dot product
    # of its flattened entries: the bits of np.linalg.norm(a, "fro").
    flat = a.reshape(*a.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat, flat))


def _descending_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.linalg.eigh of one matrix or a stack, eigenpairs in descending order
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return eigenvalues[..., ::-1].copy(), eigenvectors[..., ::-1].copy()


def _spectral_part(eigenvalues: np.ndarray, eigenvectors: np.ndarray, sign: float) -> np.ndarray:
    # B+ (sign 1) or B- (sign -1): V diag(max(sign * lambda, 0)) V^T, for one
    # matrix or a stack
    weights = np.maximum(sign * eigenvalues, 0.0)
    return (eigenvectors * weights[..., None, :]) @ eigenvectors.swapaxes(-1, -2)


def _as_symmetric(a: np.ndarray, stack: bool = False) -> np.ndarray:
    # stack=True also accepts a (k, d, d) stack of matrices, which passes
    # when each of its matrices does: a matrix is judged on its own scale,
    # so a small one is held as tightly inside a stack as alone.  On finite
    # input the test of each matrix accepts exactly what np.allclose(a, a.T,
    # rtol=0, atol) does; NaN and infinities never reach LAPACK.
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(np.abs(a).max()):
        raise ValueError("matrix entries must be finite")
    asym = np.abs(a - a.swapaxes(-1, -2))
    # Every matrix's tolerance is at least 1e-12, so the per-matrix scales,
    # slow to reduce over small matrices, are needed only past it.
    if asym.max() > 1e-12 and np.any(_each_max(asym) > 1e-12 * (1.0 + _each_max(np.abs(a)))):
        raise ValueError("matrix is not symmetric")
    return a


def _each_max(a: np.ndarray) -> np.ndarray:
    # the largest entry of a matrix, or of each matrix of a stack
    return a.reshape(*a.shape[:-2], -1).max(axis=-1)
