"""Symmetric eigendecomposition, spectral norms, and positive/negative parts.

The dense symmetric eigensolve (LAPACK via numpy) is the ground-truth path
at every dimension.  Power iteration does not pay for the norm here: the
spectrum of a centred Gaussian X is nearly symmetric, so the top two
eigenvalues of X @ X almost tie and the iteration rarely certifies.

The public functions validate their input; the cores _spectral_norms,
_split and _bminus trust it to be exactly symmetric and finite by
construction, as the X blocks and the B = b^2 of a profile are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Negative eigenvalues above -CLIP_REL * ||B||_F are treated as zero when
# building the low-rank factor, preventing spurious rank on near-PSD input.
# The threshold scales with B, so rank(B-) does not depend on the units of b.
CLIP_REL = 1e-12


# The SpectralSplit contracts in the order they are reported, and the
# coefficient of each one's limit: a residual fails above coefficient * base,
# a min eigenvalue below it, and unsorted eigenvalues (reported without a
# value) above 0.  The base is 1 + ||B||_F, but d for orthonormality and
# 1 + ||B||_F^2 for bplus @ bminus.
_INVARIANTS = ("eigendecomposition residual", "eigenvector orthonormality residual",
               "eigenvalues not descending", "bplus - bminus residual", "bplus @ bminus residual",
               "bplus min eigenvalue", "bminus min eigenvalue", "factor residual")
_LIMITS = np.array([[1e-10], [1e-10], [0.0], [1e-10], [1e-8], [-1e-10], [-1e-10], [1e-8]])


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
    zero columns of its factor_l.  It validates b and hands it to _split;
    symmetry, finiteness and the clip of the factor are judged per matrix,
    on the matrix's own scale."""
    return _split(_as_symmetric(b, stack=True))


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue of a symmetric matrix, from the dense
    eigensolve; for a (k, d, d) stack, the array of the k norms."""
    norms = _spectral_norms(_as_symmetric(a, stack=True))
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
    and its split, returns the k lists of matrix i's violations; one matrix
    is the k = 1 case.  One stacked pass serves every matrix: the five
    residual matrices share one buffer and one Frobenius call, one
    eigvalsh takes bplus and bminus, and the eight flags form one array.
    Every threshold scales with the matrix's own Frobenius norm."""
    b = np.asarray(b, dtype=np.float64)
    values, vectors = split.eigenvalues, split.eigenvectors
    bplus, bminus, factor_l = split.bplus, split.bminus, split.factor_l
    d, vectors_t = b.shape[-1], vectors.swapaxes(-1, -2)
    # the residuals of the eigendecomposition, orthonormality, bplus - bminus,
    # bplus @ bminus and the factor, then b, bplus and bminus
    buffer = np.empty((8, *b.shape))
    buffer[0] = b - (vectors * values[..., None, :]) @ vectors_t
    np.matmul(vectors_t, vectors, out=buffer[1])
    buffer[1].reshape(-1, d * d)[:, ::d + 1] -= 1.0  # minus the identity
    buffer[2] = b - (bplus - bminus)
    np.matmul(bplus, bminus, out=buffer[3])
    buffer[4] = factor_l @ factor_l.swapaxes(-1, -2) - bminus
    buffer[5], buffer[6], buffer[7] = b, bplus, bminus
    norms = _fro(buffer[:6])
    smallest = np.minimum.reduce(np.linalg.eigvalsh(buffer[6:]), axis=-1)
    unsorted = np.logical_or.reduce(values[..., 1:] > values[..., :-1], axis=-1)
    # row j: invariant j's measured values and the bases of their limits
    measured = np.concatenate((norms[:2], unsorted[None], norms[2:4], smallest, norms[4:5]))
    measured = measured.reshape(len(_INVARIANTS), -1)
    bases = np.empty_like(measured)
    bases[:] = 1.0 + norms[5]
    bases[1], bases[4] = d, 1.0 + norms[5] ** 2
    limits = _LIMITS * bases
    flags = np.where(_LIMITS < 0.0, measured < limits, measured > limits)
    problems = [[] for _ in range(flags.shape[1])]
    for j, i in zip(*np.nonzero(flags)):  # matrix i's violations in report order
        name = _INVARIANTS[j]
        problems[i].append(f"{name} {measured[j, i]:.3e}" if _LIMITS[j, 0] else name)
    return problems if b.ndim == 3 else problems[0]


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    # spectral_norm, unvalidated and always an array: the trusting core
    return np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)


def _split(b: np.ndarray) -> SpectralSplit:
    # psd_split of a matrix or stack that is exactly symmetric by
    # construction, unvalidated; bplus and bminus come from one product.
    values, vectors = _descending_eigh(b)
    return SpectralSplit(values, vectors, *_spectral_part(values, vectors, (1.0, -1.0)),
                         _clipped_factor(b, values, vectors))


def _bminus(b: np.ndarray) -> np.ndarray:
    # _split(b).bminus alone, for a stack that is exactly symmetric by
    # construction: the bits of psd_split(b[i]).bminus for each matrix i.
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


def _spectral_part(eigenvalues: np.ndarray, eigenvectors: np.ndarray, sign) -> np.ndarray:
    # B+ (sign 1) or B- (sign -1): V diag(max(sign * lambda, 0)) V^T, for one
    # matrix or a stack; signs (1, -1) give both, stacked on a new first axis
    weights = np.maximum(np.multiply.outer(sign, eigenvalues), 0.0)
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
    axes = (-2, -1)  # those of each matrix
    if asym.max() > 1e-12 and np.any(asym.max(axes) > 1e-12 * (1.0 + np.abs(a).max(axes))):
        raise ValueError("matrix is not symmetric")
    return a
