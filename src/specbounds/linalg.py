"""Symmetric eigendecomposition, spectral norms, and positive/negative parts.

The dense symmetric eigensolve (LAPACK via numpy) is the ground-truth path
at every dimension.  Power iteration does not pay for the norm here: the
spectrum of a centred Gaussian X is nearly symmetric, so the top two
eigenvalues of X @ X almost tie and the iteration rarely certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralSplit",
    "sym_eig",
    "psd_split",
    "spectral_norm",
    "operator_norm",
]

# Negative eigenvalues above -CLIP_REL * (1 + ||B||_F) are treated as zero
# when building the low-rank factor, preventing spurious rank on near-PSD
# input.
CLIP_REL = 1e-12


@dataclass(frozen=True)
class SpectralSplit:
    """Eigendecomposition of a symmetric B with its PSD parts.

    B = bplus - bminus with bplus, bminus PSD and bplus @ bminus ~ 0;
    factor_l is d x r with factor_l @ factor_l.T = bminus, built only from
    eigenvalues below the clipping threshold.
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
    a = _as_symmetric(a)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return eigenvalues[::-1].copy(), eigenvectors[:, ::-1].copy()


def psd_split(b: np.ndarray) -> SpectralSplit:
    """Split a symmetric matrix into positive and negative spectral parts."""
    eigenvalues, eigenvectors = sym_eig(b)
    pos = np.maximum(eigenvalues, 0.0)
    neg = np.maximum(-eigenvalues, 0.0)
    bplus = (eigenvectors * pos) @ eigenvectors.T
    bminus = (eigenvectors * neg) @ eigenvectors.T
    clip = CLIP_REL * (1.0 + np.linalg.norm(b, "fro"))
    keep = eigenvalues < -clip
    factor_l = eigenvectors[:, keep] * np.sqrt(-eigenvalues[keep])
    return SpectralSplit(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        bplus=bplus,
        bminus=bminus,
        factor_l=factor_l,
    )


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Largest absolute eigenvalue of a symmetric matrix, from the dense
    eigensolve; for a (k, d, d) stack, the array of the k norms."""
    norms = np.max(np.abs(np.linalg.eigvalsh(_as_symmetric(a, stack=True))), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a general (possibly rectangular) matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def split_invariant_violations(b: np.ndarray, split: SpectralSplit) -> list[str]:
    """Check every SpectralSplit contract on one input; returns violation
    descriptions (empty means the split is sound)."""
    b = np.asarray(b, dtype=np.float64)
    fro = np.linalg.norm(b, "fro")
    problems = []
    recon = np.linalg.norm(
        b - split.eigenvectors @ np.diag(split.eigenvalues) @ split.eigenvectors.T, "fro"
    )
    if recon > 1e-10 * (1.0 + fro):
        problems.append(f"eigendecomposition residual {recon:.3e}")
    ortho = np.linalg.norm(split.eigenvectors.T @ split.eigenvectors - np.eye(b.shape[0]), "fro")
    if ortho > 1e-10 * b.shape[0]:
        problems.append(f"eigenvector orthonormality residual {ortho:.3e}")
    if np.any(np.diff(split.eigenvalues) > 0):
        problems.append("eigenvalues not descending")
    parts = np.linalg.norm(b - (split.bplus - split.bminus), "fro")
    if parts > 1e-10 * (1.0 + fro):
        problems.append(f"bplus - bminus residual {parts:.3e}")
    cross = np.linalg.norm(split.bplus @ split.bminus, "fro")
    if cross > 1e-8 * (1.0 + fro ** 2):
        problems.append(f"bplus @ bminus residual {cross:.3e}")
    for name, part in (("bplus", split.bplus), ("bminus", split.bminus)):
        smallest = float(np.min(np.linalg.eigvalsh(part)))
        if smallest < -1e-10 * (1.0 + fro):
            problems.append(f"{name} min eigenvalue {smallest:.3e}")
    factor = np.linalg.norm(split.factor_l @ split.factor_l.T - split.bminus, "fro")
    if factor > 1e-8 * (1.0 + fro):
        problems.append(f"factor residual {factor:.3e}")
    return problems


def _as_symmetric(a: np.ndarray, stack: bool = False) -> np.ndarray:
    # stack=True also accepts a (k, d, d) stack of matrices.  On finite
    # input the test accepts exactly what np.allclose(a, a.T, rtol=0, atol)
    # does, in one pass; NaN and infinities never reach LAPACK.
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if not np.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.swapaxes(-1, -2)).max() > 1e-12 * (1.0 + scale):
        raise ValueError("matrix is not symmetric")
    return a
