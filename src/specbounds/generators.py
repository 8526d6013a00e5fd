"""Named variance-profile families used in examples and acceptance tests."""

from __future__ import annotations

import functools
import os
from decimal import Context, Decimal

import numpy as np

from .profile import StdDevProfile


def gen_wigner(d: int) -> StdDevProfile:
    """Homogeneous profile with b_ij = 1 for all i, j."""
    _check_dim(d)
    return StdDevProfile(d=d, b=np.ones((d, d)))


def gen_diagonal_unit(d: int) -> StdDevProfile:
    """Identity profile: b_ii = 1, off-diagonal 0."""
    _check_dim(d)
    return StdDevProfile(d=d, b=np.eye(d))


def gen_diagonal_decay(d: int) -> StdDevProfile:
    """Diagonal profile with b_ii = (ln(i+1))^(-1/2), i 1-based."""
    _check_dim(d)
    diag = 1.0 / np.sqrt(np.log(np.arange(1, d + 1, dtype=np.float64) + 1.0))
    return StdDevProfile(d=d, b=np.diag(diag))


def gen_band(d: int, w: int) -> StdDevProfile:
    """Band profile: b_ij = 1 iff |i - j| < w, so w = 1 is diagonal."""
    _check_dim(d)
    if not 1 <= w <= d:
        raise ValueError(f"bandwidth must satisfy 1 <= w <= d, got w={w}, d={d}")
    i = np.arange(d)
    b = (np.abs(i[:, None] - i[None, :]) < w).astype(np.float64)
    return StdDevProfile(d=d, b=b)


def gen_bandeira(delta: float) -> StdDevProfile:
    """The 2x2 family with variance matrix [[delta, 1], [1, 0]].

    Entries of the profile are the entrywise square roots, so squaring the
    profile entrywise recovers the variance matrix.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    b = np.array([[np.sqrt(delta), 1.0], [1.0, 0.0]])
    return StdDevProfile(d=2, b=b)


def gen_kronecker_flip(bprime: np.ndarray) -> StdDevProfile:
    """Profile whose variance matrix is B' kron [[0,1],[1,0]].

    B' must be symmetric with nonnegative entries and positive semidefinite;
    PSD is checked numerically (eigenvalues >= -1e-10 * ||B'||).
    """
    bp = np.asarray(bprime, dtype=np.float64)
    if bp.ndim != 2 or bp.shape[0] != bp.shape[1]:
        raise ValueError(f"B' must be square, got shape {bp.shape}")
    if not np.array_equal(bp, bp.T):
        raise ValueError("B' must be symmetric")
    if np.any(bp < 0):
        raise ValueError("B' must have nonnegative entries")
    eigs = np.linalg.eigvalsh(bp)
    if eigs.min() < -1e-10 * np.max(np.abs(eigs), initial=0.0):
        raise ValueError(
            f"B' is not positive semidefinite (min eigenvalue {eigs.min():.3e})"
        )
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    variance = np.kron(bp, flip)
    return StdDevProfile(d=2 * bp.shape[0], b=np.sqrt(variance))


def gen_sparse_random(d: int, density: float, seed: int) -> StdDevProfile:
    """Symmetric Bernoulli(density) support with unit entries.

    Pure function of (d, density, seed): the upper triangle (including the
    diagonal) is drawn from one stream and mirrored.
    """
    _check_dim(d)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng([seed, d])
    u = rng.random((d, d))
    upper = np.triu(u < density)
    b = (upper | upper.T).astype(np.float64)
    return StdDevProfile(d=d, b=b)


def random_psd_nonneg(d: int, seed: int) -> np.ndarray:
    """Random PSD matrix with nonnegative entries: W.T @ W / d with W = |G|."""
    rng = np.random.default_rng([seed, d])
    w = np.abs(rng.standard_normal((d, d)))
    return w.T @ w / d


def random_profile(d: int, seed: int, density: float = 1.0) -> StdDevProfile:
    """Stress profile with |N(0,1)| entries and optional Bernoulli support,
    symmetric by mirroring the upper triangle.  Pure in (d, seed, density)."""
    _check_dim(d)
    rng = np.random.default_rng([seed, d])
    b = np.abs(rng.standard_normal((d, d)))
    if density < 1.0:
        b *= rng.random((d, d)) < density
    # Finite, nonnegative and exactly symmetric by construction, so the
    # profile skips the checks that StdDevProfile(d, b) would repeat.
    return StdDevProfile._trusted(np.where(_upper_mask(d), b, b.T))


@functools.lru_cache(maxsize=32)
def _upper_mask(d: int) -> np.ndarray:
    # True on and above the diagonal; read-only because it is shared.
    mask = np.triu(np.ones((d, d), dtype=bool))
    mask.flags.writeable = False
    return mask


def random_symmetric(d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric Gaussian matrix (A + A.T) / 2, for eigensolver
    stress corpora."""
    a = np.random.default_rng([seed, d]).standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


def make_family(name: str, params: dict) -> StdDevProfile:
    """Build a named family from a parameter map (numbers only).

    kronecker_flip takes (d, seed) and uses a seeded random PSD B' of size
    d/2 with nonnegative entries, so the family stays expressible from flat
    CLI flags; d must be even.
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
    p = dict(params)
    profile = _FAMILIES[name](p)
    if p:
        raise ValueError(f"unexpected parameter(s) {sorted(p)} for family {name!r}")
    return profile


def _kronecker_flip(p: dict) -> StdDevProfile:
    d = _take_int(p, "d")
    if d % 2 != 0:
        raise ValueError(f"kronecker_flip needs even d, got {d}")
    _check_dim(d)
    return gen_kronecker_flip(random_psd_nonneg(d // 2, _take_seed(p, "kronecker_flip")))


# Each builder pops its parameters from the map it is given.
_FAMILIES = {
    "wigner": lambda p: gen_wigner(_take_int(p, "d")),
    "diagonal_unit": lambda p: gen_diagonal_unit(_take_int(p, "d")),
    "diagonal_decay": lambda p: gen_diagonal_decay(_take_int(p, "d")),
    "band": lambda p: gen_band(_take_int(p, "d"), _take_int(p, "w")),
    "bandeira": lambda p: gen_bandeira(float(p.pop("delta"))),
    "kronecker_flip": _kronecker_flip,
    "sparse_random": lambda p: gen_sparse_random(_take_int(p, "d"), float(p.pop("density", 0.1)),
                                                 _take_seed(p, "sparse_random")),
}
FAMILY_NAMES = tuple(_FAMILIES)


def parse_family_spec(spec: str) -> StdDevProfile:
    """Parse the "name:key=value,key=value" micro-syntax, e.g. wigner:d=16."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = (part.strip() for part in item.partition("="))
            if not eq:
                raise ValueError(f"bad family parameter {item!r} in {spec!r}")
            if key in params:
                raise ValueError(f"repeated family parameter {key!r} in {spec!r}")
            params[key] = float(value)
    try:
        return make_family(name, params)
    except KeyError as exc:
        raise ValueError(f"family {name!r} is missing parameter {exc}") from exc


def _take_int(params: dict, key: str) -> int:
    value = params.pop(key)
    if not float(value).is_integer():
        raise ValueError(f"parameter {key} must be an integer, got {value}")
    return int(value)


def _take_seed(params: dict, family: str) -> int:
    seed = _take_int(params, "seed") if "seed" in params else 0
    if seed < 0:
        raise ValueError(f"family {family!r} needs seed >= 0, got {seed}")
    return seed


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    # The profile, its square, and one X block with its gather: about four
    # d x d float64 arrays, refused before any of them is allocated.
    _check_memory("d", d, 4 * 8 * d * d)


def _check_memory(name: str, value: int, need: int) -> None:
    # Refuses need bytes, for name=value, above physical memory.  The size
    # is an exact int, so even d = 1e308 is refused with a message.
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        # A value past 15 digits is shown as 1e+308, not in 309 digits.
        shown = value if value < 10**15 else f"{Decimal(value).normalize(Context(prec=6)):g}"
        raise ValueError(f"out of memory: {name}={shown} needs about {_binary_size(need)}, "
                         f"more than the {_binary_size(physical)} of physical memory")


def _binary_size(n: int) -> str:
    # Decimal, not float: 32 d^2 bytes overflows a float for d past 1e154.
    n = Decimal(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024:
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} PiB" if n < 1024 else f"{n:.4g} PiB"
