"""Numeric substrate: seeded RNG, dense linear algebra, orthogonal init, PCA.

All matrices are 2-D float64 numpy arrays in row-major (C) order. Eigenvalues
are returned as complex128 regardless of whether they are real. Everything is
deterministic given a seed; random streams are split per purpose by seed
derivation so independent consumers never share a stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

DTYPE = np.float64


def derive_seed(seed: int, tag) -> int:
    """64-bit child seed hashed from (seed, tag); ``SeededRng.derive`` seeds
    its child with it."""
    digest = hashlib.sha256(f"{int(seed)}|{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class SeededRng:
    """Deterministic PCG64 stream with stable per-purpose derivation.

    Identical seeds produce identical streams across runs and platforms.
    ``derive(tag)`` hashes (seed, tag) into a fresh 64-bit seed, so derived
    streams are independent of draw order on the parent.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, tag) -> "SeededRng":
        """Child stream keyed by ``tag`` (any str/int-convertible value)."""
        return SeededRng(derive_seed(self.seed, tag))

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=DTYPE)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


def orthogonal_init(rng: SeededRng, n: int) -> np.ndarray:
    """Random n x n orthogonal matrix.

    QR factorization of a Gaussian matrix, with the R-diagonal sign fix so
    the result is Haar-distributed rather than biased by LAPACK's sign
    convention. Redraws in the (measure-zero) event of rank deficiency.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    while True:
        g = rng.gen.normal(0.0, 1.0, size=(n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        if np.min(np.abs(d)) < 1e-12:
            continue
        return q * np.sign(d)


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square real matrix.

    Returns complex128 in unspecified order; complex values come in conjugate
    pairs. Non-convergence of the underlying QR iteration surfaces as
    ``numpy.linalg.LinAlgError``.
    """
    m = _as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("eigenvalues requires finite entries")
    return np.asarray(np.linalg.eigvals(m), dtype=np.complex128)


def pca_top_k(data: np.ndarray, k: int):
    """Top-k principal axes of ``data`` (rows = observations, cols = features).

    Mean-centers the data and eigendecomposes the symmetric feature
    covariance. Returns ``(components, projected, explained_variance_ratio)``
    where components is k x features with orthonormal rows, projected is
    rows x k, and the ratios are non-increasing values in [0, 1]. Data with
    zero variance yields zero ratios and an arbitrary orthonormal basis.
    """
    data = _as_matrix(data, "data")
    rows, feats = data.shape
    if rows < 2:
        raise ValueError(f"pca_top_k needs at least 2 observations, got {rows}")
    if not 1 <= k <= min(rows, feats):
        raise ValueError(f"k={k} out of range for {rows}x{feats} data")

    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (rows - 1)
    cov = (cov + cov.T) / 2.0
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:k]
    top = np.clip(evals[order], 0.0, None)

    components = evecs[:, order].T.copy()
    # deterministic sign: largest-magnitude entry of each axis is positive
    for i in range(k):
        j = np.argmax(np.abs(components[i]))
        if components[i, j] < 0:
            components[i] = -components[i]

    total = float(np.trace(cov))
    if total <= 0.0:
        ratios = np.zeros(k)
    else:
        ratios = np.minimum(top / total, 1.0)
    projected = centered @ components.T
    return components, projected, ratios
