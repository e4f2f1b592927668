"""Symmetric Doolittle (LDL^T) factorization (paper Algorithm 3).

Two variants are provided:

* :func:`ldlt_factor` / :func:`ldlt_solve` operate on dense symmetric
  matrices.  They are used for small systems (unit tests and dense
  references).
* :class:`BandedLDLT` operates on symmetric banded matrices stored in
  *lower band* form and runs in ``O(n * w^2)`` time, where ``w`` is the
  half bandwidth.  It backs the exact Algorithm-2 reference implementation
  of the modified JointSTL problem.

The factorization computed is ``A = L D L^T`` with ``L`` unit lower
triangular and ``D`` diagonal; for symmetric positive-definite input this
is the square-root-free Cholesky factorization.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ldlt_factor", "ldlt_solve", "solve_symmetric", "BandedLDLT"]


def ldlt_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a dense symmetric matrix as ``A = L D L^T``.

    Parameters
    ----------
    matrix:
        Symmetric matrix of shape ``(n, n)``.  Only the lower triangle is
        read.

    Returns
    -------
    (L, d):
        ``L`` is unit lower triangular with shape ``(n, n)`` and ``d`` is the
        1-D array of diagonal entries of ``D``.

    Raises
    ------
    ValueError
        If the matrix is not square or a zero pivot is encountered (the
        matrix is singular or not positive definite).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    lower = np.eye(n)
    diag = np.zeros(n)
    for k in range(n):
        pivot = matrix[k, k] - np.dot(lower[k, :k] ** 2, diag[:k])
        if pivot == 0.0 or not np.isfinite(pivot):
            raise ValueError(f"zero or invalid pivot at position {k}; matrix is singular")
        diag[k] = pivot
        for j in range(k + 1, n):
            value = matrix[j, k] - np.dot(lower[j, :k] * diag[:k], lower[k, :k])
            lower[j, k] = value / pivot
    return lower, diag


def ldlt_solve(lower: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L D L^T x = b`` given a factorization from :func:`ldlt_factor`."""
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if rhs.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {rhs.shape}")
    # Forward substitution: L z = b.
    z = rhs.copy()
    for k in range(n):
        z[k] -= np.dot(lower[k, :k], z[:k])
    # Diagonal solve and backward substitution: L^T x = D^{-1} z.
    x = z / diag
    for k in range(n - 2, -1, -1):
        x[k] -= np.dot(lower[k + 1 :, k], x[k + 1 :])
    return x


def solve_symmetric(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a dense symmetric system via LDL^T factorization."""
    lower, diag = ldlt_factor(matrix)
    return ldlt_solve(lower, diag, rhs)


class BandedLDLT:
    """LDL^T factorization of a symmetric banded matrix.

    The matrix is stored in *lower band* form: ``band[k, i] == A[i + k, i]``
    for ``0 <= k <= half_bandwidth`` (entries beyond the matrix are ignored).
    Factorization and the triangular solves all cost ``O(n * w^2)``.

    Parameters
    ----------
    band:
        Array of shape ``(half_bandwidth + 1, n)`` holding the lower band.
    """

    def __init__(self, band: np.ndarray):
        band = np.asarray(band, dtype=float)
        if band.ndim != 2:
            raise ValueError("band must be a 2-D array in lower-band storage")
        self.half_bandwidth = band.shape[0] - 1
        self.size = band.shape[1]
        self._lower_band, self._diag = self._factor(band)

    @staticmethod
    def from_dense(matrix: np.ndarray, half_bandwidth: int) -> "BandedLDLT":
        """Build the band storage from a dense symmetric matrix and factor it."""
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        band = np.zeros((half_bandwidth + 1, n))
        for k in range(min(half_bandwidth, n - 1) + 1):
            band[k, : n - k] = np.diagonal(matrix, -k)
        return BandedLDLT(band)

    def _factor(self, band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = self.half_bandwidth
        n = self.size
        lower = np.zeros((w + 1, n))
        lower[0, :] = 1.0
        diag = np.zeros(n)
        for k in range(n):
            start = max(0, k - w)
            acc = band[0, k]
            for i in range(start, k):
                acc -= (lower[k - i, i] ** 2) * diag[i]
            if acc == 0.0 or not np.isfinite(acc):
                raise ValueError(f"zero or invalid pivot at position {k}")
            diag[k] = acc
            for j in range(k + 1, min(k + w + 1, n)):
                value = band[j - k, k]
                for i in range(max(0, j - w), k):
                    value -= lower[j - i, i] * diag[i] * lower[k - i, i]
                lower[j - k, k] = value / acc
        return lower, diag

    @property
    def diagonal(self) -> np.ndarray:
        """Diagonal entries of ``D`` (a copy)."""
        return self._diag.copy()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the banded factorization."""
        rhs = np.asarray(rhs, dtype=float)
        n = self.size
        w = self.half_bandwidth
        if rhs.shape != (n,):
            raise ValueError(f"rhs must have shape ({n},), got {rhs.shape}")
        z = rhs.copy()
        for k in range(n):
            for i in range(max(0, k - w), k):
                z[k] -= self._lower_band[k - i, i] * z[i]
        x = z / self._diag
        for k in range(n - 1, -1, -1):
            for j in range(k + 1, min(k + w + 1, n)):
                x[k] -= self._lower_band[j - k, k] * x[j]
        return x
