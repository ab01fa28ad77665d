"""Small dense complex-matrix kernels shared by the physics modules.

Everything here operates on plain ``numpy`` arrays (2x2 and 4x4 complex in
practice, up to ~100x100 real for the Toeplitz determinants).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Largest max|M - M^dag| (max|A + A^dag|) accepted as round-off.
_HERMITICITY_TOL = 1e-12
_ANTIHERMITICITY_TOL = 1e-10


class HermitianEigen(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigen(m):
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    The input is symmetrized before decomposition; a deviation from
    Hermiticity larger than _HERMITICITY_TOL raises.  Each eigenvector is
    rephased so that its largest-magnitude component is real and positive,
    which makes the output deterministic.
    """
    m = np.asarray(m, dtype=complex)
    defect = float(np.abs(m - m.conj().T).max())
    if defect > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
                         f"> {_HERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    for k in range(v.shape[1]):
        pivot = int(np.argmax(np.abs(v[:, k])))
        phase = v[pivot, k] / abs(v[pivot, k])
        v[:, k] = v[:, k] / phase
    return HermitianEigen(w, v)


def det_real(m):
    """Determinant of a real square matrix (LU with partial pivoting)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.det(m))


def expm_antihermitian(a, s=1.0):
    """exp(A*s) for anti-Hermitian A, via the spectral form of the Hermitian iA.

    The result is unitary to round-off by construction.
    """
    a = np.asarray(a, dtype=complex)
    defect = float(np.abs(a + a.conj().T).max())
    if defect > _ANTIHERMITICITY_TOL:
        raise ValueError(f"matrix is not anti-Hermitian: max|A + A^dag| = {defect:.3e} "
                         f"> {_ANTIHERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh(1j * (a - a.conj().T) / 2)
    return (v * np.exp(-1j * w * s)) @ v.conj().T
