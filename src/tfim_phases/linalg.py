"""Small dense complex-matrix kernels shared by the physics modules.

Everything here operates on plain ``numpy`` arrays (2x2 and 4x4 complex).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Largest max|M - M^dag| (max|A + A^dag|) accepted as round-off.
_HERMITICITY_TOL = 1e-12
_ANTIHERMITICITY_TOL = 1e-10


class HermitianEigen(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


# dim -> the indices that put a matrix in Z-parity order, even-weight basis
# states first, and the inverse permutation
_PARITY_ORDER = {dim: (np.ix_(order, order), np.argsort(order))
                 for dim, order in ((2, [0, 1]), (4, [0, 3, 1, 2]))}


def hermitian_eigen(m):
    """Eigendecomposition of a 2x2 or 4x4 Hermitian matrix in Z-parity order,
    with no phase convention.

    The input is symmetrized; a deviation from Hermiticity beyond _HERMITICITY_TOL
    raises.  A matrix that conserves Z parity, as every reduced state does, is block
    diagonal in that order, so each eigenvector lies in one block, also at a crossing.
    """
    m = np.asarray(m, dtype=complex)
    defect = float(np.abs(m - m.conj().T).max())
    if not defect <= _HERMITICITY_TOL:  # NaN fails
        raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
                         f"> {_HERMITICITY_TOL:.1e}")
    blocks, inverse = _PARITY_ORDER[m.shape[0]]
    w, v = np.linalg.eigh((m + m.conj().T)[blocks] / 2)
    return HermitianEigen(w, v[inverse])


def _dagger(m):
    """Conjugate transpose of a matrix or of each matrix in a (..., d, d) stack."""
    return m.conj().swapaxes(-1, -2)


def expm_antihermitian(a, s=1.0):
    """exp(A*s) for anti-Hermitian A, via the spectral form of the Hermitian iA.

    A may be a (..., d, d) stack; the defect check covers the whole stack.
    The result is unitary to round-off by construction.
    """
    a = np.asarray(a, dtype=complex)
    defect = float(np.abs(a + _dagger(a)).max())
    if not defect <= _ANTIHERMITICITY_TOL:  # NaN fails
        raise ValueError(f"matrix is not anti-Hermitian: max|A + A^dag| = {defect:.3e} "
                         f"> {_ANTIHERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh(1j * (a - _dagger(a)) / 2)
    return (v * np.exp(-1j * w * s)[..., None, :]) @ _dagger(v)


def unitary_power(u, n):
    """u^n for a unitary u whose eigenphases lie in (-pi/2, pi/2).

    On that arc an eigenphase w is fixed by sin(w), an eigenvalue of the
    Hermitian (u - u^dag) / 2i, so that matrix's orthonormal eigenvectors Q
    diagonalize u.  Raising only the unit-modulus phases,
    Q e^{i n w} Q^dag, keeps the result unitary to round-off for every n;
    repeated squaring lets the unitarity defect of u grow with n.  u may be
    a (..., d, d) stack.
    """
    u = np.asarray(u, dtype=complex)
    _, q = np.linalg.eigh((u - _dagger(u)) / 2j)
    phases = np.angle(np.einsum("...ji,...jk,...ki->...i", q.conj(), u, q))
    return (q * np.exp(1j * n * phases)[..., None, :]) @ _dagger(q)
