"""Small dense complex-matrix kernels shared by the physics modules.

Everything here operates on plain ``numpy`` arrays (2x2 and 4x4 complex).
The kernels are eigen-level primitives: ``hermitian_eigen``,
``antihermitian_eigen`` and ``unitary_eigen``, which carry the input checks,
and ``spectral_matrix``, which builds a function of a matrix from its
decomposition.  ``hermitian_part`` is ``hermitian_eigen``'s check and
symmetrization alone, for the closed forms of a 2x2 state.  A caller that needs only the spectrum (as the Uhlmann kernel
does for its traces) gets it from the same decomposition that a matrix
function of it would use, bitwise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


def hermitian_part(m):
    """(M + M^dag) / 2 of a square matrix M; a deviation from Hermiticity beyond
    _HERMITICITY_TOL raises."""
    m = np.asarray(m, dtype=complex)
    m_dag = m.conj().T
    defect = float(np.abs(m - m_dag).max())
    if not defect <= _HERMITICITY_TOL:  # NaN fails
        raise ValueError(f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
                         f"> {_HERMITICITY_TOL:.1e}")
    return (m + m_dag) / 2


def hermitian_eigen(m):
    """Eigendecomposition of a 2x2 or 4x4 Hermitian matrix in Z-parity order,
    with no phase convention.

    The input is symmetrized by hermitian_part, which checks it.  A matrix that
    conserves Z parity, as every reduced state does, is block diagonal in that
    order, so each eigenvector lies in one block, also at a crossing.
    """
    h = hermitian_part(m)
    blocks, inverse = _PARITY_ORDER[h.shape[0]]
    w, v = np.linalg.eigh(h[blocks])
    return HermitianEigen(w, v[inverse])


def _dagger(m):
    """Conjugate transpose of a matrix or of each matrix in a (..., d, d) stack."""
    return m.conj().swapaxes(-1, -2)


def spectral_matrix(vectors, diagonal):
    """v diag(d) v^dag from eigenvector columns v and the eigenvalues d, for a
    matrix or a (..., d, d) stack."""
    return (vectors * diagonal[..., None, :]) @ _dagger(vectors)


def antihermitian_eigen(a):
    """Eigendecomposition of the Hermitian iA of an anti-Hermitian A, so that
    exp(A s) = v e^{-i w s} v^dag.

    A may be a (..., d, d) stack; the defect check covers the whole stack.
    LAPACK decomposes each matrix of a stack on its own, so each result is
    bitwise that of the matrix alone.
    """
    a = np.asarray(a, dtype=complex)
    a_dag = _dagger(a)
    defect = float(np.abs(a + a_dag).max())
    if not defect <= _ANTIHERMITICITY_TOL:  # NaN fails
        raise ValueError(f"matrix is not anti-Hermitian: max|A + A^dag| = {defect:.3e} "
                         f"> {_ANTIHERMITICITY_TOL:.1e}")
    return HermitianEigen(*np.linalg.eigh(1j * (a - a_dag) / 2))


def unitary_eigen(u):
    """(eigenphases, orthonormal eigenvector columns) of a unitary u whose
    eigenphases lie in (-pi/2, pi/2).

    On that arc an eigenphase w is fixed by sin(w), an eigenvalue of the
    Hermitian (u - u^dag) / 2i, so that matrix's orthonormal eigenvectors Q
    diagonalize u, and w is the argument of the diagonal of Q^dag u Q.
    u may be a (..., d, d) stack.
    """
    u = np.asarray(u, dtype=complex)
    _, q = np.linalg.eigh((u - _dagger(u)) / 2j)
    return np.angle(np.einsum("...ji,...jk,...ki->...i", q.conj(), u, q)), q

