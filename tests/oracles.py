"""Reference implementations that only the tests use.

* ``evolve``: the loop's state U(phi) rho U(phi)^dag from ``loop_unitary``.
* ``dense_exact_diag_correlators``: the exact-diagonalization oracle with the
  full dense 2^n Hamiltonian and ``scipy.linalg.eigh``, against which the
  symmetry-reduced solver of ``ising.exact_diag_correlators`` is pinned.  It
  costs about 8 s at n = 12, so the suite uses it up to n = 10.
"""

import numpy as np
import scipy.linalg

from tfim_phases import ising
from tfim_phases.states import loop_unitary


def evolve(rho, phi, theta):
    """U(phi) rho U(phi)^dag on one site (2x2) or on the pair (4x4)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    u = loop_unitary(phi, theta, rho.shape[0])
    return u @ rho @ u.conj().T


def dense_chain_hamiltonian(n_sites, lam):
    """H = -lam sum_j X_j X_{j+1} - sum_j Z_j, periodic, as a dense array."""
    dim = 1 << n_sites
    idx = np.arange(dim)
    bits = [((idx >> j) & 1) for j in range(n_sites)]
    h = np.zeros((dim, dim))
    h[idx, idx] = -sum((1 - 2 * b) for b in bits).astype(float)
    for j in range(n_sites):
        mask = (1 << j) | (1 << ((j + 1) % n_sites))
        h[idx ^ mask, idx] += -lam
    return h


def dense_exact_diag_correlators(n_sites, lam):
    """{r: Correlators} from the two lowest states of the dense Hamiltonian."""
    ising.check_chain_size(n_sites)
    w, v = scipy.linalg.eigh(dense_chain_hamiltonian(n_sites, lam), subset_by_index=[0, 1])
    return ising._ground_correlators(n_sites, w, v)
