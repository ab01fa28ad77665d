"""Reference implementations that only the tests use.

* ``evolve``: the loop's state U(phi) rho U(phi)^dag from ``loop_unitary``.
* ``dense_exact_diag_correlators``: the exact-diagonalization oracle with the
  full dense 2^n Hamiltonian and ``scipy.linalg.eigh``, against which the
  symmetry-reduced solver of ``ising.exact_diag_correlators`` is pinned.  It
  costs about 8 s at n = 12, so the suite uses it up to n = 10.
* ``pair_spectrum``, ``pair_amplitude`` and ``single_amplitude``: the
  closed forms of the two-site spectrum and of both interferometric
  amplitudes, fixed by the symmetries of the X-shaped state (it commutes
  with SWAP and with Z x Z).
* ``product_form_holonomy``, ``product_form_uhlmann`` and
  ``product_form_interferometric``: both phase kernels with the loop's
  factors e^{2 pi K} and e^{-K dphi} applied as matrix products built by
  ``loop_unitary``, against which the kernels' exact full-turn sign and
  row scale are pinned.
"""

import numpy as np
import scipy.linalg

from tfim_phases import ising
from tfim_phases.linalg import expm_antihermitian, hermitian_eigen, unitary_power
from tfim_phases.phases import _loop_start, wrap_angle
from tfim_phases.states import loop_generator, loop_unitary


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


def pair_spectrum(c):
    """(p+, p-, T0, S): the eigenvalues of the two-site state of correlators c.

    In span{|00>, |11>}, p+- = (1 + c_zz)/4 +- R with
    R = sqrt(m^2/4 + (c_xx - c_yy)^2/16); p- is taken as det / p+ of that
    block, free of the cancellation of the difference.  The triplet
    T0 = (|01> + |10>)/sqrt 2 and the singlet S have the weights
    (1 - c_zz +- (c_xx + c_yy))/4.
    """
    rho_00 = (1 + 2 * c.m + c.c_zz) / 4
    rho_33 = (1 - 2 * c.m + c.c_zz) / 4
    rho_03 = (c.c_xx - c.c_yy) / 4
    p_plus = (1 + c.c_zz) / 4 + _radius(c)
    p_minus = (rho_00 * rho_33 - rho_03**2) / p_plus
    return (p_plus, p_minus, (1 - c.c_zz + c.c_xx + c.c_yy) / 4,
            (1 - c.c_zz - c.c_xx - c.c_yy) / 4)


def _radius(c):
    return np.sqrt(c.m**2 / 4 + (c.c_xx - c.c_yy) ** 2 / 16)


def pair_amplitude(c, theta):
    """The two-site interferometric amplitude along the loop at theta.

    On the pair e^{2 pi K} = I, and U(0) turns each eigenvector's <K> into
    i cos(theta) <S_z>: +-m/(2R) on the |00>, |11> block, 0 on T0 and S.
    """
    radius = _radius(c)
    phi = np.pi * c.m * np.cos(theta) / radius
    return (1 - c.c_zz) / 2 + (1 + c.c_zz) / 2 * np.cos(phi) - 2j * radius * np.sin(phi)


def single_amplitude(m, theta):
    """The single-site interferometric amplitude along the loop at theta."""
    angle = np.pi * np.cos(theta)
    return -(np.cos(angle) - 1j * m * np.sin(angle))


def product_form_holonomy(a0, steps):
    """e^{2 pi K} (e^{-K dphi} e^{A(0) dphi})^steps, each loop factor a matrix."""
    dim = a0.shape[-1]
    dphi = 2 * np.pi / steps
    step = loop_unitary(-dphi, 0.0, dim) @ expm_antihermitian(a0, dphi)
    return loop_unitary(2 * np.pi, 0.0, dim) @ unitary_power(step, steps)


def product_form_uhlmann(rho, theta, steps, rank_eps=1e-8):
    """(gamma_N, |wrap(gamma_N - gamma_inf)|) per theta of a 1-D theta, with
    V_inf = e^{2 pi K} e^{2 pi (A(0) - K)} as a matrix product."""
    base, a0 = _loop_start(rho, np.atleast_1d(theta), rank_eps)
    dim = a0.shape[-1]
    v_inf = loop_unitary(2 * np.pi, 0.0, dim) @ expm_antihermitian(
        a0 - loop_generator(dim), 2 * np.pi)
    gamma_n, gamma_inf = (np.angle(np.trace(base @ v, axis1=-2, axis2=-1))
                          for v in (product_form_holonomy(a0, steps), v_inf))
    return gamma_n, np.abs(wrap_angle(gamma_n - gamma_inf))


def product_form_interferometric(rho, theta):
    """Interferometric phase per theta of a 1-D theta, with each amplitude's
    full turn the overlap <w_n|e^{2 pi K}|w_n> of the weights |w_n|^2."""
    p, v = hermitian_eigen(rho)
    dim = len(p)
    weights = np.abs(loop_unitary(0.0, np.atleast_1d(theta), dim) @ v) ** 2
    k = np.diag(loop_generator(dim))
    overlaps = np.exp(2 * np.pi * k) @ weights
    rates = k @ weights
    return np.angle(np.sum(p * overlaps * np.exp(-2 * np.pi * rates), axis=-1))
