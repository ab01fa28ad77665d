"""Reference implementations that only the tests use.

* ``SIGMA_X``, ``SIGMA_Y``, ``SIGMA_Z``, ``commutator`` and ``sqrt_psd``: the
  Pauli matrices, AB - BA, and the Hermitian PSD square root from
  ``hermitian_eigen``, the kernels that the tests build their oracles from.
* ``expm_antihermitian`` and ``unitary_power``: exp(A s) and u^n composed
  from the ``linalg`` primitives, ``antihermitian_eigen`` or
  ``unitary_eigen`` and then ``spectral_matrix``, with the arithmetic that
  the Uhlmann kernel's step factor and power use.
* ``evolve``: the loop's state U(phi) rho U(phi)^dag from ``loop_unitary``.
* ``dense_exact_diag_correlators``: the exact-diagonalization oracle with the
  full dense 2^n Hamiltonian and ``scipy.linalg.eigh``, against which the
  symmetry-reduced solver of ``ising.exact_diag_correlators`` is pinned.  It
  costs about 8 s at n = 12, so the suite uses it up to n = 10.
* ``ed_ground_states`` and ``traced_pair_state``: the exact-diagonalization
  ground states that ``ising.exact_diag_correlators`` averages over, and
  their mean reduced state on sites (0, r), against which ``two_site_state``
  of the ED correlators is pinned.
* ``finite_ring_elements`` and ``free_fermion_ring_correlators``: the
  exact correlators of the even-parity ground state of the n-site ring from
  its antiperiodic free fermions, with a Toeplitz layout of their own,
  against which ``ising.exact_diag_correlators`` is pinned to round-off.
* ``pair_spectrum``, ``pair_amplitude`` and ``single_amplitude``: the
  closed forms of the two-site spectrum and of both interferometric
  amplitudes, fixed by the symmetries of the X-shaped state (it commutes
  with SWAP and with Z x Z).
* ``product_form_holonomy``, ``product_form_uhlmann`` and
  ``product_form_interferometric``: both phase kernels with the loop's
  factors e^{2 pi K} and e^{-K dphi} applied as matrix products built by
  ``loop_unitary``, against which the kernels' exact full-turn sign and
  row scale are pinned.
* ``row_scale_holonomy``: the finite-step holonomy FULL_TURN_SIGN * step^N,
  with its step factor, the exponential and the power written out in numpy
  alone, against which ``uhlmann_holonomy`` is pinned bitwise.
* ``mpmath_single_site_traces``: the interferometric amplitude and both
  Uhlmann traces of a 2x2 state at 30 digits, the step factor's power by
  repeated squaring, against which the single-site closed forms are pinned
  on general Bloch vectors, where the double-precision spectral path loses
  digits.
"""

import mpmath
import numpy as np
import scipy.linalg

from tfim_phases import ising
from tfim_phases.linalg import antihermitian_eigen, hermitian_eigen, spectral_matrix, unitary_eigen
from tfim_phases.phases import _loop_start, wrap_angle
from tfim_phases.states import FULL_TURN_SIGN, generator_diagonal, loop_generator, loop_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def expm_antihermitian(a, s=1.0):
    """exp(A s) for an anti-Hermitian A (or a stack): v e^{-i w s} v^dag from
    the antihermitian_eigen (w, v) of A."""
    w, v = antihermitian_eigen(a)
    return spectral_matrix(v, np.exp(-1j * w * s))


def unitary_power(u, n):
    """u^n = Q e^{i n w} Q^dag from the unitary_eigen (w, Q) of u (or a stack)."""
    phases, q = unitary_eigen(u)
    return spectral_matrix(q, np.exp(1j * n * phases))


def sqrt_psd(m):
    """Hermitian PSD square root; eigenvalues in [-1e-12, 0) are clamped to 0."""
    w, v = hermitian_eigen(m)
    if w[0] < -1e-12:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} < -1.0e-12")
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return (s + s.conj().T) / 2


def commutator(a, b):
    """AB - BA."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


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


def ed_ground_states(n_sites, lam):
    """The states that exact_diag_correlators averages over, as columns over
    the 2^n basis: the lower sector ground state, and the other one too when
    the two are quasi-degenerate (gap below ising._DEGENERACY_GAP)."""
    energies, vectors = ising._sector_ground_states(n_sites, lam)
    order = np.argsort(energies)
    kept = 2 if energies[order[1]] - energies[order[0]] < ising._DEGENERACY_GAP else 1
    return vectors[:, order[:kept]]


def traced_pair_state(states, r):
    """Mean over the columns psi of states of |psi><psi| traced down to sites
    0 and r, in the basis |s_0 s_r> with site 0 the left factor.  Bit j of a
    basis index is site j, and bit value 0 is the Z = +1 state |0>."""
    n_sites = states.shape[0].bit_length() - 1
    # axis n - j of each state's tensor is site j
    tensors = states.T.reshape(-1, *(2,) * n_sites)
    pair = np.moveaxis(tensors, [n_sites, n_sites - r], [1, 2]).reshape(len(tensors), 4, -1)
    return np.mean(pair @ pair.conj().swapaxes(-1, -2), axis=0)


def finite_ring_elements(n_sites, lam, k):
    """G_k^(N) = (1/N) sum_q [cos(q k) + lam cos(q (k+1))] / eps(q) at each
    entry of the integer array k, over the antiperiodic momenta
    q = pi (2j + 1) / N of the even-parity sector (Lieb, Schultz & Mattis,
    Ann. Phys. 16, 407 (1961)), with eps(q) = |1 + lam e^{iq}|."""
    q = np.pi * (2 * np.arange(n_sites) + 1) / n_sites
    eps = np.sqrt(1 + 2 * lam * np.cos(q) + lam * lam)
    k = np.asarray(k)[..., None]
    return np.mean((np.cos(q * k) + lam * np.cos(q * (k + 1))) / eps, axis=-1)


def free_fermion_ring_correlators(n_sites, lam):
    """{r: Correlators} of the even-parity ground state of the n-site ring,
    r = 1 .. n_sites // 2: m = G_0, c_xx = det[G_{j-i-1}], c_yy = det[G_{i-j+1}]
    over 0 <= i, j < r, and c_zz = m^2 - G_r G_{-r}."""
    m = float(finite_ring_elements(n_sites, lam, 0))
    out = {}
    for r in range(1, n_sites // 2 + 1):
        i, j = np.indices((r, r))
        g_r, g_minus_r = finite_ring_elements(n_sites, lam, [r, -r])
        out[r] = ising.Correlators(
            r=r, m=m,
            c_xx=float(np.linalg.det(finite_ring_elements(n_sites, lam, j - i - 1))),
            c_yy=float(np.linalg.det(finite_ring_elements(n_sites, lam, i - j + 1))),
            c_zz=float(m * m - g_r * g_minus_r))
    return out


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


def row_scale_holonomy(a0, steps):
    """FULL_TURN_SIGN * (e^{-K dphi} e^{A(0) dphi})^steps, with e^{-K dphi} a row
    scale, exp(A(0) dphi) from the eigendecomposition of i A(0) and the power
    from the eigenphases of the step factor, each as numpy alone computes it."""
    dim = a0.shape[-1]
    dphi = 2 * np.pi / steps

    def dagger(m):
        return m.conj().swapaxes(-1, -2)

    w, v = np.linalg.eigh(1j * (a0 - dagger(a0)) / 2)
    exp_a0 = (v * np.exp(-1j * w * dphi)[..., None, :]) @ dagger(v)
    step = np.exp(-dphi * generator_diagonal(dim))[:, None] * exp_a0
    _, q = np.linalg.eigh((step - dagger(step)) / 2j)
    phases = np.angle(np.einsum("...ji,...jk,...ki->...i", q.conj(), step, q))
    return FULL_TURN_SIGN[dim] * ((q * np.exp(1j * steps * phases)[..., None, :]) @ dagger(q))


def product_form_uhlmann(rho, theta, steps, rank_eps=1e-8):
    """(gamma_N, |wrap(gamma_N - gamma_inf)|, visibility) per theta of a 1-D
    theta, with V_inf = e^{2 pi K} e^{2 pi (A(0) - K)} as a matrix product and
    the visibility the smaller of |Tr[rho(0) V(2pi)]| and |Tr[rho(0) V_inf]|.
    It takes the spectral path on a 2x2 state too, as a reference for the
    single site's closed form."""
    p, w_dag, a0 = _loop_start(rho, np.atleast_1d(theta), rank_eps)
    base = (w_dag.conj().swapaxes(-1, -2) * p) @ w_dag
    dim = a0.shape[-1]
    v_inf = loop_unitary(2 * np.pi, 0.0, dim) @ expm_antihermitian(
        a0 - loop_generator(dim), 2 * np.pi)
    traces = [np.trace(base @ v, axis1=-2, axis2=-1)
              for v in (product_form_holonomy(a0, steps), v_inf)]
    gamma_n, gamma_inf = np.angle(traces)
    return (gamma_n, np.abs(wrap_angle(gamma_n - gamma_inf)),
            np.minimum(*np.abs(traces)))


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


def mpmath_single_site_traces(rho, theta, steps, dps=30):
    """The interferometric amplitude and the traces Tr[rho(0) V(2pi)] and
    Tr[rho(0) V_inf] of a 2x2 state at dps digits, as Python complex numbers.

    From mpmath's eighe of rho(0; theta): the amplitude
    -sum_n p_n e^{-2 pi <n|K|n>}, A(0) in that eigenbasis,
    V(2pi) = -step^N by repeated squaring of step = e^{-K dphi} e^{A(0) dphi},
    and V_inf = -e^{2 pi (A(0) - K)}.
    """
    with mpmath.workdps(dps):
        half = mpmath.mpf(theta) / 2
        u0 = mpmath.matrix([[mpmath.cos(half), -mpmath.sin(half)],
                            [mpmath.sin(half), mpmath.cos(half)]])
        rho0 = u0 * mpmath.matrix(np.asarray(rho, dtype=complex).tolist()) * u0.H
        p, v = mpmath.eighe((rho0 + rho0.H) / 2)
        k = mpmath.diag([mpmath.mpc(0, 0.5), mpmath.mpc(0, -0.5)])
        k_eig = v.H * k * v
        amplitude = -sum(p[n] * mpmath.exp(-2 * mpmath.pi * k_eig[n, n]) for n in range(2))
        a0 = v * mpmath.matrix([[k_eig[i, j] * (mpmath.sqrt(p[j]) - mpmath.sqrt(p[i])) ** 2
                                 / (p[i] + p[j]) for j in range(2)] for i in range(2)]) * v.H
        dphi = 2 * mpmath.pi / steps
        factor, power = mpmath.expm(-k * dphi) * mpmath.expm(a0 * dphi), mpmath.eye(2)
        while steps:
            if steps & 1:
                power = power * factor
            factor, steps = factor * factor, steps >> 1
        traces = [-(rho0 * x)[0, 0] - (rho0 * x)[1, 1]
                  for x in (power, mpmath.expm(2 * mpmath.pi * (a0 - k)))]
        return tuple(complex(x) for x in (amplitude, *traces))
