"""Mixed-state geometric phases along the fixed-theta rotation loops.

Two notions are implemented for both the single-site and two-site reduced
states:

* the interferometric phase: argument of the eigenvalue-weighted sum of loop
  amplitudes with the accumulated connection removed, evaluated from the
  spectral decomposition;
* the purification-transport (Uhlmann) phase: the holonomy unitary is the
  ordered product of exp(A(phi) dphi) over a uniform grid of loop.steps
  points, with the commutator-form connection A, and the phase is the
  argument of Tr[rho(0; theta) V(2pi)].  Because the loop is a conjugation
  by e^{K phi}, the product telescopes exactly into a power of one step
  factor; the result is the same finite-step product, with the same
  first-order step error, in O(log steps) matrix products.

Both deviations delta_gamma and delta_gamma_u compare the two-site phase
against twice the single-site phase, each computed with the same code path
as its two-site counterpart, which keeps the deviations free of the spinor
sign of the 2*pi z-rotation.

Loop orientation: with the half-angle convention of ``rotation_single`` the
Bloch vector traverses the theta-cone clockwise, so the pure-state limit of
the single-site phase is +Omega/2 (Omega the enclosed solid angle) and the
closed form is +arctan(m tan(Omega/2)).  The spectral and closed-form values
agree modulo pi; tests pin this down numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError, VisibilityError
from .ising import CouplingRatio, correlators
from .linalg import (
    IDENTITY_2,
    SIGMA_Z,
    commutator,
    expm_antihermitian,
    hermitian_eigen,
    sqrt_psd,
)
from .states import (
    LoopSpec,
    evolve,
    rotation_pair,
    rotation_single,
    single_site_state,
    two_site_state,
)

__all__ = [
    "PhaseRecord",
    "loop_generator",
    "wrap_angle",
    "interferometric_phase",
    "interferometric_phase_from_eigen",
    "single_site_phase_closed",
    "delta_gamma",
    "uhlmann_connection",
    "uhlmann_holonomy",
    "uhlmann_phase",
    "UhlmannResult",
    "delta_gamma_u",
    "compute_phases",
]

_VISIBILITY_EPS = 1e-12


def loop_generator(dim: int) -> np.ndarray:
    """Azimuthal derivative generator K = (dU/dphi) U^dag; constant in phi."""
    if dim == 2:
        return 0.5j * SIGMA_Z
    if dim == 4:
        return 0.5j * (np.kron(SIGMA_Z, IDENTITY_2) + np.kron(IDENTITY_2, SIGMA_Z))
    raise ValueError(f"dim must be 2 or 4, got {dim}")


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(x)) % (2 * np.pi)


def _rotation(dim, phi, theta):
    return rotation_single(phi, theta) if dim == 2 else rotation_pair(phi, theta)


# ---------------------------------------------------------------------------
# interferometric phase
# ---------------------------------------------------------------------------

def _connection_rates_closed(v, theta, k):
    """<n(phi)|d_phi n(phi)> for each eigencolumn; phi-independent here."""
    dim = v.shape[0]
    u0 = _rotation(dim, 0.0, theta)
    k_eff = u0.conj().T @ k @ u0
    return np.einsum("in,ij,jn->n", v.conj(), k_eff, v)


def _connection_rates_quadrature(v, theta, n_panels=128, fd_step=1e-3):
    """Same quantity by composite Simpson over phi with finite-difference dU.

    The derivative uses a fourth-order central stencil so that the comparison
    with the closed form resolves down to ~1e-12.
    """
    dim = v.shape[0]
    phis = np.linspace(0.0, 2 * np.pi, 2 * n_panels + 1)
    weights = np.ones_like(phis)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (phis[1] - phis[0]) / 3.0
    total = np.zeros(v.shape[1], dtype=complex)
    for phi, w in zip(phis, weights):
        u = _rotation(dim, phi, theta)
        du = (
            -_rotation(dim, phi + 2 * fd_step, theta)
            + 8 * _rotation(dim, phi + fd_step, theta)
            - 8 * _rotation(dim, phi - fd_step, theta)
            + _rotation(dim, phi - 2 * fd_step, theta)
        ) / (12 * fd_step)
        g = u.conj().T @ du
        total += w * np.einsum("in,ij,jn->n", v.conj(), g, v)
    return total / (2 * np.pi)


def interferometric_phase_from_eigen(p, v, theta, connection="closed"):
    """Interferometric phase from an explicit spectral decomposition.

    `connection` selects how the parallel-transport integral is evaluated:
    "closed" uses the constant-generator closed form, "quadrature" integrates
    the finite-difference connection numerically; the two agree to ~1e-11.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    u0 = _rotation(dim, 0.0, theta)
    u_end = _rotation(dim, 2 * np.pi, theta)
    overlaps = np.einsum("in,ij,jn->n", v.conj(), u0.conj().T @ u_end, v)
    if connection == "closed":
        rates = _connection_rates_closed(v, theta, loop_generator(dim))
    elif connection == "quadrature":
        rates = _connection_rates_quadrature(v, theta)
    else:
        raise ValueError(f"unknown connection method {connection!r}")
    amplitude = np.sum(p * overlaps * np.exp(-2 * np.pi * rates))
    if abs(amplitude) < _VISIBILITY_EPS:
        raise VisibilityError(abs(amplitude), _VISIBILITY_EPS)
    return float(np.angle(amplitude))


def interferometric_phase(rho, theta, connection="closed"):
    """Interferometric phase of a 2x2 or 4x4 density matrix along the loop."""
    eig = hermitian_eigen(rho)
    return interferometric_phase_from_eigen(eig.values, eig.vectors, theta, connection)


def single_site_phase_closed(m, theta):
    """Closed form arctan(m tan(Omega/2)) with Omega = 2pi(1 - cos theta).

    Principal arctan branch; at the branch points Omega/2 = pi/2 + k*pi the
    value saturates to +/-(pi/2)*sign(m).  Agrees with the spectral value
    modulo pi.
    """
    if abs(m) > 1:
        raise ValueError(f"|m| = {abs(m)} exceeds 1")
    half_solid_angle = np.pi * (1 - np.cos(theta))
    return float(np.arctan(m * np.tan(half_solid_angle)))


def delta_gamma(lam, r, theta, quad_tol=1e-10, quad_max_depth=40):
    """Two-site interferometric phase minus twice the single-site one, in (-pi, pi]."""
    params = CouplingRatio(lam, quad_tol, quad_max_depth)
    c = correlators(r, params)
    gamma_pair = interferometric_phase(two_site_state(c).matrix, theta)
    gamma_single = interferometric_phase(single_site_state(c.m).matrix, theta)
    return float(wrap_angle(gamma_pair - 2 * gamma_single))


# ---------------------------------------------------------------------------
# Uhlmann phase
# ---------------------------------------------------------------------------

def uhlmann_connection(rho_phi, k=None, rank_eps=1e-8):
    """Anti-Hermitian transport connection of a full-rank state at one phi.

    Matrix elements <n|[d_phi sqrt(rho), sqrt(rho)]|m> / (p_n + p_m) in the
    instantaneous eigenbasis, mapped back to the fixed basis.  The derivative
    of sqrt(rho) is the commutator [K, sqrt(rho)], exact for this conjugated
    family.
    """
    rho_phi = np.asarray(rho_phi, dtype=complex)
    if k is None:
        k = loop_generator(rho_phi.shape[0])
    p, v = hermitian_eigen(rho_phi)
    if p[0] < rank_eps:
        raise RankDeficientError(float(p[0]), rank_eps)
    s = sqrt_psd(rho_phi)
    c = commutator(commutator(k, s), s)
    ct = v.conj().T @ c @ v
    a = v @ (ct / (p[:, None] + p[None, :])) @ v.conj().T
    return (a - a.conj().T) / 2


def sqrt_rho_derivative_fd(rho, theta, phi, step=1e-5):
    """Central finite-difference d_phi sqrt(rho(phi; theta)); test oracle."""
    s_plus = sqrt_psd(evolve(rho, phi + step, theta))
    s_minus = sqrt_psd(evolve(rho, phi - step, theta))
    return (s_plus - s_minus) / (2 * step)


def _holonomy_matrix(a0, k, steps):
    """Ordered product of exp(A(phi_j) dphi) over the uniform phi grid.

    The family is rho(phi) = e^{K phi} rho(0) e^{-K phi}, so the connection is
    covariant, A(phi) = e^{K phi} A(0) e^{-K phi}, and the ordered product
    over phi_j = j dphi, j = 0 .. steps-1, telescopes exactly to
    e^{2 pi K} (e^{-K dphi} e^{A(0) dphi})^steps.  This is the same finite-step
    product, not its steps -> inf limit.
    """
    dphi = 2 * np.pi / steps
    step = expm_antihermitian(k, -dphi) @ expm_antihermitian(a0, dphi)
    return expm_antihermitian(k, 2 * np.pi) @ np.linalg.matrix_power(step, steps)


def _check_full_rank(rho, rank_eps, lam=None):
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < rank_eps:
        raise RankDeficientError(min_eig, rank_eps, lam=lam)


def uhlmann_holonomy(rho, loop: LoopSpec, rank_eps=1e-8):
    """Holonomy unitary V(2pi) accumulated over loop.steps grid points."""
    rho = np.asarray(rho, dtype=complex)
    _check_full_rank(rho, rank_eps)
    k = loop_generator(rho.shape[0])
    a0 = uhlmann_connection(evolve(rho, 0.0, loop.theta), k, rank_eps)
    return _holonomy_matrix(a0, k, loop.steps)


@dataclass(frozen=True)
class UhlmannResult:
    phase: float
    convergence_estimate: float
    steps: int


def uhlmann_phase(rho, loop: LoopSpec, rank_eps=1e-8) -> UhlmannResult:
    """Phase arg Tr[rho(0; theta) V(2pi)] with a step-halving error estimate."""
    rho = np.asarray(rho, dtype=complex)
    _check_full_rank(rho, rank_eps)
    base = evolve(rho, 0.0, loop.theta)
    k = loop_generator(rho.shape[0])
    a0 = uhlmann_connection(base, k, rank_eps)

    def phase_at(steps):
        t = np.trace(base @ _holonomy_matrix(a0, k, steps))
        if abs(t) < _VISIBILITY_EPS:
            raise VisibilityError(abs(t), _VISIBILITY_EPS)
        return float(np.angle(t))

    full = phase_at(loop.steps)
    half = phase_at(loop.steps // 2)
    return UhlmannResult(
        phase=full,
        convergence_estimate=float(abs(wrap_angle(full - half))),
        steps=loop.steps,
    )


def delta_gamma_u(lam, r, theta, steps=2000, quad_tol=1e-10, quad_max_depth=40,
                  rank_eps=1e-8):
    """Two-site Uhlmann phase minus twice the single-site one, in (-pi, pi]."""
    params = CouplingRatio(lam, quad_tol, quad_max_depth)
    c = correlators(r, params)
    pair = two_site_state(c).matrix
    single = single_site_state(c.m).matrix
    _check_full_rank(pair, rank_eps, lam=lam)
    _check_full_rank(single, rank_eps, lam=lam)
    loop = LoopSpec(theta=theta, steps=steps)
    res_pair = uhlmann_phase(pair, loop, rank_eps)
    res_single = uhlmann_phase(single, loop, rank_eps)
    return float(wrap_angle(res_pair.phase - 2 * res_single.phase))


# ---------------------------------------------------------------------------
# combined per-point driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseRecord:
    """All phases computed at one (lambda, r, theta) grid point.

    Fields left as None were not requested or not computable; angles are in
    (-pi, pi].
    """

    gamma_int_pair: float | None = None
    gamma_int_single: float | None = None
    delta_gamma: float | None = None
    gamma_u_pair: float | None = None
    gamma_u_single: float | None = None
    delta_gamma_u: float | None = None
    steps_used: int = 0
    convergence_estimate: float = 0.0


def compute_phases(lam, r, theta, kinds=("interferometric", "uhlmann"),
                   loop_steps=2000, quad_tol=1e-10, quad_max_depth=40,
                   rank_eps=1e-8) -> PhaseRecord:
    """Evaluate the requested phase kinds at one parameter point.

    Raises the underlying error (quadrature, rank, visibility, unphysical
    state) instead of masking it; sweep drivers map errors to status rows.
    theta and loop_steps are checked by ``LoopSpec`` for every kind.
    """
    loop = LoopSpec(theta=theta, steps=loop_steps)
    params = CouplingRatio(lam, quad_tol, quad_max_depth)
    c = correlators(r, params)
    pair = two_site_state(c).matrix
    single = single_site_state(c.m).matrix

    gamma_int_pair = gamma_int_single = dg = None
    gamma_u_pair = gamma_u_single = dgu = None
    steps_used = 0
    convergence = 0.0

    if "interferometric" in kinds:
        gamma_int_pair = interferometric_phase(pair, theta)
        gamma_int_single = interferometric_phase(single, theta)
        dg = float(wrap_angle(gamma_int_pair - 2 * gamma_int_single))

    if "uhlmann" in kinds:
        _check_full_rank(pair, rank_eps, lam=lam)
        _check_full_rank(single, rank_eps, lam=lam)
        res_pair = uhlmann_phase(pair, loop, rank_eps)
        res_single = uhlmann_phase(single, loop, rank_eps)
        gamma_u_pair = res_pair.phase
        gamma_u_single = res_single.phase
        dgu = float(wrap_angle(gamma_u_pair - 2 * gamma_u_single))
        steps_used = loop_steps
        convergence = max(res_pair.convergence_estimate, res_single.convergence_estimate)

    return PhaseRecord(
        gamma_int_pair=gamma_int_pair,
        gamma_int_single=gamma_int_single,
        delta_gamma=dg,
        gamma_u_pair=gamma_u_pair,
        gamma_u_single=gamma_u_single,
        delta_gamma_u=dgu,
        steps_used=steps_used,
        convergence_estimate=convergence,
    )
