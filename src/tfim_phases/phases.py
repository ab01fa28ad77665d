"""Mixed-state geometric phases along the fixed-theta rotation loops.

Two notions are implemented for both the single-site and two-site reduced
states.  Since U(phi) = e^{K phi} U(0), each depends on the loop only
through K and U(0), and each takes one eigendecomposition rho = v p v^dag,
whose eigenvectors the loop carries to w = U(0) v:

* the interferometric phase: argument of the eigenvalue-weighted sum of loop
  amplitudes <w_n|e^{2 pi K}|w_n> with the connection phase
  2 pi <w_n|K|w_n> removed;
* the purification-transport (Uhlmann) phase: the holonomy unitary is the
  ordered product of exp(A(phi) dphi) over a uniform grid of loop.steps
  points, with the connection A(0) in closed form in the eigenbasis w, and
  the phase is the argument of Tr[rho(0; theta) V(2pi)].  Because the loop
  is a conjugation by e^{K phi}, the product telescopes exactly into a power
  of one step factor; the result is the same finite-step product, with the
  same first-order step error, in O(log steps) matrix products.

Both deviations delta_gamma and delta_gamma_u compare the two-site phase
against twice the single-site phase, each computed with the same code path
as its two-site counterpart, which keeps the deviations free of the spinor
sign of the 2*pi z-rotation.

Loop orientation: with the half-angle convention of ``loop_unitary`` the
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
from .linalg import expm_antihermitian, hermitian_eigen
from .states import (
    LoopSpec,
    loop_generator,
    loop_unitary,
    single_site_state,
    two_site_state,
)

__all__ = [
    "PhaseRecord",
    "wrap_angle",
    "interferometric_phase",
    "interferometric_phase_from_eigen",
    "single_site_phase_closed",
    "uhlmann_connection",
    "uhlmann_holonomy",
    "uhlmann_phase",
    "UhlmannResult",
    "compute_phases",
]

_VISIBILITY_EPS = 1e-12

# A state whose smallest eigenvalue is below this has no Uhlmann phase.
RANK_EPS = 1e-8


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(x)) % (2 * np.pi)


# ---------------------------------------------------------------------------
# interferometric phase
# ---------------------------------------------------------------------------

def interferometric_phase_from_eigen(p, v, theta):
    """Interferometric phase from an explicit spectral decomposition.

    K is diagonal, so <w_n|e^{2 pi K}|w_n> and <w_n|K|w_n> are sums over its
    diagonal weighted by |w_n|^2.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    weights = np.abs(loop_unitary(0.0, theta, dim) @ v) ** 2
    k = np.diagonal(loop_generator(dim))
    overlaps = np.exp(2 * np.pi * k) @ weights
    rates = k @ weights
    amplitude = np.sum(p * overlaps * np.exp(-2 * np.pi * rates))
    if abs(amplitude) < _VISIBILITY_EPS:
        raise VisibilityError(abs(amplitude), _VISIBILITY_EPS)
    return float(np.angle(amplitude))


def interferometric_phase(rho, theta):
    """Interferometric phase of a 2x2 or 4x4 density matrix along the loop."""
    eig = hermitian_eigen(rho)
    return interferometric_phase_from_eigen(eig.values, eig.vectors, theta)


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


# ---------------------------------------------------------------------------
# Uhlmann phase
# ---------------------------------------------------------------------------

def _loop_start(rho, theta, rank_eps):
    """rho(0; theta) and A(0) from one decomposition of rho, after the rank check.

    In the eigenbasis w = U(0) v of rho(0; theta), the commutator-form
    connection [[K, sqrt(rho)], sqrt(rho)] / (p_n + p_m) is
    K'_nm (sqrt p_m - sqrt p_n)^2 / (p_n + p_m), with K' = w^dag K w.
    """
    p, v = hermitian_eigen(rho)
    if p[0] < rank_eps:
        raise RankDeficientError(float(p[0]), rank_eps)
    dim = len(p)
    w = loop_unitary(0.0, theta, dim) @ v
    w_dag = w.conj().T
    k_eig = (w_dag * np.diagonal(loop_generator(dim))) @ w
    sqrt_p = np.sqrt(p)
    a_eig = k_eig * (sqrt_p[None, :] - sqrt_p[:, None]) ** 2 / (p[:, None] + p[None, :])
    return (w * p) @ w_dag, w @ a_eig @ w_dag


def uhlmann_connection(rho, rank_eps=RANK_EPS):
    """Anti-Hermitian transport connection A(0) of e^{K phi} rho e^{-K phi}."""
    return _loop_start(rho, 0.0, rank_eps)[1]


def _holonomy_matrix(a0, steps):
    """Ordered product of exp(A(phi_j) dphi) over the uniform phi grid.

    The family is rho(phi) = e^{K phi} rho(0) e^{-K phi}, so the connection is
    covariant, A(phi) = e^{K phi} A(0) e^{-K phi}, and the ordered product
    over phi_j = j dphi, j = 0 .. steps-1, telescopes exactly to
    e^{2 pi K} (e^{-K dphi} e^{A(0) dphi})^steps.  This is the same finite-step
    product, not its steps -> inf limit.
    """
    dim = a0.shape[0]
    dphi = 2 * np.pi / steps
    step = loop_unitary(-dphi, 0.0, dim) @ expm_antihermitian(a0, dphi)
    return loop_unitary(2 * np.pi, 0.0, dim) @ np.linalg.matrix_power(step, steps)


def uhlmann_holonomy(rho, loop: LoopSpec, rank_eps=RANK_EPS):
    """Holonomy unitary V(2pi) accumulated over loop.steps grid points."""
    _, a0 = _loop_start(rho, loop.theta, rank_eps)
    return _holonomy_matrix(a0, loop.steps)


@dataclass(frozen=True)
class UhlmannResult:
    phase: float
    convergence_estimate: float
    steps: int


def uhlmann_phase(rho, loop: LoopSpec, rank_eps=RANK_EPS) -> UhlmannResult:
    """Phase arg Tr[rho(0; theta) V(2pi)] with a step-halving error estimate."""
    base, a0 = _loop_start(rho, loop.theta, rank_eps)

    def phase_at(steps):
        t = np.trace(base @ _holonomy_matrix(a0, steps))
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
    convergence_estimate: float | None = None


def compute_phases(lam, r, theta, kinds=("interferometric", "uhlmann"),
                   loop_steps=LoopSpec.steps, quad_tol=CouplingRatio.quad_tol,
                   rank_eps=RANK_EPS) -> PhaseRecord:
    """Evaluate the requested phase kinds at one parameter point.

    Raises the underlying error (quadrature, rank, visibility, unphysical
    state) instead of masking it; sweep drivers map errors to status rows.
    theta, loop_steps and rank_eps are checked before any work, for every
    kind.  Each requested kind decomposes each state once.
    """
    loop = LoopSpec(theta=theta, steps=loop_steps)
    if not rank_eps > 0:
        raise ValueError(f"rank_eps must be > 0, got {rank_eps}")
    c = correlators(r, CouplingRatio(lam, quad_tol))
    pair = two_site_state(c).matrix
    single = single_site_state(c.m).matrix

    gamma_int_pair = gamma_int_single = dg = None
    gamma_u_pair = gamma_u_single = dgu = None
    steps_used = 0
    convergence = None

    if "interferometric" in kinds:
        gamma_int_pair = interferometric_phase(pair, theta)
        gamma_int_single = interferometric_phase(single, theta)
        dg = float(wrap_angle(gamma_int_pair - 2 * gamma_int_single))

    if "uhlmann" in kinds:
        try:
            res_pair = uhlmann_phase(pair, loop, rank_eps)
            res_single = uhlmann_phase(single, loop, rank_eps)
        except RankDeficientError as exc:
            raise RankDeficientError(exc.min_eigenvalue, exc.rank_eps, lam=lam) from exc
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
