"""Mixed-state geometric phases along the fixed-theta rotation loops.

Two notions are implemented for both the single-site and two-site reduced
states.  Since U(phi) = e^{K phi} U(0), with K diagonal and the full turn
e^{2 pi K} the exact sign FULL_TURN_SIGN[dim], each builds no loop unitary
but U(0), and each takes one eigendecomposition rho = v p v^dag, whose
eigenvectors the loop carries to w = U(0) v:

* the interferometric phase: argument of the eigenvalue-weighted sum of loop
  amplitudes <w_n|e^{2 pi K}|w_n> with the connection phase
  2 pi <w_n|K|w_n> removed;
* the purification-transport (Uhlmann) phase: the holonomy unitary is the
  ordered product of exp(A(phi) dphi) over a uniform grid of loop.steps
  points, with the connection A(0) in closed form in the eigenbasis w, and
  the phase is the argument of Tr[rho(0; theta) V(2pi)].  Because the loop
  is a conjugation by e^{K phi}, the product telescopes exactly into a power
  of one step factor; the result is the same finite-step product, from one
  eigendecomposition of the step factor.  By Lie-Trotter it tends to
  V_inf = e^{2 pi K} e^{2 pi (A(0) - K)}, the matrix at first order in the
  step and the phase at second order; the phase of V_inf gives the step error.

Each kernel takes theta (the Uhlmann kernel as LoopSpec.theta) as a float,
or as a sequence evaluated as one stack of loops from the one decomposition
into a tuple of per-theta values.  Every failure is raised, for a stack as
for a float: a VisibilityError if any amplitude or trace vanishes, naming it.

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
from .linalg import expm_antihermitian, hermitian_eigen, unitary_power
from .states import (
    FULL_TURN_SIGN,
    LoopSpec,
    generator_diagonal,
    loop_generator,
    loop_unitary,
    single_site_state,
    two_site_state,
)

__all__ = [
    "KINDS",
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

# The phase kinds compute_phases evaluates; the sweep and the CLI take these.
KINDS = ("interferometric", "uhlmann")

_VISIBILITY_EPS = 1e-12

# A state whose smallest eigenvalue is below this has no Uhlmann phase.
RANK_EPS = 1e-8


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(x)) % (2 * np.pi)


# ---------------------------------------------------------------------------
# interferometric phase
# ---------------------------------------------------------------------------

def _phases(amplitudes):
    """arg of each amplitude of a stack; raises the VisibilityError of the
    smallest magnitude if any is below _VISIBILITY_EPS."""
    vanishing = [x for x in np.abs(amplitudes).tolist() if x < _VISIBILITY_EPS]
    if vanishing:
        raise VisibilityError(min(vanishing), _VISIBILITY_EPS)
    return np.angle(amplitudes)


def interferometric_phase_from_eigen(p, v, theta):
    """Interferometric phase from an explicit spectral decomposition.

    <w_n|K|w_n> is a sum over the diagonal of K weighted by |w_n|^2; these
    weights sum to 1, so <w_n|e^{2 pi K}|w_n> is the full-turn sign.  A theta
    sequence is evaluated as one stack and gives a tuple with one phase per
    theta; if any theta's amplitude vanishes, the VisibilityError names it.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    weights = np.abs(loop_unitary(0.0, np.atleast_1d(theta), dim) @ v) ** 2
    rates = generator_diagonal(dim) @ weights
    amplitudes = FULL_TURN_SIGN[dim] * np.sum(p * np.exp(-2 * np.pi * rates), axis=-1)
    gammas = _phases(amplitudes).tolist()
    return tuple(gammas) if np.ndim(theta) else gammas[0]


def interferometric_phase(rho, theta):
    """Interferometric phase of a 2x2 or 4x4 density matrix along the loop
    (a tuple of phases for a theta sequence, as from the eigen form)."""
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
    A 1-D theta gives both as (len(theta), dim, dim) stacks.
    """
    p, v = hermitian_eigen(rho)
    if p[0] < rank_eps:
        raise RankDeficientError(float(p[0]), rank_eps)
    dim = len(p)
    w = loop_unitary(0.0, theta, dim) @ v
    w_dag = w.conj().swapaxes(-1, -2)
    k_eig = (w_dag * generator_diagonal(dim)) @ w
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
    e^{2 pi K} (e^{-K dphi} e^{A(0) dphi})^steps, the full-turn sign times a
    power of a step factor whose diagonal e^{-K dphi} is a row scale: the
    finite-step product, not its steps -> inf limit.  Since ||K|| <= 1 and
    ||A(0)|| <= ||K||_F <= sqrt(2), the step factor's eigenphases lie within
    (1 + sqrt(2)) dphi < pi/2 of 0 for steps >= 16, as unitary_power requires.
    A (..., d, d) stack of A(0) gives the stack of holonomies.
    """
    dim = a0.shape[-1]
    dphi = 2 * np.pi / steps
    step = np.exp(-dphi * generator_diagonal(dim))[:, None] * expm_antihermitian(a0, dphi)
    return FULL_TURN_SIGN[dim] * unitary_power(step, steps)


def uhlmann_holonomy(rho, loop: LoopSpec, rank_eps=RANK_EPS):
    """Holonomy unitary V(2pi) accumulated over loop.steps grid points."""
    _, a0 = _loop_start(rho, loop.theta, rank_eps)
    return _holonomy_matrix(a0, loop.steps)


@dataclass(frozen=True)
class UhlmannResult:
    phase: float
    convergence_estimate: float
    steps: int


def uhlmann_phase(rho, loop: LoopSpec, rank_eps=RANK_EPS) -> UhlmannResult | tuple:
    """Phase gamma_N = arg Tr[rho(0; theta) V(2pi)] at N = loop.steps, with its
    step error |gamma_N - gamma_inf| against the phase of the limit V_inf.

    A sequence loop.theta is evaluated as one stack, from one decomposition
    of rho, and gives a tuple with one UhlmannResult per theta; the rank,
    anti-Hermiticity and visibility checks hold for the whole stack, and a
    VisibilityError names the smallest trace of the first of V(2pi) and
    V_inf that vanishes.
    """
    base, a0 = _loop_start(rho, np.atleast_1d(loop.theta), rank_eps)
    dim = a0.shape[-1]
    v_inf = FULL_TURN_SIGN[dim] * expm_antihermitian(a0 - loop_generator(dim), 2 * np.pi)
    gamma_n, gamma_inf = (_phases(np.trace(base @ v, axis1=-2, axis2=-1))
                          for v in (_holonomy_matrix(a0, loop.steps), v_inf))
    step_errors = np.abs(wrap_angle(gamma_n - gamma_inf))
    results = [UhlmannResult(g, e, loop.steps)
               for g, e in zip(gamma_n.tolist(), step_errors.tolist())]
    return tuple(results) if isinstance(loop.theta, tuple) else results[0]


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


def compute_phases(lam, r, theta, kinds=KINDS, loop_steps=LoopSpec.steps,
                   quad_tol=CouplingRatio.quad_tol, rank_eps=RANK_EPS) -> PhaseRecord | tuple:
    """Evaluate the requested phase kinds at one coupling point (lambda, r)
    for a polar angle theta, giving one PhaseRecord, or for a sequence of
    them as one stack, giving a tuple with one PhaseRecord per theta whose
    fields are computed as arrays across the stack.  Every error is
    raised, the first met in the order of the kernel calls: those of the
    coupling point (quadrature, correlator bounds, unphysical state) before
    the kernels, then those of each kernel (rank, Hermiticity, and a
    vanishing visibility, which belongs to one theta of a stack); sweep
    drivers map errors to status rows.  kinds, theta, loop_steps and rank_eps
    are checked before any work, for every kind.  Each requested kind
    decomposes each state once.
    """
    if not kinds or any(k not in KINDS for k in kinds):
        raise ValueError(f"kinds must be a non-empty subset of {KINDS}, got {tuple(kinds)}")
    loop = LoopSpec(theta=np.atleast_1d(theta), steps=loop_steps)
    if not rank_eps > 0:
        raise ValueError(f"rank_eps must be > 0, got {rank_eps}")
    c = correlators(r, CouplingRatio(lam, quad_tol))
    pair, single = two_site_state(c), single_site_state(c.m)

    columns, steps_used = {}, 0  # PhaseRecord fields, one entry per theta
    if "interferometric" in kinds:
        g_pair, g_single = (np.array(interferometric_phase(x, loop.theta)) for x in (pair, single))
        columns.update(gamma_int_pair=g_pair, gamma_int_single=g_single,
                       delta_gamma=wrap_angle(g_pair - 2 * g_single))
    if "uhlmann" in kinds:
        try:
            results = uhlmann_phase(pair, loop, rank_eps), uhlmann_phase(single, loop, rank_eps)
        except RankDeficientError as exc:
            raise RankDeficientError(exc.min_eigenvalue, exc.rank_eps, lam=lam) from exc
        u_pair, u_single = (np.array([x.phase for x in res]) for res in results)
        step_error = np.maximum(*([x.convergence_estimate for x in res] for res in results))
        columns.update(gamma_u_pair=u_pair, gamma_u_single=u_single,
                       delta_gamma_u=wrap_angle(u_pair - 2 * u_single),
                       convergence_estimate=step_error)
        steps_used = loop_steps
    records = tuple(PhaseRecord(**dict(zip(columns, row)), steps_used=steps_used)
                    for row in zip(*(col.tolist() for col in columns.values())))
    return records if np.ndim(theta) else records[0]
