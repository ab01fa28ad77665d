"""Mixed-state geometric phases along the fixed-theta rotation loops.

Two notions are implemented for both the single-site and two-site reduced
states.  Since U(phi) = e^{K phi} U(0), with K diagonal and the full turn
e^{2 pi K} the exact sign FULL_TURN_SIGN[dim], each uses no loop unitary
but U(0), which states.start_unitary builds once per theta (or theta stack)
and dimension.  On a general 4x4 state each is defined from the
eigendecomposition rho = v p v^dag, whose eigenvectors the loop carries to
w = U(0) v; the Uhlmann kernel takes one such decomposition of the pair:

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
  The phase forms neither matrix: each trace comes from the eigenvector
  weights |(w^dag Q)_nj|^2 against the eigenvalues of V's spectral factor.
  uhlmann_holonomy forms the explicit power from the same step factor and
  eigenphases, bitwise: the power multiplies an eigenphase by loop.steps,
  and with it any change in its last bit.

A 2x2 state takes no decomposition: both kernels evaluate it in closed form
from its Bloch vector (see _single_site_interferometric and
_single_site_uhlmann), per theta in math scalars, after the same
Hermiticity, rank and visibility checks.  There the step factor lies in
SU(2), so its power is exact in closed form.  The interferometric phase of
a 4x4 state that conserves Z parity, as every pair state does, takes none
either: it is evaluated in closed form from the state's two parity blocks
(linalg.parity_blocks, see _pair_interferometric), and only a 4x4 state
with an entry between the blocks takes the spectral path.
uhlmann_holonomy and uhlmann_connection stay spectral on both dimensions.

Each kernel follows numpy's shape rule in theta (the Uhlmann kernel's
LoopSpec.theta): a float gives floats, and a 1-D sequence, evaluated as one
stack of loops from the one decomposition (in closed form, the one Bloch
vector or the one pair of parity blocks), gives arrays of its length.
Every failure is raised, for a stack as for a float: a VisibilityError if
any amplitude or trace vanishes, naming the smallest.

Both deviations delta_gamma and delta_gamma_u compare the two-site phase
against twice the single-site phase.  Each single-site amplitude and trace
carries the spinor sign FULL_TURN_SIGN[2] = -1 of the 2*pi z-rotation, the
leading minus of the closed forms, which twice is a turn of 2*pi, so the
deviations are free of it.

Loop orientation: with the half-angle convention of ``loop_unitary`` the
Bloch vector traverses the theta-cone clockwise, so the pure-state limit of
the single-site phase is +Omega/2 (Omega the enclosed solid angle) and the
closed form is +arctan(m tan(Omega/2)).  The spectral and closed-form values
agree modulo pi; tests pin this down numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError, VisibilityError
from .ising import CouplingRatio, Correlators, correlators, require
from .linalg import (
    antihermitian_eigen,
    hermitian_eigen,
    hermitian_part,
    parity_blocks,
    spectral_matrix,
    unitary_eigen,
)
from .states import (
    FULL_TURN_SIGN,
    LoopSpec,
    generator_diagonal,
    loop_generator,
    single_site_state,
    start_unitary,
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


def check_kinds(name, kinds):
    """kinds as a tuple; raise ValueError naming the field unless it is a
    non-empty sequence of names from KINDS."""
    kinds_seq = tuple(kinds) if np.iterable(kinds) else (kinds,)
    if not kinds_seq or any(k not in KINDS for k in kinds_seq):
        raise ValueError(f"{name} must be a non-empty subset of {KINDS}, got {kinds!r}")
    return kinds_seq


def check_rank_eps(name, rank_eps):
    """Raise ValueError naming the field unless rank_eps > 0 (NaN fails)."""
    require(name, rank_eps, lambda x: x > 0, "> 0")


def wrap_angle(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(x)) % (2 * np.pi)


# ---------------------------------------------------------------------------
# interferometric phase
# ---------------------------------------------------------------------------

def _phases(amplitudes, in_order=False):
    """arg of each amplitude of a stack; raises the VisibilityError of the
    smallest magnitude if any is below _VISIBILITY_EPS or NaN.  With in_order,
    the stacks along the first axis are checked in turn, and the error names
    the smallest magnitude of the first that has one."""
    magnitudes = np.abs(amplitudes)
    if not magnitudes.min() >= _VISIBILITY_EPS:  # NaN fails
        for part in magnitudes if in_order else [magnitudes]:
            vanishing = [x for x in np.ravel(part).tolist() if not x >= _VISIBILITY_EPS]
            if vanishing:
                raise VisibilityError(min(vanishing), _VISIBILITY_EPS)
    return np.angle(amplitudes)


def interferometric_phase_from_eigen(p, v, theta):
    """Interferometric phase from an explicit spectral decomposition.

    <w_n|K|w_n> is a sum over the diagonal of K weighted by |w_n|^2; these
    weights sum to 1, so <w_n|e^{2 pi K}|w_n> is the full-turn sign.  The
    phase has theta's shape: a float for a float, an array for a 1-D stack;
    if any theta's amplitude vanishes, the VisibilityError names the smallest.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    weights = np.abs(start_unitary(theta, dim) @ v) ** 2
    rates = generator_diagonal(dim) @ weights
    return _phases(FULL_TURN_SIGN[dim] * np.sum(p * np.exp(-2 * np.pi * rates), axis=-1))


def interferometric_phase(rho, theta):
    """Interferometric phase of a 2x2 or 4x4 density matrix along the loop,
    shaped like theta: in closed form on a 2x2 state and on a 4x4 state that
    conserves Z parity, as every pair state does; from the eigen form on a
    4x4 state with an entry that mixes the parities."""
    if np.shape(rho) == (2, 2):
        return _single_site_interferometric(rho, theta)
    blocks = parity_blocks(hermitian_part(rho))
    if blocks is not None:
        return _pair_interferometric(blocks, theta)
    eig = hermitian_eigen(rho)
    return interferometric_phase_from_eigen(eig.values, eig.vectors, theta)


def single_site_phase_closed(m, theta):
    """Closed form arctan(m tan(Omega/2)) with Omega = 2pi(1 - cos theta).

    Principal arctan branch; at the branch points Omega/2 = pi/2 + k*pi the
    value saturates to +/-(pi/2)*sign(m).  Agrees with the spectral value
    modulo pi.
    """
    if not abs(m) <= 1:
        raise ValueError(f"|m| = {abs(m)} exceeds 1")
    half_solid_angle = np.pi * (1 - np.cos(theta))
    return float(np.arctan(m * np.tan(half_solid_angle)))


# ---------------------------------------------------------------------------
# Uhlmann phase
# ---------------------------------------------------------------------------

def _loop_start(rho, theta, rank_eps):
    """The eigenvalues p of rho, the adjoint w^dag of its eigenvectors
    w = U(0) v at theta, and the connection A(0), from one decomposition of
    rho, after the rank check.

    rho(0; theta) = w p w^dag.  In the eigenbasis w, the commutator-form
    connection [[K, sqrt(rho)], sqrt(rho)] / (p_n + p_m) is
    K'_nm (sqrt p_m - sqrt p_n)^2 / (p_n + p_m), with K' = w^dag K w.
    A 1-D theta gives w^dag and A(0) as (len(theta), dim, dim) stacks.
    """
    p, v = hermitian_eigen(rho)
    if not p[0] >= rank_eps:  # NaN fails
        raise RankDeficientError(float(p[0]), rank_eps)
    dim = len(p)
    w = start_unitary(theta, dim) @ v
    w_dag = w.conj().swapaxes(-1, -2)
    k_eig = (w_dag * generator_diagonal(dim)) @ w
    sqrt_p = np.sqrt(p)
    a_eig = k_eig * (sqrt_p[None, :] - sqrt_p[:, None]) ** 2 / (p[:, None] + p[None, :])
    return p, w_dag, w @ a_eig @ w_dag


def uhlmann_connection(rho, rank_eps=RANK_EPS):
    """Anti-Hermitian transport connection A(0) of e^{K phi} rho e^{-K phi}."""
    return _loop_start(rho, 0.0, rank_eps)[2]


def _step_eigen(w, v, steps):
    """Eigenphases and eigenvectors of the step factor e^{-K dphi} e^{A(0) dphi},
    given the eigenvalues w and eigenvectors v of i A(0) (or of a stack of
    them), as antihermitian_eigen gives them.

    The family is rho(phi) = e^{K phi} rho(0) e^{-K phi}, so the connection is
    covariant, A(phi) = e^{K phi} A(0) e^{-K phi}, and the ordered product of
    exp(A(phi_j) dphi) over phi_j = j dphi, j = 0 .. steps-1, telescopes
    exactly to e^{2 pi K} (e^{-K dphi} e^{A(0) dphi})^steps, the full-turn
    sign times a power of the step factor, whose diagonal e^{-K dphi} is a row
    scale: the finite-step product, not its steps -> inf limit.  Since
    ||K|| <= 1 and ||A(0)|| <= ||K||_F <= sqrt(2), the step factor's
    eigenphases lie within (1 + sqrt(2)) dphi < pi/2 of 0 for steps >= 16, as
    unitary_eigen requires.  The power raises these eigenphases alone: a
    1-ulp change in one grows steps-fold, so uhlmann_holonomy and
    uhlmann_phase take them from this one function.
    """
    dphi = 2 * np.pi / steps
    row_scale = np.exp(-dphi * generator_diagonal(v.shape[-1]))[:, None]
    return unitary_eigen(row_scale * spectral_matrix(v, np.exp(-1j * w * dphi)))


def uhlmann_holonomy(rho, loop: LoopSpec, rank_eps=RANK_EPS):
    """Holonomy unitary V(2pi) accumulated over loop.steps grid points."""
    a0 = _loop_start(rho, loop.theta, rank_eps)[2]
    phases, q = _step_eigen(*antihermitian_eigen(a0), loop.steps)
    return FULL_TURN_SIGN[a0.shape[-1]] * spectral_matrix(q, np.exp(1j * loop.steps * phases))


@dataclass(frozen=True, eq=False)
class UhlmannResult:
    phase: float | np.ndarray
    convergence_estimate: float | np.ndarray

    def __eq__(self, other):
        """True when both fields are equal, as floats or as whole arrays."""
        if not isinstance(other, UhlmannResult):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("phase", "convergence_estimate"))


def uhlmann_phase(rho, loop: LoopSpec, rank_eps=RANK_EPS) -> UhlmannResult:
    """Phase gamma_N = arg Tr[rho(0; theta) V(2pi)] at N = loop.steps, with its
    step error |gamma_N - gamma_inf| against the phase of the limit V_inf.

    Both fields have loop.theta's shape: floats for a float, arrays for a
    sequence, which is evaluated as one stack from one decomposition of rho.
    A 2x2 state takes the closed form of _single_site_uhlmann; on the pair,
    neither V(2pi) nor V_inf is formed.  One antihermitian_eigen of the stack
    [A(0), A(0) - K] gives the step factor's exponent and V_inf = e^{2 pi K}
    Y e^{-2 pi i mu} Y^dag; with V(2pi) = e^{2 pi K} Q e^{i N phi} Q^dag from
    _step_eigen and rho(0; theta) = w p w^dag, each trace is
    s sum_j e_j sum_n p_n |(w^dag Q)_nj|^2, with s the full-turn sign and e_j
    the eigenvalue of V's spectral factor.  The rank, anti-Hermiticity and
    visibility checks hold for the whole stack, and a VisibilityError names
    the smallest trace of the first of V(2pi) and V_inf that vanishes.
    """
    if np.shape(rho) == (2, 2):
        return _single_site_uhlmann(rho, loop, rank_eps)
    p, w_dag, a0 = _loop_start(rho, loop.theta, rank_eps)
    dim = len(p)
    values, vectors = antihermitian_eigen(np.array([a0, a0 - loop_generator(dim)]))
    phases, q = _step_eigen(values[0], vectors[0], loop.steps)
    spectra = np.exp(1j * np.array([loop.steps * phases, -2 * np.pi * values[1]]))
    overlaps = w_dag @ np.array([q, vectors[1]])
    weights = p @ (overlaps.real ** 2 + overlaps.imag ** 2)
    traces = FULL_TURN_SIGN[dim] * (weights * spectra).sum(axis=-1)
    gamma_n, gamma_inf = _phases(traces, in_order=True)
    return UhlmannResult(gamma_n, np.abs(wrap_angle(gamma_n - gamma_inf)))


# ---------------------------------------------------------------------------
# one site in closed form
# ---------------------------------------------------------------------------

def _bloch(rho):
    """(t, |b|, n) of a 2x2 state rho = (t I + b.sigma) / 2, after the
    Hermiticity check of hermitian_eigen, with n = b / |b|, or z at b = 0,
    the eigenvector that hermitian_eigen gives there."""
    (h00, _), (h10, h11) = hermitian_part(rho).tolist()
    t = h00.real + h11.real
    b = (2 * h10.real, 2 * h10.imag, h00.real - h11.real)
    norm = math.hypot(*b)
    return t, norm, tuple(x / norm for x in b) if norm else (0.0, 0.0, 1.0)


def _polar_angles(n, theta):
    """theta's shape, and for each of its entries the cosine c and the sine
    s >= 0 of the polar angle of R_y(theta) n, the Bloch direction of
    rho(0; theta).

    Each entry is computed on its own in math scalars, so an entry of a stack
    equals the float call bitwise, which numpy's vectorized sin and cos do not
    guarantee.
    """
    theta = np.asarray(theta, dtype=float)
    nx, ny, nz = n
    angles = []
    for x in theta.ravel().tolist():
        cos_t, sin_t = math.cos(x), math.sin(x)
        angles.append((nz * cos_t - nx * sin_t, math.hypot(nx * cos_t + nz * sin_t, ny)))
    return theta.shape, angles


def _single_site_interferometric(rho, theta):
    """interferometric_phase of a 2x2 state: the eigenvectors of rho(0; theta)
    have the weights (t +- |b|) / 2 and <K> = +-i c / 2, so the amplitude is
    -(t cos(pi c) - i |b| sin(pi c))."""
    t, norm, n = _bloch(rho)
    shape, angles = _polar_angles(n, theta)
    amplitudes = [complex(-t * math.cos(math.pi * c), norm * math.sin(math.pi * c))
                  for c, _ in angles]
    return _phases(np.array(amplitudes).reshape(shape))


def _pair_interferometric(blocks, theta):
    """interferometric_phase of a 4x4 state from its parity_blocks, in closed
    form (Sjoqvist et al., PRL 85, 2845 (2000)): U(0) turns <K> of the even
    block's eigenvectors, of weights t_e / 2 +- R, into +-i cos(theta) d / R,
    and of the odd block's into 0, so with phi = 2 pi cos(theta) d / R and the
    full-turn sign +1 the amplitude is t_o + t_e cos(phi) - 2 i R sin(phi).
    At R = 0 the even block is degenerate, and phi = 0.  Each theta is
    evaluated on its own in math scalars, as in _polar_angles."""
    (t_even, d, radius), (t_odd, _, _) = blocks
    ratio = d / radius if radius else 0.0
    theta = np.asarray(theta, dtype=float)
    amplitudes = []
    for x in theta.ravel().tolist():
        phi = 2 * math.pi * math.cos(x) * ratio
        amplitudes.append(complex(t_odd + t_even * math.cos(phi), -2 * radius * math.sin(phi)))
    return _phases(np.array(amplitudes).reshape(theta.shape))


def _single_site_uhlmann(rho, loop: LoopSpec, rank_eps) -> UhlmannResult:
    """uhlmann_phase of a 2x2 state, in closed form.

    With m = |b| / t and c, s the polar cosine and sine of rho(0; theta)'s
    Bloch direction, A(0) = (i f s / 2) e.sigma, where e is the unit vector
    normal to it towards z and f = (sqrt p+ - sqrt p-)^2 / t
    = m^2 / (1 + sqrt(1 - m^2)).  With a = pi / N and beta = f s a, the step
    factor e^{-K dphi} e^{A(0) dphi} = (cos a - i sin a Z)(cos beta +
    i sin beta e.sigma) lies in SU(2): it is cos alpha + i v.sigma with
    |v| = sin alpha, so its N-th power is cos N alpha + i sin(N alpha) v.sigma
    / |v|, exactly, and with n.v = -c cos beta sin a,
    Tr[rho(0) V(2pi)] = -t cos N alpha + i |b| c cos beta sin a sin(N alpha) / |v|.
    In the limit, A(0) - K = (i w / 2) u.sigma with |u| = 1 and
    w = sqrt(1 - m^2 s^2), so Tr[rho(0) V_inf] = -t cos pi w + i |b| c sin(pi w) / w.
    |v| = 0 or w = 0 needs c = 0, so there the limits of the ratios, N and pi,
    only avoid 0 / 0.  The checks are uhlmann_phase's: Hermiticity, the rank of
    p- = (t - |b|) / 2, then the visibility of both traces in order.
    """
    t, norm, n = _bloch(rho)
    p_minus = (t - norm) / 2
    if not p_minus >= rank_eps:
        raise RankDeficientError(p_minus, rank_eps)
    m = norm / t
    f = m * m / (1 + math.sqrt((1 - m) * (1 + m)))
    steps = loop.steps
    a = math.pi / steps
    cos_a, sin_a = math.cos(a), math.sin(a)
    shape, angles = _polar_angles(n, loop.theta)
    traces = []
    for c, s in angles:
        cos_b, sin_b = math.cos(f * s * a), math.sin(f * s * a)
        v_norm = math.hypot(sin_b * c, cos_a * sin_b * s - cos_b * sin_a)
        alpha = math.atan2(v_norm, cos_a * cos_b + sin_a * sin_b * s)
        ratio = math.sin(steps * alpha) / v_norm if v_norm else steps
        # m s <= 1 but for a rounding of s
        w = math.sqrt(max(1 - m * s, 0.0) * (1 + m * s))
        ratio_inf = math.sin(math.pi * w) / w if w else math.pi
        traces.append((complex(-t * math.cos(steps * alpha), norm * c * cos_b * sin_a * ratio),
                       complex(-t * math.cos(math.pi * w), norm * c * ratio_inf)))
    gamma_n, gamma_inf = _phases(np.array(traces).T.reshape(2, *shape), in_order=True)
    return UhlmannResult(gamma_n, np.abs(wrap_angle(gamma_n - gamma_inf)))


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
                   rank_eps=RANK_EPS, corr: Correlators | None = None) -> PhaseRecord | tuple:
    """Evaluate the requested phase kinds at one coupling point (lambda, r)
    for a polar angle theta, giving one PhaseRecord, or for a sequence of
    them as one stack, giving a tuple with one PhaseRecord per theta whose
    fields are computed as arrays across the stack.  Every error is
    raised, the first met in the order of the kernel calls: those of the
    coupling point (lam, correlator bounds, unphysical state) before
    the kernels, then those of each kernel (rank, Hermiticity, and a
    vanishing visibility, which belongs to one theta of a stack); sweep
    drivers map errors to status rows.  kinds, theta, loop_steps and rank_eps
    are checked before any work, for every kind.  The Uhlmann kind
    decomposes the pair once; everything else, the pair's positivity check
    included, is evaluated in closed form.
    corr gives the Correlators of (lam, r), as
    a sweep computes them for all its couplings at once; without it they
    are computed here, from lam and r.
    """
    kinds = check_kinds("kinds", kinds)
    loop = LoopSpec(theta=np.atleast_1d(theta), steps=loop_steps)
    check_rank_eps("rank_eps", rank_eps)
    if corr is not None and corr.r != r:
        raise ValueError(f"corr holds the correlators at r = {corr.r}, not at r = {r}")
    c = correlators(r, CouplingRatio(lam)) if corr is None else corr
    pair, single = two_site_state(c), single_site_state(c.m)

    # PhaseRecord's fields in order, each a list with one entry per theta
    unset = [None] * len(loop.theta)
    interferometric, uhlmann, convergence, steps_used = [unset] * 3, [unset] * 3, unset, 0
    if "interferometric" in kinds:
        g_pair, g_single = (interferometric_phase(x, loop.theta) for x in (pair, single))
        interferometric = [g.tolist() for g in (g_pair, g_single,
                                                wrap_angle(g_pair - 2 * g_single))]
    if "uhlmann" in kinds:
        try:
            u_pair, u_single = (uhlmann_phase(x, loop, rank_eps) for x in (pair, single))
        except RankDeficientError as exc:
            raise RankDeficientError(exc.min_eigenvalue, exc.rank_eps, lam=lam) from exc
        uhlmann = [g.tolist() for g in (u_pair.phase, u_single.phase,
                                        wrap_angle(u_pair.phase - 2 * u_single.phase))]
        convergence = np.maximum(u_pair.convergence_estimate,
                                 u_single.convergence_estimate).tolist()
        steps_used = loop_steps
    records = tuple(map(PhaseRecord, *interferometric, *uhlmann, [steps_used] * len(unset),
                        convergence))
    return records if np.ndim(theta) else records[0]
