"""Zero-temperature observables of the transverse-field Ising chain.

Thermodynamic-limit magnetization and two-site correlators follow Barouch
and McCoy, Phys. Rev. A 3, 786 (1971).  The transverse correlators are
Toeplitz determinants of the elements

    G_k = (1/pi) int_0^pi [cos(k phi) + lam cos((k+1) phi)] / eps(phi) dphi,

with eps(phi) = |1 + lam e^{i phi}| the quasiparticle energy.  They are the
Fourier coefficients of the unimodular symbol (1 + lam e^{i phi}) / eps(phi),
and the magnetization is G_0.  No integral is evaluated:

* Seeds.  With m = 4 lam / (1 + lam)^2, G_0 = ((1+lam) E(m) + (1-lam) K(m))/pi
  and G_{-1} = ((1+lam) E(m) - (1-lam) K(m))/(pi lam).  K and E come from
  arithmetic-geometric means, with E from Legendre's relation so that no
  digits cancel as lam -> 1 (DLMF 19.7.1, 19.8).
* Recurrence.  For every integer k,
  lam (k - 1/2) G_{k-1} + ((1 + lam^2) k + lam^2) G_k + lam (k + 3/2) G_{k+1} = 0.
  G_k decays like lam^|k| on both sides, so it is the minimal solution in
  both directions.  Near lam = 1, where lam^(-2 n) stays small over the
  requested range |k| <= n, the recurrence runs outward from the two seeds.
  Elsewhere it runs inward from far outside the range (Miller's algorithm,
  as continued-fraction ratios G_k / G_{k-1}) and is normalised by G_0.
* Special couplings.  G_k = delta_k0 at lam = 0 and
  G_k = (-1)^k 2 / (pi (2k + 1)) at lam = 1; for lam > 1,
  G_k(lam) = G_{-k-1}(1/lam).

The result is within ERROR_FLOOR of the exact G_k for every coupling and
|k| <= 10^4 (checked against high-precision hypergeometric values in the
test suite).  The quad_tol of a CouplingRatio is an accuracy request: one
below ERROR_FLOOR cannot be met, so CouplingRatio rejects it with
QuadratureError when it is built.  The names quad_tol and QuadratureError
are kept from the quadrature that the closed form replaced.

correlators follows numpy's shape rule over a sequence of separations and
of couplings.  A stack computes each coupling's G_k once, up to the largest
r, and the recurrence's branch and Miller's starting depth follow that
depth.  So a sweep, which stacks every r and lambda of its grid, and a
single-point call at the same (lambda, r) compute the same G_k to
round-off, each within ERROR_FLOOR.  Measured with the stack up to
r = 100, their correlators agree within 8.1e-14 over r <= 100 and lambda in
[0, 3] and at 50 (the worst at r = 50, lambda = 1.0375), and the phases
within 6.3e-14 for r in {10, 25, 50, 100} and lambda in [0.5, 1.5].

A finite-chain exact-diagonalization oracle is included for testing; it is
not part of the production path.  It shares none of the free-fermion maths
above, for chains of up to MAX_CHAIN_SITES = 16 spins.  In the Z basis the
off-diagonal entries of H are -lam <= 0 and bond flips connect each Z-parity
sector, so by Perron-Frobenius each sector's ground state is non-degenerate,
has positive amplitudes and is symmetric under the rotations and the
reflection of the ring.  The oracle diagonalizes H, with numpy's dense eigh,
in the span of each sector's symmetry orbits (at most 122 states at n = 12
and 1162 at n = 16); it uses no sparse matrix, and neither this module nor
the CLI imports scipy.

Hamiltonian convention: H = -lam * sum_j X_j X_{j+1} - sum_j Z_j with periodic
boundaries.  The critical coupling is lam = 1.

Sign convention of G_k: the lam cos((k+1) phi) term enters with a plus sign,
that is, the sine integral of the textbook form enters with a minus sign.
This is the convention under which the nearest-neighbor x-correlator is
positive in the ordered phase and the ground-state energy sum rule
lam*c_xx(1) + m = energy density holds; both are enforced against the
exact-diagonalization oracle in the test suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

__all__ = [
    "CouplingRatio",
    "Correlators",
    "ERROR_FLOOR",
    "MAX_SEPARATION",
    "magnetization",
    "toeplitz_element",
    "correlators",
    "ground_energy_density",
    "MAX_CHAIN_SITES",
    "check_chain_size",
    "exact_diag_correlators",
]

# Round-off allowed on the bounds |m|, |c| <= 1 of a computed observable.
BOUND_SLACK = 1e-9

# Bound on the absolute error of a computed G_k, |k| <= 10^4, at any
# coupling.  The worst measured is 3.1e-13, at |k| = 10^4 within 1e-3 of
# lam = 1.  A quad_tol below it cannot be met.
ERROR_FLOOR = 1e-12

# Largest separation |k| whose G_k is computed.
MAX_SEPARATION = 10**4

# Iterations of each arithmetic-geometric mean.  The smallest modulus that a
# finite coupling gives, k ~ 1e-162, converges in 12.
_AGM_STEPS = 24

# The recurrence runs outward from the seeds when lam^(-2 n) <= e^this and
# lam >= 1/2.  Outward, round-off grows like lam^(-n); inward, Miller's
# ratios lose about eps / (1 - lam^2).  The two errors cross near here.  The
# seed G_{-1} loses about eps / lam to cancellation, hence the lower bound.
_OUTWARD_LOG_GROWTH = 6.0

# Miller's algorithm starts this many e-folds of lam^2 beyond the range, so
# its starting error is below double-precision round-off (e^-37 ~ 1e-16).
_MILLER_LOG_DECAY = 37.0


def require_integer(name, value):
    """Raise ValueError naming the field unless value is an integer, that is,
    a non-bool that operator.index accepts (so 2.0, "2" and True are refused)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class CouplingRatio:
    """Finite coupling lam >= 0 plus the accuracy requested of G_k.

    A quad_tol below ERROR_FLOOR cannot be met and raises QuadratureError.
    """

    lam: float
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not self.quad_tol > 0:
            raise ValueError(f"quad_tol must be > 0, got {self.quad_tol}")
        if self.quad_tol < ERROR_FLOOR:
            raise QuadratureError(f"quad_tol {self.quad_tol:.3e} is below the error floor "
                                  f"{ERROR_FLOOR:g} of the closed form", ERROR_FLOOR)


@dataclass(frozen=True)
class Correlators:
    """Magnetization and the three two-site correlators at separation r (NaN fails the bounds)."""

    r: int
    m: float
    c_xx: float
    c_yy: float
    c_zz: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"separation r must be >= 1, got {self.r}")
        for name in ("m", "c_xx", "c_yy", "c_zz"):
            val = getattr(self, name)
            if not abs(val) <= 1 + BOUND_SLACK:
                raise ValueError(f"{name} = {val} outside [-1, 1]")
        if not abs(self.c_zz - self.m**2) <= 1 + BOUND_SLACK:
            raise ValueError(
                f"connected zz part {self.c_zz - self.m**2} outside [-1, 1]"
            )


# ---------------------------------------------------------------------------
# Toeplitz elements G_k: closed-form seeds and the three-term recurrence
# ---------------------------------------------------------------------------

def _agm(a, b, c0):
    """Arithmetic-geometric mean of a, b and sum_{n>=0} 2^(n-1) c_n^2 (DLMF 19.8.6)."""
    total, weight = c0 * c0 / 2, 0.5
    for _ in range(_AGM_STEPS):
        c = (a - b) / 2
        a, b = (a + b) / 2, math.sqrt(a * b)
        weight *= 2
        total += weight * c * c
    return a, total


def _complete_elliptic(k, kp):
    """K and E of modulus k, given with its complement kp = sqrt(1 - k^2).

    Legendre's relation with K' - E' = K' sum_n 2^(n-1) c_n^2 writes E as a
    sum of two positive terms, so E stays accurate as kp -> 0, where K
    diverges.
    """
    if k == 0:
        return math.pi / 2, math.pi / 2
    if kp == 0:
        return math.inf, 1.0
    big_k = math.pi / (2 * _agm(1.0, kp, k)[0])
    mean, total = _agm(1.0, k, kp)
    return big_k, mean + big_k * total


def _series(lo, hi, lam):
    """G_k for k = lo .. hi, lo <= -1 and hi >= 0, at coupling 0 <= lam <= 1."""
    ks = np.arange(lo, hi + 1)
    if lam == 0:
        return (ks == 0).astype(float)
    if lam == 1:
        return np.where(ks % 2, -2.0, 2.0) / (np.pi * (2 * ks + 1))
    l2 = lam * lam
    big_k, big_e = _complete_elliptic(2 * math.sqrt(lam) / (1 + lam), (1 - lam) / (1 + lam))
    g0 = ((1 + lam) * big_e + (1 - lam) * big_k) / math.pi
    if lam >= 0.5 and -2 * max(-lo, hi) * math.log(lam) <= _OUTWARD_LOG_GROWTH:
        g_minus = ((1 + lam) * big_e - (1 - lam) * big_k) / (math.pi * lam)
        up = [g_minus, g0]
        for k in range(hi):
            up.append(-(lam * (k - 0.5) * up[-2] + ((1 + l2) * k + l2) * up[-1])
                      / (lam * (k + 1.5)))
        down = [g0, g_minus]
        for k in range(-1, lo, -1):
            down.append(-(((1 + l2) * k + l2) * down[-1] + lam * (k + 1.5) * down[-2])
                        / (lam * (k - 0.5)))
        return np.array(down[::-1] + up[2:])
    beyond = int(_MILLER_LOG_DECAY / (-2 * math.log(lam))) + 1
    # ratios G_k / G_{k-1} for k = hi + beyond .. 1 and G_k / G_{k+1} for
    # k = lo - beyond .. -1, each started from a zero ratio and run toward 0
    rho, right = 0.0, []
    for k in range(hi + beyond, 0, -1):
        rho = -lam * (k - 0.5) / ((1 + l2) * k + l2 + lam * (k + 1.5) * rho)
        right.append(rho)
    sigma, left = 0.0, []
    for k in range(lo - beyond, 0):
        sigma = -lam * (k + 1.5) / ((1 + l2) * k + l2 + lam * (k - 0.5) * sigma)
        left.append(sigma)
    inward = np.cumprod(left[::-1][:-lo])[::-1]    # G_k / G_0, k = lo .. -1
    outward = np.cumprod(right[::-1][:hi])         # G_k / G_0, k = 1 .. hi
    return g0 * np.concatenate([inward, [1.0], outward])


# ---------------------------------------------------------------------------
# thermodynamic-limit observables
# ---------------------------------------------------------------------------

def toeplitz_element(k, params: CouplingRatio):
    """G_k of an integer k (a float), or of each entry of an integer array k (an
    array), from one batch over |k| <= max|k|; G_0 is the magnetization."""
    ks = np.asarray(k)
    if not np.issubdtype(ks.dtype, np.integer):
        raise ValueError(f"k must be an integer or an integer array, got {k!r}")
    n = max(int(np.abs(ks).max(initial=0)), 1)
    if n > MAX_SEPARATION:
        raise ValueError(f"|r| must be <= 1e4, got {n}")
    g = (_series(-n - 1, n - 1, 1 / params.lam)[::-1] if params.lam > 1
         else _series(-n, n, params.lam))
    return g[ks + n] if ks.ndim else float(g[ks + n])


def magnetization(params: CouplingRatio) -> float:
    """Ground-state magnetization <Z> in the thermodynamic limit (G_0)."""
    return toeplitz_element(0, params)


def correlators(r, params):
    """Magnetization plus all three correlators at separation r, from one batch of G_k.

    m = G_0; c_xx and c_yy are the determinants of the r x r Toeplitz
    matrices with entry (i, j) = G_{j-i-1} and G_{i-j+1}; c_zz = m^2 - G_r G_{-r}.

    Follows numpy's shape rule in both arguments: an integer r and one
    CouplingRatio give one Correlators; a sequence of r, of CouplingRatio or
    of both gives tuples, indexed [coupling][r] when both are sequences.
    Each coupling's G_k come from one toeplitz_element batch up to max(r),
    and each r's determinants of one kind are one np.linalg.det over the
    stack of its couplings.  Every entry is checked: if any is out of
    bounds, the call raises for the whole stack.
    """
    r_stack = np.ndim(r) > 0
    r_seq = list(r) if r_stack else [r]
    for x in r_seq:
        require_integer("r", x)
        if x < 1:
            raise ValueError(f"r must be >= 1, got {x}")
    if not r_seq:
        raise ValueError("r must be an integer or a non-empty sequence of integers")
    r_seq = [operator.index(x) for x in r_seq]
    couplings = [params] if isinstance(params, CouplingRatio) else list(params)
    n = max(r_seq)
    # G_k of the l-th coupling at g[l, k + n], read-only
    g = np.array([toeplitz_element(np.arange(-n, n + 1), p) for p in couplings]).reshape(
        len(couplings), 2 * n + 1)
    g.flags.writeable = False
    m = g[:, n].tolist()
    step_l, step_k = g.strides
    table = [[] for _ in couplings]
    for x in r_seq:
        # (coupling, r, r) stacks of read-only views of g, as scipy.linalg.toeplitz
        # builds them but with no copy: entry (l, i, j) = g[l, n-1-i+j] = G_{j-i-1}
        # and g[l, n+1+i-j] = G_{i-j+1}; numpy checks that each view lies within g
        shape = (len(couplings), x, x)
        c_xx = np.linalg.det(np.ndarray(shape, g.dtype, g, (n - 1) * step_k,
                                        (step_l, -step_k, step_k)))
        c_yy = np.linalg.det(np.ndarray(shape, g.dtype, g, (n + 1) * step_k,
                                        (step_l, step_k, -step_k)))
        g_pm = g[:, n + x] * g[:, n - x]
        for row, m_l, xx, yy, pm in zip(table, m, c_xx.tolist(), c_yy.tolist(), g_pm.tolist()):
            row.append(Correlators(x, m_l, xx, yy, m_l * m_l - pm))
    table = [tuple(row) if r_stack else row[0] for row in table]
    return table[0] if isinstance(params, CouplingRatio) else tuple(table)


def ground_energy_density(params: CouplingRatio) -> float:
    """(1/pi) * integral of the dispersion over [0, pi] (positive magnitude).

    In closed form (2/pi) (1 + lam) E(m), m = 4 lam / (1 + lam)^2.  The
    ground-state energy per site is minus this value; the sum rule
    lam * c_xx(1) + m = ground_energy_density holds for every lam.
    """
    lam = params.lam
    _, big_e = _complete_elliptic(2 * math.sqrt(lam) / (1 + lam), abs(1 - lam) / (1 + lam))
    return (1 + lam) * (2 * big_e / math.pi)


# ---------------------------------------------------------------------------
# finite-chain exact-diagonalization oracle (testing only)
# ---------------------------------------------------------------------------

_DEGENERACY_GAP = 1e-8

MAX_CHAIN_SITES = 16


def _sector_ground_states(n_sites, lam):
    """Lowest state of each Z-parity sector of the periodic chain.

    In the Z basis every off-diagonal entry of H is -lam <= 0, and bond flips
    connect each parity sector, so by Perron-Frobenius each sector's ground
    state is non-degenerate with positive amplitudes.  It is therefore
    invariant under the rotations and the reflection of the ring and lies in
    the span of the orbit sums |A> = |A|^(-1/2) sum_{b in A} |b>, where

        <A|H|B> = sqrt(|B| / |A|) sum_j (-lam)

    over the bonds j that flip B's representative (the smallest state in
    its orbit) into A, plus -sum_j Z_j on the diagonal.  One dense eigh per
    parity block gives its lowest state.  Returns (energies, vectors): the
    energy of the even and of the odd sector, and the two normalized states
    as columns of the 2^n basis.
    """
    dim = 1 << n_sites
    idx = np.arange(dim)
    mirror = sum(((idx >> j) & 1) << (n_sites - 1 - j) for j in range(n_sites))
    rep = idx
    for b in (idx, mirror):
        for s in range(n_sites):
            rep = np.minimum(rep, ((b >> s) | (b << (n_sites - s))) & (dim - 1))
    reps, label = np.unique(rep, return_inverse=True)
    size = np.bincount(label)
    ones = sum((reps >> j) & 1 for j in range(n_sites))
    src = np.tile(np.arange(reps.size), n_sites)
    dst = label[np.concatenate(
        [reps ^ ((1 << j) | (1 << ((j + 1) % n_sites))) for j in range(n_sites)])]
    hop = -lam * np.sqrt(size[src] / size[dst])

    energies, vectors = np.zeros(2), np.zeros((dim, 2))
    for parity in (0, 1):
        block = np.flatnonzero(ones % 2 == parity)
        where = np.zeros(reps.size, dtype=int)
        where[block] = np.arange(block.size)
        h = np.diag(2.0 * ones[block] - n_sites)  # -sum_j Z_j
        bond = ones[src] % 2 == parity
        np.add.at(h, (where[dst[bond]], where[src[bond]]), hop[bond])
        w, v = np.linalg.eigh(h)
        amplitude = np.zeros(reps.size)
        amplitude[block] = v[:, 0]
        energies[parity] = w[0]
        vectors[:, parity] = amplitude[label] / np.sqrt(size[label])
    return energies, vectors


def check_chain_size(n_sites: int):
    """Raise ValueError unless exact_diag_correlators accepts n_sites."""
    if n_sites < 4 or n_sites > MAX_CHAIN_SITES or n_sites % 2:
        raise ValueError(
            f"n_sites must be even and within [4, {MAX_CHAIN_SITES}], got {n_sites}")


def _ground_correlators(n_sites, energies, vectors):
    """{r: Correlators} of the lowest state, given two states in ascending energy order.

    The two are the two lowest levels or the ground states of the two parity
    sectors.  When they are quasi-degenerate (gap < _DEGENERACY_GAP, ordered
    phase at finite size), expectation values are averaged over both; the
    average does not depend on the basis the solver picked in their span.
    """
    states = [vectors[:, 0]]
    if energies[1] - energies[0] < _DEGENERACY_GAP:
        states.append(vectors[:, 1])

    dim = 1 << n_sites
    idx = np.arange(dim)
    bits = [((idx >> j) & 1) for j in range(n_sites)]
    z = [(1 - 2 * b).astype(float) for b in bits]

    def ev_diag(d):
        return float(np.mean([s @ (d * s) for s in states]))

    def ev_xx(r):
        mask = 1 | (1 << r)
        return float(np.mean([s[idx ^ mask] @ s for s in states]))

    def ev_yy(r):
        mask = 1 | (1 << r)
        sign = -(1.0 - 2 * ((bits[0] + bits[r]) % 2))
        return float(np.mean([s[idx ^ mask] @ (sign * s) for s in states]))

    m = float(np.mean([ev_diag(z[j]) for j in range(n_sites)]))
    out = {}
    for r in range(1, n_sites // 2 + 1):
        out[r] = Correlators(
            r=r,
            m=m,
            c_xx=ev_xx(r),
            c_yy=ev_yy(r),
            c_zz=ev_diag(z[0] * z[r]),
        )
    return out


def exact_diag_correlators(n_sites: int, lam: float):
    """Ground-state correlators of the periodic chain with n_sites spins.

    The ground state of each Z-parity sector is non-degenerate and symmetric
    under the rotations and the reflection of the ring (Perron-Frobenius), so
    _sector_ground_states finds each with a dense numpy eigh in the span of
    that sector's symmetry orbits, with no sparse matrix and no random start
    vector; repeated calls are bitwise equal.  Returns a dict {r: Correlators}
    for r = 1 .. n_sites // 2.  When the two sector ground states are
    quasi-degenerate (gap < _DEGENERACY_GAP, ordered phase at finite size),
    expectation values are averaged over both.
    """
    check_chain_size(n_sites)
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    energies, vectors = _sector_ground_states(n_sites, lam)
    order = np.argsort(energies)
    return _ground_correlators(n_sites, energies[order], vectors[:, order])
