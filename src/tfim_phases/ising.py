"""Zero-temperature observables of the transverse-field Ising chain.

Thermodynamic-limit magnetization and two-site correlators are obtained from
integrals over the quasiparticle band (Barouch and McCoy, Phys. Rev. A 3, 786
(1971)).  The transverse correlators are Toeplitz determinants built from the
integral elements G_k, and the magnetization is G_0.

Each G_k is a cosine and a sine integral over [0, pi], each with its own
adaptive Gauss-Legendre panel tree: |k| // 2 + 2 initial panels (at least 8
for 0.5 < lam < 2), each bisected until its 15-point halves agree with the
whole to within its share of the tolerance.  The trees of many k are refined
together, breadth first, so every level is one vectorized evaluation; a
value does not depend on which other k were computed with it.  Computed G_k
are kept per (lam, quad_tol) for the most recently used couplings.

A finite-chain exact-diagonalization oracle is included for testing; it is
not part of the production path.

Hamiltonian convention: H = -lam * sum_j X_j X_{j+1} - sum_j Z_j with periodic
boundaries.  The critical coupling is lam = 1.

Sign convention of G_k: the second (sine) integral enters with a minus sign.
This is the convention under which the nearest-neighbor x-correlator is
positive in the ordered phase and the ground-state energy sum rule
lam*c_xx(1) + m = energy density holds; both are enforced against the
exact-diagonalization oracle in the test suite.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import QuadratureError
from .linalg import det_real

__all__ = [
    "CouplingRatio",
    "Correlators",
    "ToeplitzElements",
    "dispersion",
    "magnetization",
    "toeplitz_element",
    "toeplitz_table",
    "correlator_xx",
    "correlator_yy",
    "correlator_zz",
    "correlators",
    "ground_energy_density",
    "exact_diag_correlators",
]

# Round-off allowed on the bounds |m|, |c| <= 1 of a computed observable.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CouplingRatio:
    """Finite coupling lam >= 0 plus quadrature settings."""

    lam: float
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.quad_tol <= 0:
            raise ValueError(f"quad_tol must be > 0, got {self.quad_tol}")


@dataclass(frozen=True)
class Correlators:
    """Magnetization and the three two-site correlators at separation r."""

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
            if abs(val) > 1 + BOUND_SLACK:
                raise ValueError(f"{name} = {val} outside [-1, 1]")
        if abs(self.c_zz - self.m**2) > 1 + BOUND_SLACK:
            raise ValueError(
                f"connected zz part {self.c_zz - self.m**2} outside [-1, 1]"
            )


@dataclass(frozen=True)
class ToeplitzElements:
    """Table of G_k for k in [-r_max, r_max]."""

    r_max: int
    g: dict = field(hash=False)

    def __getitem__(self, k):
        return self.g[k]


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature, breadth first over many integrals
# ---------------------------------------------------------------------------

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(15)

# Bisection levels below an initial panel before the quadrature gives up.
_QUAD_MAX_DEPTH = 40

# An integral whose open panels at one level outnumber this multiple of its
# initial panels cannot reach its tolerance (round-off floors the residual
# of every panel); it raises instead of doubling its work up to _QUAD_MAX_DEPTH.
_MAX_PANEL_GROWTH = 32

# Pending G_k are integrated in chunks of about this many initial panels per
# part, which bounds the size of the per-level node arrays.
_CHUNK_PANELS = 512

# Coupling values whose G_k tables are kept, least recently used evicted.
_CACHE_SIZE = 64
_TABLES: OrderedDict = OrderedDict()


def _gauss_panels(f, a, b, k):
    """15-point Gauss-Legendre sums of f(phi, k) over the panels [a[i], b[i]]."""
    mid = (a + b) / 2
    half = (b - a) / 2
    phi = mid[:, None] + half[:, None] * _GAUSS_NODES
    return half * np.sum(_GAUSS_WEIGHTS * f(phi, k[:, None]), axis=1)


def _integrate(f, k, n_panels, tol):
    """Integrals of f(phi, k[i]) over [0, pi] for every i, by bisected Gauss panels.

    Integral i starts from n_panels[i] equal panels with tolerance
    tol / n_panels[i] each.  A panel is accepted when its two halves agree
    with the whole to within its tolerance; otherwise both halves are
    refined with half the tolerance, up to _QUAD_MAX_DEPTH levels.  Every level
    evaluates the open panels of all integrals in one call, and each child
    reuses its parent's half-panel sum as its whole.  The values are summed
    back up each panel tree and then across the initial panels in order, so
    integral i does not depend on which other integrals share the call.
    """
    edges = {n: np.linspace(0.0, np.pi, n + 1) for n in set(n_panels.tolist())}
    a = np.concatenate([edges[n][:-1] for n in n_panels])
    b = np.concatenate([edges[n][1:] for n in n_panels])
    owner = item = np.repeat(np.arange(len(k)), n_panels)
    panel_tol = np.repeat(tol / n_panels, n_panels)
    whole = _gauss_panels(f, a, b, k[item])
    levels = []
    for depth in itertools.count():
        mid = (a + b) / 2
        k_open = k[item]
        halves = _gauss_panels(f, np.concatenate([a, mid]), np.concatenate([mid, b]),
                               np.concatenate([k_open, k_open]))
        left, right = halves[: len(a)], halves[len(a):]
        value = left + right
        err = np.abs(value - whole)
        split = np.flatnonzero(~(err <= panel_tol))
        levels.append((value, split))
        if split.size == 0:
            break
        worst = split[np.argmax(err[split])]
        if depth >= _QUAD_MAX_DEPTH:
            raise QuadratureError(
                f"quadrature did not converge on [{a[worst]:.6g}, {b[worst]:.6g}] "
                f"at depth {depth}", err[worst])
        grown = 2 * np.bincount(item[split], minlength=len(k))
        if np.any(grown > _MAX_PANEL_GROWTH * n_panels):
            raise QuadratureError(
                f"quadrature panels grew past {_MAX_PANEL_GROWTH} times the initial "
                f"count at depth {depth + 1}", err[worst])
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
        whole = np.column_stack([left[split], right[split]]).ravel()
        panel_tol = np.repeat(panel_tol[split] / 2, 2)
        item = np.repeat(item[split], 2)

    value = None
    for level_value, split in reversed(levels):
        if split.size:
            level_value[split] = value[0::2] + value[1::2]
        value = level_value
    # sequential sum over each integral's initial panels, starting from 0.0
    rows = np.zeros((len(k), max(n_panels) + 1))
    rows[owner, np.concatenate([np.arange(1, n + 1) for n in n_panels])] = value
    return np.cumsum(rows, axis=1)[np.arange(len(k)), n_panels]


# ---------------------------------------------------------------------------
# thermodynamic-limit observables
# ---------------------------------------------------------------------------

def dispersion(phi, lam):
    """Quasiparticle energy sqrt((lam sin phi)^2 + (1 + lam cos phi)^2)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return np.sqrt((lam * np.sin(phi)) ** 2 + (1 + lam * np.cos(phi)) ** 2)


def _panels_for(r, lam):
    # one panel per ~half oscillation of cos(r phi); extra panels near lam = 1
    # where the integrand steepens at phi = pi
    base = max(2, int(abs(r)) // 2 + 2)
    if 0.5 < lam < 2.0:
        base = max(base, 8)
    return base


def _compute_elements(ks, params):
    """G_k for the integers ks, integrated chunk by chunk; yields (k, G_k)."""
    lam = params.lam

    def cos_part(phi, k):
        return np.cos(k * phi) * (1 + lam * np.cos(phi)) / dispersion(phi, lam)

    def sin_part(phi, k):
        return np.sin(k * phi) * np.sin(phi) / dispersion(phi, lam)

    ks = np.asarray(ks)
    panels = np.array([_panels_for(k, lam) for k in ks])
    chunk_of = (np.cumsum(panels) - panels) // _CHUNK_PANELS
    for chunk in np.unique(chunk_of):
        sel = chunk_of == chunk
        args = (ks[sel].astype(float), panels[sel], params.quad_tol)
        g = (_integrate(cos_part, *args) - lam * _integrate(sin_part, *args)) / np.pi
        yield from zip(ks[sel].tolist(), g.tolist())


def _toeplitz_elements(ks, params):
    """G_k for every k in ks as an array; the missing ones are computed together."""
    ks = [int(k) for k in ks]
    too_far = [k for k in ks if abs(k) > 10**4]
    if too_far:
        raise ValueError(f"|r| must be <= 1e4, got {too_far[0]}")
    key = (params.lam, params.quad_tol)
    table = _TABLES.pop(key, None)
    if table is None:
        table = {}
        if len(_TABLES) >= _CACHE_SIZE:
            _TABLES.popitem(last=False)
    _TABLES[key] = table
    missing = sorted(set(ks).difference(table))
    if missing:
        table.update(_compute_elements(missing, params))
    return np.array([table[k] for k in ks])


def toeplitz_element(r: int, params: CouplingRatio) -> float:
    """Integral element G_r; G_0 is the magnetization."""
    return float(_toeplitz_elements([r], params)[0])


def magnetization(params: CouplingRatio) -> float:
    """Ground-state magnetization <Z> in the thermodynamic limit (G_0)."""
    return toeplitz_element(0, params)


def toeplitz_table(r_max: int, params: CouplingRatio) -> ToeplitzElements:
    """All G_k for |k| <= r_max."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    ks = range(-r_max, r_max + 1)
    return ToeplitzElements(r_max=r_max,
                            g=dict(zip(ks, _toeplitz_elements(ks, params).tolist())))


def _elements_around(r, params):
    """G_k for k = -r .. r, at index k + r."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _toeplitz_elements(range(-r, r + 1), params)


def correlator_xx(r: int, params: CouplingRatio) -> float:
    """<X_0 X_r>: determinant of the r x r Toeplitz matrix with entry (i, j) = G_{j-i-1}."""
    g = _elements_around(r, params)
    return det_real(scipy.linalg.toeplitz(g[r - 1::-1], g[r - 1:2 * r - 1]))


def correlator_yy(r: int, params: CouplingRatio) -> float:
    """<Y_0 Y_r>: determinant of the r x r Toeplitz matrix with entry (i, j) = G_{i-j+1}."""
    g = _elements_around(r, params)
    return det_real(scipy.linalg.toeplitz(g[r + 1:], g[r + 1:1:-1]))


def correlator_zz(r: int, params: CouplingRatio) -> float:
    """<Z_0 Z_r> = m^2 - G_r G_{-r}."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    m = magnetization(params)
    return m * m - toeplitz_element(r, params) * toeplitz_element(-r, params)


def correlators(r: int, params: CouplingRatio) -> Correlators:
    """Magnetization plus all three correlators at separation r."""
    # first, so r is checked before any quadrature and all missing G_k,
    # |k| <= r, are integrated in one batch
    c_xx = correlator_xx(r, params)
    return Correlators(
        r=r,
        m=float(magnetization(params)),
        c_xx=float(c_xx),
        c_yy=float(correlator_yy(r, params)),
        c_zz=float(correlator_zz(r, params)),
    )


def ground_energy_density(params: CouplingRatio) -> float:
    """(1/pi) * integral of the dispersion over [0, pi] (positive magnitude).

    The ground-state energy per site is minus this value; the sum rule
    lam * c_xx(1) + m = ground_energy_density holds for every lam.
    """
    lam = params.lam
    (integral,) = _integrate(lambda phi, k: dispersion(phi, lam), np.zeros(1),
                             np.array([_panels_for(0, lam)]), params.quad_tol)
    return float(integral / np.pi)


# ---------------------------------------------------------------------------
# finite-chain exact-diagonalization oracle (testing only)
# ---------------------------------------------------------------------------

_DEGENERACY_GAP = 1e-8


def _chain_hamiltonian(n_sites, lam):
    dim = 1 << n_sites
    idx = np.arange(dim)
    bits = [((idx >> j) & 1) for j in range(n_sites)]
    h = np.zeros((dim, dim))
    h[idx, idx] = -sum((1 - 2 * b) for b in bits).astype(float)
    for j in range(n_sites):
        mask = (1 << j) | (1 << ((j + 1) % n_sites))
        h[idx ^ mask, idx] += -lam
    return h


def exact_diag_correlators(n_sites: int, lam: float):
    """Ground-state correlators of the periodic chain with n_sites spins.

    Dense diagonalization of the full 2^n Hamiltonian; returns a dict
    {r: Correlators} for r = 1 .. n_sites // 2.  When the two lowest states
    are quasi-degenerate (gap < _DEGENERACY_GAP, ordered phase at finite size),
    expectation values are averaged over both.
    """
    if n_sites < 4 or n_sites > 12 or n_sites % 2:
        raise ValueError(f"n_sites must be even and within [4, 12], got {n_sites}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    h = _chain_hamiltonian(n_sites, lam)
    w, v = scipy.linalg.eigh(h, subset_by_index=[0, 1])
    states = [v[:, 0]]
    if w[1] - w[0] < _DEGENERACY_GAP:
        states.append(v[:, 1])

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
