"""Reduced density matrices and the adiabatic local-rotation family.

Basis convention: two-site states live in the product basis
|00>, |01>, |10>, |11> with site 0 the left tensor factor and |0> the
Z = +1 state.  The loop unitary is R_z(phi) R_y(theta) applied to every
site, with half-angle phases taken literally, so a 2*pi z-rotation is -I
on a single site and +I on a pair.  It is built only by ``loop_unitary``,
as U(phi) = e^{K phi} U(0) with the constant generator K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError
from .ising import BOUND_SLACK, Correlators
from .linalg import IDENTITY_2, SIGMA_Z

__all__ = [
    "SingleSiteState",
    "TwoSiteState",
    "LoopSpec",
    "single_site_state",
    "two_site_state",
    "loop_generator",
    "loop_unitary",
    "evolve",
    "partial_trace",
]

MIN_LOOP_STEPS = 16

# Smallest eigenvalue a two-site state may have before it is unphysical.
_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class SingleSiteState:
    matrix: np.ndarray
    m: float


@dataclass(frozen=True)
class TwoSiteState:
    matrix: np.ndarray
    source: Correlators


@dataclass(frozen=True)
class LoopSpec:
    """Fixed polar angle theta and the number of azimuthal grid steps."""

    theta: float
    steps: int = 2000

    def __post_init__(self):
        if not 0 <= self.theta <= np.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if self.steps < MIN_LOOP_STEPS:
            raise ValueError(f"steps must be >= {MIN_LOOP_STEPS}, got {self.steps}")


def single_site_state(m: float) -> SingleSiteState:
    """(I + m Z) / 2 with |m| <= 1 (tiny overshoot clamped)."""
    if abs(m) > 1 + BOUND_SLACK:
        raise ValueError(f"|m| = {abs(m)} exceeds 1 beyond tolerance")
    m = float(np.clip(m, -1.0, 1.0))
    return SingleSiteState(matrix=(IDENTITY_2 + m * SIGMA_Z) / 2, m=m)


def two_site_state(c: Correlators) -> TwoSiteState:
    """X-shaped two-site density matrix built from the correlator set."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1 + 2 * c.m + c.c_zz) / 4
    rho[1, 1] = (1 - c.c_zz) / 4
    rho[2, 2] = (1 - c.c_zz) / 4
    rho[3, 3] = (1 - 2 * c.m + c.c_zz) / 4
    rho[0, 3] = rho[3, 0] = (c.c_xx - c.c_yy) / 4
    rho[1, 2] = rho[2, 1] = (c.c_xx + c.c_yy) / 4
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < _PSD_FLOOR:
        raise UnphysicalStateError(
            f"correlator set gives min eigenvalue {min_eig:.3e} < {_PSD_FLOOR:g}"
        )
    return TwoSiteState(matrix=rho, source=c)


def loop_generator(dim: int) -> np.ndarray:
    """K = (dU/dphi) U^dag: i Z/2 on one site, i (Z x I + I x Z)/2 on the pair."""
    if dim == 2:
        return np.diag([0.5j, -0.5j])
    if dim == 4:
        return np.diag([1j, 0.0, 0.0, -1j])
    raise ValueError(f"dim must be 2 or 4, got {dim}")


def loop_unitary(phi: float, theta: float, dim: int) -> np.ndarray:
    """U(phi) = e^{K phi} U(0), U(0) = R_y(theta) on each of the dim // 2 sites.

    K is diagonal, so e^{K phi} is one exponential of its diagonal;
    ``loop_unitary(phi, 0.0, dim)`` is e^{K phi} alone.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    if dim == 4:
        ry = (ry[:, None, :, None] * ry[None, :, None, :]).reshape(4, 4)
    return np.exp(np.diagonal(loop_generator(dim)) * phi)[:, None] * ry


def evolve(rho: np.ndarray, phi: float, theta: float) -> np.ndarray:
    """U(phi) rho U(phi)^dag on one site (2x2) or on the pair (4x4)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {rho.shape}")
    u = loop_unitary(phi, theta, rho.shape[0])
    return u @ rho @ u.conj().T


def partial_trace(rho4: np.ndarray, keep: int) -> np.ndarray:
    """Reduce a two-site state to one site (keep=0 left factor, keep=1 right)."""
    r = np.asarray(rho4).reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 0 or 1, got {keep}")
