"""Reduced density matrices and the adiabatic local-rotation family.

The states are returned as plain density matrices: (I + m Z) / 2 on one
site and the X-shaped 4x4 matrix of the correlators on the pair.

Basis convention: two-site states live in the product basis
|00>, |01>, |10>, |11> with site 0 the left tensor factor and |0> the
Z = +1 state.  The loop unitary is R_z(phi) R_y(theta) applied to every
site, with half-angle phases taken literally, so a 2*pi z-rotation is -I
on a single site and +I on a pair.  It is built only by ``loop_unitary``,
as U(phi) = e^{K phi} U(0) with the constant generator K; ``start_unitary``
keeps its U(0) of recent theta values in a small bounded cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError
from .ising import BOUND_SLACK, Correlators, require_integer

__all__ = [
    "LoopSpec",
    "single_site_state",
    "two_site_state",
    "generator_diagonal",
    "FULL_TURN_SIGN",
    "loop_generator",
    "loop_unitary",
    "start_unitary",
]

MIN_LOOP_STEPS = 16

# Smallest eigenvalue a two-site state may have before it is unphysical.
_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class LoopSpec:
    """Fixed polar angle theta (a float, or a tuple of floats from a 1-D
    sequence) and the number of azimuthal grid steps."""

    theta: float
    steps: int = 2000

    def __post_init__(self):
        theta = np.asarray(self.theta)
        if theta.ndim > 1 or theta.dtype.kind not in "biuf":
            raise ValueError(f"theta must be a float or a 1-D float sequence, got {self.theta!r}")
        object.__setattr__(self, "theta", tuple(map(float, theta)) if theta.ndim else float(theta))
        bad = [t for t in np.atleast_1d(theta).tolist() if not 0 <= t <= np.pi]
        if bad or not theta.size:
            raise ValueError(f"theta must be in [0, pi], got {', '.join(map(str, bad)) or 'none'}")
        require_integer("steps", self.steps)
        if self.steps < MIN_LOOP_STEPS:
            raise ValueError(f"steps must be >= {MIN_LOOP_STEPS}, got {self.steps}")


def single_site_state(m: float) -> np.ndarray:
    """(I + m Z) / 2 with |m| <= 1 (tiny overshoot clamped; NaN raises)."""
    if not abs(m) <= 1 + BOUND_SLACK:
        raise ValueError(f"m = {m}: |m| exceeds 1 beyond tolerance")
    m = min(max(m, -1.0), 1.0)
    return np.diag([(1 + m) / 2, (1 - m) / 2]).astype(complex)


def two_site_state(c: Correlators) -> np.ndarray:
    """X-shaped two-site density matrix built from the correlator set."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1 + 2 * c.m + c.c_zz) / 4
    rho[1, 1] = (1 - c.c_zz) / 4
    rho[2, 2] = (1 - c.c_zz) / 4
    rho[3, 3] = (1 - 2 * c.m + c.c_zz) / 4
    rho[0, 3] = rho[3, 0] = (c.c_xx - c.c_yy) / 4
    rho[1, 2] = rho[2, 1] = (c.c_xx + c.c_yy) / 4
    # eigvalsh of a NaN entry gives garbage or raises, so NaN is carried past it
    min_eig = float(np.linalg.eigvalsh(rho)[0]) if np.isfinite(rho).all() else np.nan
    if not min_eig >= _PSD_FLOOR:
        raise UnphysicalStateError(
            f"correlator set gives min eigenvalue {min_eig:.3e} < {_PSD_FLOOR:g}"
        )
    return rho


def generator_diagonal(dim: int) -> np.ndarray:
    """The diagonal of the loop generator K, without building K."""
    if dim == 2:
        return np.array([0.5j, -0.5j])
    if dim == 4:
        return np.array([1j, 0.0, 0.0, -1j])
    raise ValueError(f"dim must be 2 or 4, got {dim}")


FULL_TURN_SIGN = {2: -1, 4: 1}  # e^{2 pi K} = sign * I exactly: a spinor's -1, the pair's +1


def loop_generator(dim: int) -> np.ndarray:
    """K = (dU/dphi) U^dag: i Z/2 on one site, i (Z x I + I x Z)/2 on the pair."""
    return np.diag(generator_diagonal(dim))


def loop_unitary(phi: float, theta, dim: int) -> np.ndarray:
    """U(phi) = e^{K phi} U(0), U(0) = R_y(theta) on each of the dim // 2 sites.

    K is diagonal, so e^{K phi} is one exponential of its diagonal;
    ``loop_unitary(phi, 0.0, dim)`` is e^{K phi} alone.  A 1-D theta gives
    the (len(theta), dim, dim) stack of these unitaries.
    """
    half = np.asarray(theta) / 2
    c, s = np.cos(half), np.sin(half)
    ry = np.array([c, -s, s, c], dtype=complex).T.reshape(*half.shape, 2, 2)
    if dim == 4:
        ry = (ry[..., :, None, :, None] * ry[..., None, :, None, :]).reshape(*half.shape, 4, 4)
    return np.exp(generator_diagonal(dim) * phi)[:, None] * ry


@functools.lru_cache(maxsize=64)
def _cached_start_unitary(theta_bytes, shape, dim):
    u = loop_unitary(0.0, np.frombuffer(theta_bytes).reshape(shape), dim)
    u.flags.writeable = False
    return u


def start_unitary(theta, dim: int) -> np.ndarray:
    """U(0) = loop_unitary(0.0, theta, dim) as a read-only array, built once per
    (theta, dim) of the last 64 asked for.

    theta is a float or a 1-D sequence of floats (a tuple, list or array),
    keyed by its float64 bytes, so a theta and a stack of it each get their own
    entry and -0.0 is not 0.0.
    """
    theta = np.asarray(theta, dtype=float)
    return _cached_start_unitary(theta.tobytes(), theta.shape, dim)
