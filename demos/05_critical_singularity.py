"""Show the logarithmic singularity of both deviations at the critical point.

At lam = 1 the magnetization has a logarithmic derivative,
dm/dlam ~ (1/pi) ln|lam - 1|, and every correlator has one too.  A central
difference over lam = 1 +- h therefore grows by a fixed amount each time h
drops by a decade: -ln(10)/pi for m.  The deviations delta_gamma and
delta_gamma_u inherit that growth through the chain rule, with a per-decade
slope that depends on r and theta.  This prints that slope for both.

Run:  python demos/05_critical_singularity.py
"""

import numpy as np

from tfim_phases import CouplingRatio, compute_phases, magnetization

STEPS = (1e-2, 1e-3, 1e-4, 1e-5)


def central_difference(f, h):
    return (f(1 + h) - f(1 - h)) / (2 * h)


def per_decade_slopes(f):
    """How much the central difference grows as h drops from each step to the next."""
    d = [central_difference(f, h) for h in STEPS]
    return [b - a for a, b in zip(d, d[1:])]


def deviations(lam, r, theta):
    rec = compute_phases(lam, r, theta)
    return np.array([rec.delta_gamma, rec.delta_gamma_u])


slopes = per_decade_slopes(lambda lam: magnetization(CouplingRatio(lam)))
print(f"dm/dlam per decade of h: {', '.join(f'{s:+.5f}' for s in slopes)}"
      f"  (-ln(10)/pi = {-np.log(10) / np.pi:+.5f})")
print()
print("Per-decade slopes of d(delta_gamma)/dlam (dg) and d(delta_gamma_u)/dlam (dgu),")
print("as h drops from " + ", ".join(f"{a:g} to {b:g}" for a, b in zip(STEPS, STEPS[1:])) + ":")
print(f"  {'r':>3} {'theta':>7}  " + "".join(f"  {'dg':>8} {'dgu':>8}" for _ in STEPS[1:]))
for r in (1, 2, 5):
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        pairs = per_decade_slopes(lambda lam: deviations(lam, r, theta))
        print(f"  {r:3d} {theta:7.4f}  "
              + "".join(f"  {s[0]:+8.4f} {s[1]:+8.4f}" for s in pairs))
print()
print("Each slope settles once h is small: the deviations' derivatives diverge")
print("logarithmically at the critical coupling, as the magnetization's does.")
