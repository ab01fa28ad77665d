"""Walk through the chain observables: magnetization, correlators, sum rule.

Run:  python demos/01_correlators_and_sum_rule.py
"""

import numpy as np

from tfim_phases import (
    CouplingRatio,
    correlators,
    exact_diag_correlators,
    ground_energy_density,
    magnetization,
)

print("=" * 64)
print("Magnetization <Z> across the transition (critical coupling = 1)")
print("=" * 64)
for lam in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
    m = magnetization(CouplingRatio(lam))
    bar = "#" * int(round(40 * m))
    print(f"  lam={lam:4.2f}  m={m:.8f}  {bar}")
print(f"  (at lam=1 the closed form gives 2/pi = {2/np.pi:.8f})")

print()
print("=" * 64)
print("Two-site correlators at nearest neighbor and r = 10")
print("=" * 64)
print(f"  {'lam':>5} {'r':>3} {'c_xx':>12} {'c_yy':>12} {'c_zz':>12} {'c_zz - m^2':>12}")
for lam in (0.5, 1.0, 1.5):
    params = CouplingRatio(lam)
    for r in (1, 10):
        c = correlators(r, params)
        print(f"  {lam:5.2f} {r:3d} {c.c_xx:12.8f} {c.c_yy:12.8f} "
              f"{c.c_zz:12.8f} {c.c_zz - c.m**2:12.8f}")
print("  connected zz correlations die off with r in the paramagnet,")
print("  while xx correlations persist in the ordered phase.")

print()
print("=" * 64)
print("Ground-state energy sum rule: lam*c_xx(1) + m = (1/pi) int omega")
print("=" * 64)
for lam in (0.25, 1.0, 1.75):
    params = CouplingRatio(lam)
    lhs = lam * correlators(1, params).c_xx + magnetization(params)
    rhs = ground_energy_density(params)
    print(f"  lam={lam:4.2f}  lhs={lhs:.12f}  rhs={rhs:.12f}  diff={lhs - rhs:+.2e}")
print("  This identity pins down the sign convention of the Toeplitz elements.")

print()
print("=" * 64)
print("Finite-chain exact diagonalization vs the thermodynamic limit")
print("=" * 64)
lam = 0.5
thermo = correlators(1, CouplingRatio(lam))
print(f"  lam={lam}, r=1:      m           c_xx")
for n in (6, 8, 10):
    ed = exact_diag_correlators(n, lam)
    print(f"  N={n:2d}         {ed[1].m:.8f}  {ed[1].c_xx:.8f}")
print(f"  N=infinity   {thermo.m:.8f}  {thermo.c_xx:.8f}")
