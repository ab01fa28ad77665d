"""Anatomy of the Uhlmann (purification-transport) phase computation.

Shows the loop model U(phi) = e^{K phi} U(0), the connection at the start
of the loop, the holonomy unitary, the step error of the phase against its
exact steps -> inf limit, and a reduced small-coupling sweep of the
deviation delta_gamma_u with its slow approach to the product limit.

Run:  python demos/03_uhlmann_deviation.py
"""

import os

import numpy as np

from tfim_phases import (
    CouplingRatio,
    LoopSpec,
    correlators,
    loop_unitary,
    two_site_state,
    uhlmann_connection,
    uhlmann_holonomy,
    uhlmann_phase,
)
from tfim_phases.sweep import SweepConfig, emit_csv, emit_svg, run_sweep

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)
THETA = np.pi / 3

print("Loop model: e^{2 pi K} = loop_unitary(2 pi, 0, dim)")
for dim, name in ((2, "one site"), (4, "pair")):
    diag = np.diag(loop_unitary(2 * np.pi, 0.0, dim)).real
    print(f"  {name:8s}: diag = {np.round(diag, 12)}")
print()
print("Connection and holonomy at lam = 1.5, r = 1, theta = pi/3")
rho = two_site_state(correlators(1, CouplingRatio(1.5)))
u = loop_unitary(0.0, THETA, 4)
a0 = uhlmann_connection(u @ rho @ u.conj().T)
print(f"  ||A(0) + A(0)^dag||_max = {np.abs(a0 + a0.conj().T).max():.2e}  (anti-Hermitian)")
for steps in (250, 1000, 4000):
    v = uhlmann_holonomy(rho, LoopSpec(theta=THETA, steps=steps))
    unit = np.abs(v.conj().T @ v - np.eye(4)).max()
    print(f"  steps={steps:5d}: ||V^dag V - I||_max = {unit:.2e}")
res = uhlmann_phase(rho, LoopSpec(theta=THETA, steps=2000))
print(f"  phase = {res.phase:+.8f} rad, step error = {res.convergence_estimate:.2e}")

print()
print("Small-coupling behavior of delta_gamma_u (slow product-limit approach)")
config = SweepConfig(
    lambda_min=0.05, lambda_max=0.6, lambda_steps=12,
    r_list=(1,), theta_list=(np.pi / 12, THETA),
    kinds=("uhlmann",), loop_steps=1000,
)
records = run_sweep(config)
csv_path = os.path.join(OUT, "uhlmann_small_coupling.csv")
svg_path = os.path.join(OUT, "uhlmann_small_coupling.svg")
emit_csv(records, csv_path, quad_tol=config.quad_tol)
emit_svg(records, svg_path, y_column="delta_gamma_u_unwrapped")
print(f"  wrote {csv_path}")
print(f"  wrote {svg_path}")
print(f"  {'lam':>6} " + " ".join(f"theta={t:<6.4f}" for t in config.theta_list))
for lam in config.lambda_grid():
    row = []
    for theta in config.theta_list:
        rec = next(x for x in records
                   if abs(x.lam - lam) < 1e-12 and abs(x.theta - theta) < 1e-12)
        row.append(f"{rec.record.delta_gamma_u:+.6f}")
    print(f"  {lam:6.3f} " + " ".join(f"{v:>12}" for v in row))
print()
print("The deviation decays toward zero as the coupling shrinks, but much more")
print("slowly (and more theta-sensitively) than its interferometric counterpart.")
print("Below lam ~ 0.03 the two-site state loses full rank at the default")
print("rank_eps and the transport phase is reported as undefined.")
