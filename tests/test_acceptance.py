"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including elapsed times.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from tfim_phases.ising import (
    CouplingRatio,
    correlators,
    exact_diag_correlators,
    ground_energy_density,
    magnetization,
)
from tfim_phases.linalg import hermitian_eigen
from tfim_phases.phases import (
    interferometric_phase,
    interferometric_phase_from_eigen,
    single_site_phase_closed,
    uhlmann_connection,
    uhlmann_holonomy,
    uhlmann_phase,
    wrap_angle,
)
from tfim_phases.states import (
    LoopSpec,
    loop_generator,
    single_site_state,
    two_site_state,
)
from tfim_phases.sweep import emit_csv, preset, run_sweep

from oracles import evolve

THETA = np.pi / 3


def report(name, elapsed, budget):
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f} s, budget {budget:.0f} s)")
    assert elapsed < budget


def pick(records, lam, r, theta):
    for rec in records:
        if rec.r == r and abs(rec.lam - lam) < 1e-9 and abs(rec.theta - theta) < 1e-12:
            return rec
    raise AssertionError(f"grid point ({lam}, {r}, {theta}) not found")


def test_criterion_1_magnetization():
    t0 = time.perf_counter()
    assert abs(magnetization(CouplingRatio(0.0)) - 1.0) <= 1e-10
    assert abs(magnetization(CouplingRatio(1.0)) - 2 / np.pi) <= 1e-8
    report("1 magnetization endpoints", time.perf_counter() - t0, 1.0)


def test_criterion_2_energy_sum_rule():
    t0 = time.perf_counter()
    for lam in (0.25, 0.5, 1.0, 1.5, 2.0):
        params = CouplingRatio(lam)
        lhs = lam * correlators(1, params).c_xx + magnetization(params)
        assert abs(lhs - ground_energy_density(params)) <= 1e-8, f"sum rule fails at {lam}"
    report("2 ground-energy sum rule", time.perf_counter() - t0, 5.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    sizes = (8, 10, 12)
    for lam in (0.5, 1.5):
        thermo = {r: correlators(r, CouplingRatio(lam)) for r in (1, 2, 3)}
        eds = {n: exact_diag_correlators(n, lam) for n in sizes}
        for r in (1, 2, 3):
            for q in ("m", "c_xx", "c_yy", "c_zz"):
                gaps = [abs(getattr(eds[n][r], q) - getattr(thermo[r], q)) for n in sizes]
                assert all(a >= b - 1e-10 for a, b in zip(gaps, gaps[1:])), \
                    f"non-monotone approach: lam={lam} r={r} {q}: {gaps}"
                assert gaps[-1] < 5e-2, f"N=12 discrepancy too large: lam={lam} r={r} {q}"
    report("3 exact-diagonalization equivalence", time.perf_counter() - t0, 120.0)


def test_criterion_4_interferometric_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    # gauge invariance under eigenvector rephasing
    rho = two_site_state(correlators(1, CouplingRatio(1.3)))
    eig = hermitian_eigen(rho)
    reference = interferometric_phase_from_eigen(eig.values, eig.vectors, THETA)
    for _ in range(20):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        got = interferometric_phase_from_eigen(eig.values, eig.vectors * phases, THETA)
        assert abs(wrap_angle(got - reference)) <= 1e-10

    # product factorization
    for _ in range(100):
        m = rng.uniform(0.05, 0.99)
        theta = rng.uniform(0.05, np.pi - 0.05)
        single = single_site_state(m)
        g1 = interferometric_phase(single, theta)
        g2 = interferometric_phase(np.kron(single, single), theta)
        assert abs(wrap_angle(g2 - 2 * g1)) <= 1e-9

    # closed form matched modulo pi on a 20x20 grid
    for m in np.linspace(-0.95, 0.95, 20):
        for theta in np.linspace(0.01, np.pi - 0.01, 20):
            spectral = interferometric_phase(single_site_state(float(m)), float(theta))
            closed = single_site_phase_closed(float(m), float(theta))
            diff = (spectral - closed) % np.pi
            assert min(diff, np.pi - diff) <= 1e-10
    report("4 interferometric invariants", time.perf_counter() - t0, 30.0)


def test_criterion_5_uhlmann_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    pair = two_site_state(correlators(1, CouplingRatio(1.5)))

    # connection anti-Hermiticity
    for _ in range(20):
        lam = rng.uniform(0.3, 2.0)
        theta = rng.uniform(0.1, np.pi - 0.1)
        phi = rng.uniform(0, 2 * np.pi)
        rho = two_site_state(correlators(1, CouplingRatio(lam)))
        a = uhlmann_connection(evolve(rho, phi, theta))
        assert np.abs(a + a.conj().T).max() <= 1e-12

    # holonomy unitarity
    for steps in (128, 1000):
        v = uhlmann_holonomy(pair, LoopSpec(theta=THETA, steps=steps))
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10

    # first-order convergence of the propagated holonomy (log-log slope)
    k = loop_generator(4)
    a0 = uhlmann_connection(evolve(pair, 0.0, THETA))
    v_exact = scipy.linalg.expm(2 * np.pi * k) @ scipy.linalg.expm(2 * np.pi * (a0 - k))
    steps_list = [250, 500, 1000, 2000]
    errors = [
        np.abs(uhlmann_holonomy(pair, LoopSpec(theta=THETA, steps=s)) - v_exact).max()
        for s in steps_list
    ]
    slope = -np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
    assert 0.8 <= slope <= 1.2, f"convergence slope {slope}"

    # product factorization within twice the reported step error
    for _ in range(5):
        m = rng.uniform(0.2, 0.9)
        theta = rng.uniform(0.2, np.pi - 0.2)
        single = single_site_state(m)
        loop = LoopSpec(theta=theta, steps=500)
        r1 = uhlmann_phase(single, loop)
        r2 = uhlmann_phase(np.kron(single, single), loop)
        tol = max(1e-12, 2 * max(r1.convergence_estimate, r2.convergence_estimate))
        assert abs(wrap_angle(r2.phase - 2 * r1.phase)) <= tol

    # pure-state limit meets the interferometric phase
    m = 1 - 1e-4
    rho = single_site_state(m)
    for theta in np.linspace(0.2, np.pi - 0.2, 7):
        res = uhlmann_phase(rho, LoopSpec(theta=float(theta), steps=2000), rank_eps=1e-6)
        gi = interferometric_phase(rho, float(theta))
        assert abs(wrap_angle(res.phase - gi)) <= 1e-2
    report("5 Uhlmann invariants", time.perf_counter() - t0, 120.0)


def test_criterion_6_figure_shapes():
    t0 = time.perf_counter()

    # fig1: suppression below criticality, growth above, stronger suppression at larger r
    rec1 = run_sweep(preset("fig1"))
    dg_05_r1 = abs(pick(rec1, 0.5, 1, THETA).record.delta_gamma)
    dg_05_r10 = abs(pick(rec1, 0.5, 10, THETA).record.delta_gamma)
    dg_15_r1 = abs(pick(rec1, 1.5, 1, THETA).record.delta_gamma)
    dg_15_r10 = abs(pick(rec1, 1.5, 10, THETA).record.delta_gamma)
    assert dg_05_r10 < dg_05_r1 < dg_15_r1
    assert dg_05_r10 < dg_15_r10

    # fig2: transport-phase deviation tends to zero at the small-coupling end
    cfg2 = preset("fig2")
    rec2 = run_sweep(cfg2)
    lam_lo = cfg2.lambda_min
    for theta in cfg2.theta_list:
        for r in cfg2.r_list:
            rec = pick(rec2, lam_lo, r, theta)
            assert rec.status == "ok", f"rank failure at the lambda -> 0 end (r={r})"
            assert abs(rec.record.delta_gamma_u) <= 1e-2

    # fig3: steeper transport-phase variation across the critical point
    cfg3 = preset("fig3")
    rec3 = run_sweep(cfg3)
    lams = cfg3.lambda_grid()
    for r in cfg3.r_list:
        family = [x for x in rec3 if x.r == r]
        dg = np.array([x.delta_gamma_unwrapped for x in family])
        dgu = np.array([x.delta_gamma_u_unwrapped for x in family])
        slope_int = np.abs(np.diff(dg) / np.diff(lams)).max()
        slope_uhl = np.abs(np.diff(dgu) / np.diff(lams)).max()
        assert slope_uhl > slope_int, f"r={r}: {slope_uhl} <= {slope_int}"

    report("6 figure-shape reproduction", time.perf_counter() - t0, 600.0)


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    from tfim_phases.sweep import SweepConfig

    config = SweepConfig(
        lambda_min=0.3, lambda_max=1.4, lambda_steps=3, r_list=(1,),
        theta_list=(THETA,), kinds=("interferometric", "uhlmann"), loop_steps=128,
    )
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    emit_csv(run_sweep(config, workers=1), paths[0])
    emit_csv(run_sweep(config, workers=1), paths[1])
    emit_csv(run_sweep(config, workers=2), paths[2])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    report("7 determinism across runs and workers", time.perf_counter() - t0, 60.0)
