"""Domain properties of the correlators, the states, the interferometric
phase and the CSV, each over a range of its inputs.  The bounds are argued
from one run of each on a grid plus random points:

* the two-site state's trace is 1 within 2.2e-16 and its smallest
  eigenvalue is at least -6.3e-22 (r in [1, 20], lambda in [0, 3]);
* max |G_k| over |k| <= 200 is exactly 1.0, at lambda -> 0;
* the energy sum rule holds within 2.1e-14 absolute and 5.9e-16 relative
  to max(1, energy) over lambda in [0, 50];
* on product states delta_gamma times the squared single-site amplitude
  (the pair amplitude) is at most 1.3e-15: the phase of an amplitude a
  carries a round-off of about eps / |a|;
* rephasing the eigenvectors moves the interferometric phase by at most
  18 eps / |a| on the pair and 8 eps / |a| on one site (r in [1, 20],
  lambda in [0, 3], theta in [0, pi]): a unit phase factor has modulus 1
  only to round-off, so each weight |U(0) v|^2 moves by about eps;
* the single site's closed-form Uhlmann kernel is within 12 eps / v of the
  spectral path (``oracles.product_form_uhlmann``), v the smaller of
  |Tr[rho(0) V(2pi)]| and |Tr[rho(0) V_inf]|, in phase and step error
  (12000 random points, m in [0, 1 - 1e-6], steps in [16, 8000]).  The
  spectral path's step-factor eigenphases are off by about eps / steps, so
  its power stays within a few eps;
* both deviations are odd under theta -> pi - theta (lambda in [0.3, 3],
  r <= 11, theta in [0.05, pi - 0.05], 2000 steps, 1500 random points):
  delta_gamma within 15 eps / a and delta_gamma_u and the two step errors
  within 51 eps / v, with a the smaller single-site or pair amplitude and v
  the smallest of the four Uhlmann traces (1.2e-14, 1.7e-13 and 2.6e-13
  absolute).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfim_phases.ising import (
    Correlators,
    CouplingRatio,
    correlators,
    ground_energy_density,
    magnetization,
    toeplitz_element,
)
from tfim_phases.linalg import hermitian_eigen
from tfim_phases.phases import (
    PhaseRecord,
    compute_phases,
    interferometric_phase,
    interferometric_phase_from_eigen,
    uhlmann_phase,
    wrap_angle,
)
from tfim_phases.states import LoopSpec, single_site_state, two_site_state
from tfim_phases.sweep import SweepRecord, emit_csv, read_csv

from oracles import pair_amplitude, product_form_uhlmann, single_amplitude

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
EPS = np.finfo(float).eps

# Below this pair visibility a phase carries no digits worth pinning.
MIN_VISIBILITY = 1e-9


@SETTINGS
@given(r=st.integers(1, 20), lam=st.floats(0.0, 3.0))
def test_two_site_state_is_a_density_matrix(r, lam):
    rho = two_site_state(correlators(r, CouplingRatio(lam)))
    # the diagonal sums to 1 exactly but for a few roundings of order 1
    assert abs(np.trace(rho) - 1) <= 4 * EPS
    # eigvalsh is backward stable: an eigenvalue moves by a few eps ||rho|| <= eps
    assert np.linalg.eigvalsh(rho)[0] >= -4 * EPS


@SETTINGS
@given(lam=st.floats(0.0, 3.0))
def test_toeplitz_elements_bounded_by_one(lam):
    # |G_k| <= 1 is the bound of a correlation of unit-norm operators; 1.0
    # itself is met at lambda = 0, so one rounding above it is allowed
    g = toeplitz_element(np.arange(-200, 201), CouplingRatio(lam))
    assert np.abs(g).max() <= 1 + EPS


@SETTINGS
@given(lam=st.floats(0.0, 50.0))
def test_energy_sum_rule(lam):
    # lam <X X> + <Z> is minus the energy per site; both sides are of order
    # max(1, energy) and carry some ulps of it
    params = CouplingRatio(lam)
    energy = ground_energy_density(params)
    lhs = lam * correlators(1, params).c_xx + magnetization(params)
    assert abs(lhs - energy) <= 20 * EPS * max(1.0, energy)


@SETTINGS
@given(r=st.integers(1, 20), lam=st.floats(0.0, 3.0), theta=st.floats(0.0, np.pi),
       state=st.sampled_from(["pair", "single"]),
       angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=4, max_size=4))
def test_interferometric_phase_is_gauge_invariant(r, lam, theta, state, angles):
    # the phase may not depend on the phase of any eigenvector
    c = correlators(r, CouplingRatio(lam))
    rho, amplitude = ((two_site_state(c), pair_amplitude(c, theta)) if state == "pair"
                      else (single_site_state(c.m), single_amplitude(c.m, theta)))
    assume(abs(amplitude) >= MIN_VISIBILITY)
    p, v = hermitian_eigen(rho)
    rephased = v * np.exp(1j * np.array(angles[:len(p)]))
    delta = wrap_angle(interferometric_phase_from_eigen(p, rephased, theta)
                       - interferometric_phase_from_eigen(p, v, theta))
    assert abs(delta) * abs(amplitude) <= 40 * EPS


@SETTINGS
@given(m=st.floats(-1.0, 1.0), theta=st.floats(0.0, np.pi))
def test_interferometric_phase_factorizes_over_product_states(m, theta):
    # rho_pair = rho_1 x rho_1 when c_xx = c_yy = 0 and c_zz = m^2, so the
    # pair amplitude is the square of the single-site one and delta_gamma = 0
    visibility = abs(single_amplitude(m, theta)) ** 2
    assume(visibility >= MIN_VISIBILITY)
    pair = two_site_state(Correlators(r=1, m=m, c_xx=0.0, c_yy=0.0, c_zz=m * m))
    delta = wrap_angle(interferometric_phase(pair, theta)
                       - 2 * interferometric_phase(single_site_state(m), theta))
    assert abs(delta) * visibility <= 40 * EPS


@SETTINGS
@given(m=st.floats(0.0, 1 - 1e-6), theta=st.floats(0.0, np.pi), steps=st.integers(16, 8000))
def test_single_site_uhlmann_matches_spectral_path(m, theta, steps):
    # the kernel's closed form against the eigendecompositions of the 4x4
    # path, run on the 2x2 state; p- >= 5e-7 passes the default rank_eps
    rho = single_site_state(m)
    gamma_n, step_error, visibility = (x[0] for x in product_form_uhlmann(rho, theta, steps))
    assume(visibility >= MIN_VISIBILITY)
    result = uhlmann_phase(rho, LoopSpec(theta=theta, steps=steps))
    assert abs(wrap_angle(result.phase - gamma_n)) <= 64 * EPS / visibility
    assert abs(result.convergence_estimate - step_error) <= 64 * EPS / visibility


@SETTINGS
@given(r=st.integers(1, 11), lam=st.floats(0.3, 3.0), theta=st.floats(0.05, np.pi - 0.05))
def test_deviations_are_odd_under_theta_reflection(r, lam, theta):
    # the loop's cone at pi - theta mirrors the one at theta through the xy
    # plane, which reverses each phase, and with it each deviation
    thetas = (theta, np.pi - theta)
    c = correlators(r, CouplingRatio(lam))
    amplitude = min(abs(pair_amplitude(c, theta)), abs(single_amplitude(c.m, theta)))
    visibility = min(product_form_uhlmann(rho, thetas, 2000)[2].min()
                     for rho in (two_site_state(c), single_site_state(c.m)))
    assume(min(amplitude, visibility) >= MIN_VISIBILITY)
    first, mirrored = compute_phases(lam, r, thetas, loop_steps=2000, corr=c)
    assert abs(wrap_angle(first.delta_gamma + mirrored.delta_gamma)) <= 64 * EPS / amplitude
    assert abs(wrap_angle(first.delta_gamma_u + mirrored.delta_gamma_u)) <= 256 * EPS / visibility
    assert abs(first.convergence_estimate
               - mirrored.convergence_estimate) <= 256 * EPS / visibility


def optional(values):
    return st.none() | values


ANGLES = st.floats(-np.pi, np.pi)
RECORDS = st.builds(
    SweepRecord,
    lam=st.floats(0.0, 50.0),
    r=st.integers(1, 10_000),
    theta=st.floats(0.0, np.pi),
    record=st.builds(PhaseRecord, **{name: optional(ANGLES) for name in (
        "gamma_int_pair", "gamma_int_single", "delta_gamma",
        "gamma_u_pair", "gamma_u_single", "delta_gamma_u")},
        steps_used=st.sampled_from([0, 16, 2000])),
    status=st.sampled_from(["ok", "rank_deficient", "vanishing_visibility",
                            "unphysical_state", "numerical_error"]),
    delta_gamma_unwrapped=optional(st.floats(-100.0, 100.0)),
    delta_gamma_u_unwrapped=optional(st.floats(-100.0, 100.0)),
)


def at_12_digits(x):
    return None if x is None else float(format(x, ".12g"))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(records=st.lists(RECORDS, min_size=1, max_size=8), quad_tol=st.floats(1e-15, 1e-3))
def test_csv_round_trip(tmp_path_factory, records, quad_tol):
    path, again = (tmp_path_factory.getbasetemp() / name for name in ("first.csv", "again.csv"))
    emit_csv(records, path, quad_tol)
    back, back_tol = read_csv(path)
    emit_csv(back, again, back_tol)
    assert again.read_text() == path.read_text()
    assert back_tol == at_12_digits(quad_tol)
    assert len(back) == len(records)
    for got, rec in zip(back, records):
        assert (got.r, got.status, got.record.steps_used) == (
            rec.r, rec.status, rec.record.steps_used)
        for name in ("lam", "theta", "delta_gamma_unwrapped", "delta_gamma_u_unwrapped"):
            assert getattr(got, name) == at_12_digits(getattr(rec, name))
        for name in ("gamma_int_pair", "gamma_int_single", "delta_gamma",
                     "gamma_u_pair", "gamma_u_single", "delta_gamma_u"):
            assert getattr(got.record, name) == at_12_digits(getattr(rec.record, name))
