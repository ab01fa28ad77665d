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
  only to round-off, so each weight |U(0) v|^2 moves by about eps.
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
    interferometric_phase,
    interferometric_phase_from_eigen,
    wrap_angle,
)
from tfim_phases.states import single_site_state, two_site_state
from tfim_phases.sweep import SweepRecord, emit_csv, read_csv

from oracles import pair_amplitude, single_amplitude

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
