"""The closed forms of the two-site spectrum and of the pair's
interferometric phase (``oracles.pair_spectrum``, ``pair_amplitude``)
pinned against the general kernels, as properties over r in [1, 20],
lambda in [0.01, 3] and theta in [0, pi].  On the grid of every r, 61
lambda values and 13 theta values the largest deviations were 3.3e-16
(spectrum) and 3.2e-14 (pair phase).

The kernels evaluate a 2x2 state in closed form, the formula of
``oracles.single_amplitude``, so the single site is pinned against the
spectral path instead, and on general Bloch vectors against a 30-digit
evaluation (``oracles.mpmath_single_site_traces``).  The phase of an
amplitude a carries a round-off of about eps / |a|.  On a grid of 301
lambda values and 61 theta values the single-site phase was within
4 eps / |a| of the spectral path.  On 600 random general states (traces t
in [0.2, 3], steps in [16, 8000]) both kernels were within 6.7 eps / v of
the 30-digit values, with v the visibility |a| / t or |Tr[rho(0) V]| / t.
On 6000 general states at t = 1 the double-precision spectral path was
up to 708 eps / |a| (interferometric) and 2.1e-12 (Uhlmann, near 8000
steps) away from the closed forms.  At the 8 worst Uhlmann points of 2000
such states with t in [0.2, 3], it was off by up to 1.3e-12 from 40
digits, and the closed form by at most 3.1e-15.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfim_phases.ising import CouplingRatio, correlators, magnetization
from tfim_phases.linalg import hermitian_eigen
from tfim_phases.phases import (
    interferometric_phase,
    interferometric_phase_from_eigen,
    uhlmann_phase,
    wrap_angle,
)
from tfim_phases.states import LoopSpec, single_site_state, two_site_state

from oracles import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    mpmath_single_site_traces,
    pair_amplitude,
    pair_spectrum,
    single_amplitude,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
EPS = np.finfo(float).eps
R = st.integers(min_value=1, max_value=20)
LAM = st.floats(min_value=0.01, max_value=3.0)
THETA = st.floats(min_value=0.0, max_value=np.pi)

TRIPLET_0 = np.array([0, 1, 1, 0]) / np.sqrt(2)
SINGLET = np.array([0, 1, -1, 0]) / np.sqrt(2)

# Below this visibility a phase carries no digits worth pinning.
MIN_VISIBILITY = 1e-9

# Couplings where p- crosses the singlet weight p_s, each bisected on
# p- - p_s from pair_spectrum; r = 2 and r = 3 are the only crossings for
# r <= 20 and lambda in [0.005, 5].
CROSSINGS = {2: 1.120126734472556, 3: 2.2517889055872935}


@SETTINGS
@given(r=R, lam=LAM)
def test_pair_spectrum_matches_eigvalsh(r, lam):
    c = correlators(r, CouplingRatio(lam))
    rho = two_site_state(c)
    spectrum = pair_spectrum(c)
    assert np.max(np.abs(np.sort(spectrum) - np.linalg.eigvalsh(rho))) <= 1e-14
    # the triplet and singlet weights belong to their fixed vectors
    for vector, weight in zip((TRIPLET_0, SINGLET), spectrum[2:]):
        assert np.max(np.abs(rho @ vector - weight * vector)) <= 1e-14


@SETTINGS
@given(r=R, lam=LAM, theta=THETA)
def test_pair_phase_matches_closed_form(r, lam, theta):
    c = correlators(r, CouplingRatio(lam))
    amplitude = pair_amplitude(c, theta)
    assume(abs(amplitude) >= MIN_VISIBILITY)
    gamma = interferometric_phase(two_site_state(c), theta)
    assert abs(wrap_angle(gamma - np.angle(amplitude))) <= 1e-12


@SETTINGS
@given(r=R, lam=LAM)
def test_pair_eigenvectors_keep_z_parity(r, lam):
    # each eigenvector lies in span{|00>, |11>} or in span{|01>, |10>}
    _, v = hermitian_eigen(two_site_state(correlators(r, CouplingRatio(lam))))
    for k in range(4):
        assert not v[[0, 3], k].any() or not v[[1, 2], k].any()


@pytest.mark.parametrize("r, steps, spacing", [(2, 200, 1e-14), (3, 200, 1e-14),
                                               (2, 2000, 1e-15)])
def test_pair_phase_continuous_at_crossing(r, steps, spacing):
    # where p- meets p_s the two eigenvalues of different Z parity are
    # degenerate; the pair phase must still equal the closed form there
    def gap(lam):
        _, p_minus, _, p_singlet = pair_spectrum(correlators(r, CouplingRatio(lam)))
        return p_minus - p_singlet

    # p- - p_s changes sign within 1e-8 of lambda* (1.7e-10 and 7.5e-14 off it)
    assert gap(CROSSINGS[r] - 1e-8) < 0 < gap(CROSSINGS[r] + 1e-8)
    for lam in CROSSINGS[r] + spacing * np.arange(-steps, steps + 1):
        c = correlators(r, CouplingRatio(lam))
        gammas = interferometric_phase(two_site_state(c), (1.0, np.pi / 12, np.pi / 3))
        for theta, gamma in zip((1.0, np.pi / 12, np.pi / 3), gammas):
            assert abs(wrap_angle(gamma - np.angle(pair_amplitude(c, theta)))) <= 1e-12


@SETTINGS
@given(lam=LAM, theta=THETA)
def test_single_site_phase_matches_spectral_path(lam, theta):
    m = magnetization(CouplingRatio(lam))
    visibility = abs(single_amplitude(m, theta))
    assume(visibility >= MIN_VISIBILITY)
    rho = single_site_state(m)
    spectral = interferometric_phase_from_eigen(*hermitian_eigen(rho), theta)
    assert abs(wrap_angle(interferometric_phase(rho, theta) - spectral)) <= 16 * EPS / visibility


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=st.floats(1e-9, 1 - 1e-6), trace=st.floats(0.2, 3.0), polar=THETA,
       azimuth=st.floats(0.0, 2 * np.pi), theta=THETA, steps=st.integers(16, 8000))
def test_single_site_closed_forms_match_30_digits(m, trace, polar, azimuth, theta, steps):
    # any Bloch vector and trace, off the z axis of the reduced states;
    # m >= 1e-9 keeps the eigenvalues apart at 30 digits, so that the
    # oracle's eigenvectors follow b, and p- >= 1e-7 passes rank_eps = 1e-9
    b = trace * m * np.array([np.sin(polar) * np.cos(azimuth),
                              np.sin(polar) * np.sin(azimuth), np.cos(polar)])
    rho = (trace * np.eye(2) + b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z) / 2
    amplitude, trace_n, trace_inf = mpmath_single_site_traces(rho, theta, steps)
    visibility = min(abs(trace_n), abs(trace_inf)) / trace
    assume(min(abs(amplitude) / trace, visibility) >= MIN_VISIBILITY)
    gamma = interferometric_phase(rho, theta)
    assert abs(wrap_angle(gamma - np.angle(amplitude))) <= 32 * EPS * trace / abs(amplitude)
    result = uhlmann_phase(rho, LoopSpec(theta=theta, steps=steps), rank_eps=1e-9)
    gamma_n, gamma_inf = np.angle(trace_n), np.angle(trace_inf)
    assert abs(wrap_angle(result.phase - gamma_n)) <= 32 * EPS / visibility
    assert abs(result.convergence_estimate
               - abs(wrap_angle(gamma_n - gamma_inf))) <= 32 * EPS / visibility
