"""The closed forms of the two-site spectrum and of both interferometric
phases (``oracles.pair_spectrum``, ``pair_amplitude``, ``single_amplitude``)
pinned against the general kernels, as properties over r in [1, 20],
lambda in [0.01, 3] and theta in [0, pi].  On the grid of every r, 61
lambda values and 13 theta values the largest deviations were 3.3e-16
(spectrum), 3.2e-14 (pair phase) and 1.8e-15 (single-site phase)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfim_phases.ising import CouplingRatio, correlators, magnetization
from tfim_phases.linalg import hermitian_eigen
from tfim_phases.phases import interferometric_phase, wrap_angle
from tfim_phases.states import single_site_state, two_site_state

from oracles import pair_amplitude, pair_spectrum, single_amplitude

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
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
def test_single_site_phase_matches_closed_form(lam, theta):
    m = magnetization(CouplingRatio(lam))
    amplitude = single_amplitude(m, theta)
    assume(abs(amplitude) >= MIN_VISIBILITY)
    gamma = interferometric_phase(single_site_state(m), theta)
    assert abs(wrap_angle(gamma - np.angle(amplitude))) <= 1e-13
