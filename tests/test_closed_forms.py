"""The closed forms of the two-site spectrum and of both interferometric
phases (``oracles.pair_spectrum``, ``pair_amplitude``, ``single_amplitude``)
pinned against the general kernels, as properties over r in [1, 20],
lambda in [0.01, 3] and theta in [0, pi].  On the grid of every r, 61
lambda values and 13 theta values the largest deviations were 3.3e-16
(spectrum), 3.2e-14 (pair phase) and 1.8e-15 (single-site phase)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tfim_phases.ising import CouplingRatio, correlators, magnetization
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

# Where p- meets the singlet weight, eigh returns an arbitrary basis of the
# nearly degenerate pair, which spans two symmetry blocks, and the kernel's
# pair phase jumps (at r = 2, lambda* = 1.1201267; within about 1e-10 of it
# the 12th digit is wrong).  The closed form is continuous there, so these
# samples are skipped; the crossing itself is not tested here.
MIN_CROSSING_GAP = 1e-6


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
    _, p_minus, _, p_singlet = pair_spectrum(c)
    assume(abs(p_minus - p_singlet) >= MIN_CROSSING_GAP)
    amplitude = pair_amplitude(c, theta)
    assume(abs(amplitude) >= MIN_VISIBILITY)
    gamma = interferometric_phase(two_site_state(c), theta)
    assert abs(wrap_angle(gamma - np.angle(amplitude))) <= 1e-12


@SETTINGS
@given(lam=LAM, theta=THETA)
def test_single_site_phase_matches_closed_form(lam, theta):
    m = magnetization(CouplingRatio(lam))
    amplitude = single_amplitude(m, theta)
    assume(abs(amplitude) >= MIN_VISIBILITY)
    gamma = interferometric_phase(single_site_state(m), theta)
    assert abs(wrap_angle(gamma - np.angle(amplitude))) <= 1e-13
