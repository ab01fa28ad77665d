import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tfim_phases import linalg, phases
from tfim_phases.errors import RankDeficientError, VisibilityError
from tfim_phases.ising import CouplingRatio, correlators
from tfim_phases.linalg import hermitian_eigen
from tfim_phases.phases import (
    _VISIBILITY_EPS,
    KINDS,
    UhlmannResult,
    compute_phases,
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
    loop_unitary,
    single_site_state,
    two_site_state,
)
from tfim_phases.sweep import SweepConfig, run_sweep

from oracles import (
    SIGMA_Z,
    commutator,
    evolve,
    product_form_holonomy,
    product_form_interferometric,
    product_form_uhlmann,
    row_scale_holonomy,
    sqrt_psd,
)

THETA = np.pi / 3


def solid_angle(theta):
    return 2 * np.pi * (1 - np.cos(theta))


def uhlmann_single_site_closed(m, theta):
    """Analytic single-site transport phase for the loop, used as an oracle.

    Derived by solving the transport equation in the co-rotating frame, where
    the connection is constant: the holonomy is exp(2*pi*K) exp(2*pi*(A0-K))
    and the resulting phase depends only on eta = sqrt(1 - m^2 sin^2 theta).
    """
    eta = np.sqrt(1 - (m * np.sin(theta)) ** 2)
    amp = -np.cos(np.pi * eta) + 1j * (m * np.cos(theta) / eta) * np.sin(np.pi * eta)
    return float(np.angle(amp))


def quadrature_interferometric_phase(rho, theta, n_panels=128, fd_step=1e-3):
    """Interferometric phase with the parallel-transport integral evaluated
    numerically: composite Simpson over phi of <n|U^dag dU/dphi|n>, with dU
    from a fourth-order central stencil, so that the comparison with the
    closed form resolves down to ~1e-12.  Reference oracle."""
    p, v = hermitian_eigen(rho)
    dim = len(p)

    def u(phi):
        return loop_unitary(phi, theta, dim)

    phis = np.linspace(0.0, 2 * np.pi, 2 * n_panels + 1)
    weights = np.ones_like(phis)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (phis[1] - phis[0]) / 3.0
    total = np.zeros(dim, dtype=complex)
    for phi, w in zip(phis, weights):
        du = (-u(phi + 2 * fd_step) + 8 * u(phi + fd_step)
              - 8 * u(phi - fd_step) + u(phi - 2 * fd_step)) / (12 * fd_step)
        total += w * np.einsum("in,ij,jn->n", v.conj(), u(phi).conj().T @ du, v)
    rates = total / (2 * np.pi)
    overlaps = np.einsum("in,ij,jn->n", v.conj(), u(0.0).conj().T @ u(2 * np.pi), v)
    return float(np.angle(np.sum(p * overlaps * np.exp(-2 * np.pi * rates))))


def commutator_connection(rho_phi, rank_eps=1e-8):
    """Connection <n|[d_phi sqrt(rho), sqrt(rho)]|m> / (p_n + p_m) in the
    instantaneous eigenbasis, with d_phi sqrt(rho) = [K, sqrt(rho)], mapped
    back to the fixed basis; reference oracle for the closed form."""
    k = loop_generator(rho_phi.shape[0])
    p, v = hermitian_eigen(rho_phi)
    if p[0] < rank_eps:
        raise RankDeficientError(float(p[0]), rank_eps)
    s = sqrt_psd(rho_phi)
    ct = v.conj().T @ commutator(commutator(k, s), s) @ v
    a = v @ (ct / (p[:, None] + p[None, :])) @ v.conj().T
    return (a - a.conj().T) / 2


def sqrt_rho_derivative_fd(rho, theta, phi, step=1e-5):
    """Central finite-difference d_phi sqrt(rho(phi; theta)); test oracle."""
    s_plus = sqrt_psd(evolve(rho, phi + step, theta))
    s_minus = sqrt_psd(evolve(rho, phi - step, theta))
    return (s_plus - s_minus) / (2 * step)


def exact_holonomy(rho, theta):
    """Closed-form V(2pi) = exp(2 pi K) exp(2 pi (A(0) - K)); integrator oracle."""
    k = loop_generator(rho.shape[0])
    a0 = commutator_connection(evolve(rho, 0.0, theta))
    return scipy.linalg.expm(2 * np.pi * k) @ scipy.linalg.expm(2 * np.pi * (a0 - k))


def exact_phase(rho, theta):
    """Phase arg Tr[rho(0; theta) V_inf] of the steps -> inf holonomy; oracle."""
    return float(np.angle(np.trace(evolve(rho, 0.0, theta) @ exact_holonomy(rho, theta))))


def step_by_step_holonomy(rho, theta, steps):
    """Ordered product of exp(A(phi_k) dphi), diagonalizing rho(phi_k) at every
    grid point; reference oracle that does not use the covariance of A."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    dphi = 2 * np.pi / steps
    phis = np.arange(steps) * dphi

    # batched U(phi, theta): diagonal z-phases times the fixed R_y factor
    if dim == 2:
        zphase = np.stack([np.exp(0.5j * phis), np.exp(-0.5j * phis)], axis=1)
    else:
        ones = np.ones_like(phis)
        zphase = np.stack([np.exp(1j * phis), ones, ones, np.exp(-1j * phis)], axis=1)
    u = zphase[:, :, None] * loop_unitary(0.0, theta, dim)[None, :, :]

    rho_phi = u @ rho @ u.conj().transpose(0, 2, 1)
    p, v = np.linalg.eigh(rho_phi)
    vdag = v.conj().transpose(0, 2, 1)
    sqrt_rho = (v * np.sqrt(np.clip(p, 0.0, None))[:, None, :]) @ vdag

    k = loop_generator(dim)
    ds = k @ sqrt_rho - sqrt_rho @ k
    c = ds @ sqrt_rho - sqrt_rho @ ds
    a = v @ ((vdag @ c @ v) / (p[:, :, None] + p[:, None, :])) @ vdag

    # exp(A dphi) via the Hermitian iA, batched
    w, q = np.linalg.eigh(1j * a)
    e = (q * np.exp(-1j * w * dphi)[:, None, :]) @ q.conj().transpose(0, 2, 1)

    holonomy = np.eye(dim, dtype=complex)
    for ek in e:
        holonomy = ek @ holonomy
    return holonomy


def model_pair(lam, r=1):
    return two_site_state(correlators(r, CouplingRatio(lam)))


class TestLoopGenerator:
    def test_single_site_form(self):
        assert np.allclose(loop_generator(2), 0.5j * SIGMA_Z)

    def test_pair_form(self):
        expected = 0.5j * (np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z))
        assert np.allclose(loop_generator(4), expected)

    def test_antihermitian(self):
        for dim in (2, 4):
            k = loop_generator(dim)
            assert np.abs(k + k.conj().T).max() <= 1e-14

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            loop_generator(3)


class TestWrapAngle:
    def test_boundaries(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_angle(0.0) == pytest.approx(0.0)


class TestInterferometricPhase:
    def test_pure_state_berry_phase(self):
        # for this loop orientation the Bloch vector circulates clockwise,
        # so the pure-state phase is +Omega/2 (mod 2pi)
        for theta in (0.3, np.pi / 4, 1.2, 2.4):
            got = interferometric_phase(single_site_state(1.0), theta)
            assert abs(wrap_angle(got - solid_angle(theta) / 2)) <= 1e-12

    def test_zero_theta(self):
        assert interferometric_phase(single_site_state(0.7), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_product_pair_doubles_single(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = rng.uniform(0.05, 0.99)
            theta = rng.uniform(0.05, np.pi - 0.05)
            single = single_site_state(m)
            g1 = interferometric_phase(single, theta)
            g2 = interferometric_phase(np.kron(single, single), theta)
            assert abs(wrap_angle(g2 - 2 * g1)) <= 1e-9

    def test_closed_vs_quadrature_connection(self):
        for rho in (single_site_state(0.6), model_pair(1.2)):
            for theta in (0.4, THETA, 2.0):
                closed = interferometric_phase(rho, theta)
                quad = quadrature_interferometric_phase(rho, theta)
                assert abs(wrap_angle(closed - quad)) <= 1e-10

    def test_gauge_invariance(self):
        rng = np.random.default_rng(37)
        rho = model_pair(1.4)
        eig = hermitian_eigen(rho)
        reference = interferometric_phase_from_eigen(eig.values, eig.vectors, THETA)
        for _ in range(10):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
            rotated = eig.vectors * phases[None, :]
            got = interferometric_phase_from_eigen(eig.values, rotated, THETA)
            assert abs(wrap_angle(got - reference)) <= 1e-10

    def test_degenerate_block_basis_invariance(self):
        # c_xx + c_yy = 0 makes the middle X-block exactly degenerate; the
        # weighted sum must not depend on the basis chosen inside the block
        from tfim_phases.ising import Correlators

        c = Correlators(r=1, m=0.5, c_xx=0.2, c_yy=-0.2, c_zz=0.3)
        rho = two_site_state(c)
        eig = hermitian_eigen(rho)
        p, v = eig.values, eig.vectors
        block = [i for i in range(4) if abs(p[i] - 0.175) < 1e-12]
        assert len(block) == 2
        reference = interferometric_phase_from_eigen(p, v, THETA)
        rng = np.random.default_rng(41)
        for _ in range(2):
            angle = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            v2 = v.copy()
            v2[:, block] = v[:, block] @ rot
            got = interferometric_phase_from_eigen(p, v2, THETA)
            assert abs(wrap_angle(got - reference)) <= 1e-9

    def test_vanishing_visibility(self):
        # m = 0 at theta = pi/3: the weighted sum is exactly zero
        with pytest.raises(VisibilityError) as exc:
            interferometric_phase(single_site_state(0.0), np.pi / 3)
        assert exc.value.threshold == _VISIBILITY_EPS
        assert str(exc.value).endswith(f"< {_VISIBILITY_EPS:g}")
        assert str(VisibilityError(5e-10, 1e-9)).endswith("< 1e-09")

    def test_nan_amplitude_is_vanishing(self):
        # a NaN would otherwise reach the CSV as nan
        with pytest.raises(VisibilityError, match="nan"):
            phases._phases(np.array([0.5, np.nan]))

    def test_in_order_names_the_first_stack_that_vanishes(self):
        # the Uhlmann kernel checks the traces of V(2pi) before those of V_inf
        traces = np.array([[0.5, 2e-13, 0.5], [1e-14, 0.5, np.nan]])
        for in_order, smallest in ((False, 1e-14), (True, 2e-13)):
            with pytest.raises(VisibilityError) as exc:
                phases._phases(traces, in_order=in_order)
            assert exc.value.magnitude == smallest
        with pytest.raises(VisibilityError, match="nan"):
            phases._phases(np.array([[0.5, 0.5], [0.5, np.nan]]), in_order=True)


class TestSingleSitePhaseClosed:
    @pytest.mark.parametrize("m,theta", [(0.8, 0.0), (0.8, np.pi / 2), (0.0, 1.1)])
    def test_zeros(self, m, theta):
        assert single_site_phase_closed(m, theta) == pytest.approx(0.0, abs=1e-12)

    def test_matches_spectral_modulo_pi(self):
        for m in np.linspace(-0.95, 0.95, 20):
            for theta in np.linspace(0.01, np.pi - 0.01, 20):
                spectral = interferometric_phase(single_site_state(float(m)), float(theta))
                closed = single_site_phase_closed(float(m), float(theta))
                diff = (spectral - closed) % np.pi
                assert min(diff, np.pi - diff) <= 1e-10

    def test_branch_point_saturates(self):
        # Omega/2 = pi/2 at theta = pi/3: closed form saturates to +/- pi/2
        assert single_site_phase_closed(0.7, np.pi / 3) == pytest.approx(np.pi / 2, abs=1e-9)
        assert single_site_phase_closed(-0.7, np.pi / 3) == pytest.approx(-np.pi / 2, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            single_site_phase_closed(1.5, 1.0)

    def test_nan_outside_domain(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            single_site_phase_closed(np.nan, 1.0)


def delta_gamma_at(lam, r, theta):
    return compute_phases(lam, r, theta, kinds=("interferometric",)).delta_gamma


class TestDeltaGamma:
    def test_product_limit(self):
        assert abs(delta_gamma_at(1e-6, 1, THETA)) <= 1e-6

    def test_frozen_values(self):
        # frozen from an independent scipy.integrate/scipy.linalg evaluation
        assert delta_gamma_at(0.5, 1, THETA) == pytest.approx(0.1039775473, abs=1e-8)
        assert delta_gamma_at(1.5, 1, THETA) == pytest.approx(1.9459290, abs=1e-6)

    def test_suppression_deep_in_paramagnet(self):
        assert abs(delta_gamma_at(0.5, 10, THETA)) <= 1e-6

    def test_curves_converge_above_criticality(self):
        spread_above = abs(delta_gamma_at(1.8, 1, THETA) - delta_gamma_at(1.8, 10, THETA))
        spread_near = abs(delta_gamma_at(1.1, 1, THETA) - delta_gamma_at(1.1, 10, THETA))
        assert spread_above < 0.1 * spread_near


class TestUhlmannConnection:
    def test_maximally_mixed_gives_zero(self):
        a = uhlmann_connection(np.eye(4, dtype=complex) / 4)
        assert np.abs(a).max() <= 1e-14

    def test_zero_theta_gives_zero(self):
        rho = single_site_state(0.6)
        for phi in (0.0, 1.3, 4.0):
            a = uhlmann_connection(evolve(rho, phi, 0.0))
            assert np.abs(a).max() <= 1e-14

    def test_antihermitian(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            lam = rng.uniform(0.3, 2.0)
            theta = rng.uniform(0.1, np.pi - 0.1)
            phi = rng.uniform(0, 2 * np.pi)
            a = uhlmann_connection(evolve(model_pair(lam), phi, theta))
            assert np.abs(a + a.conj().T).max() <= 1e-12

    def test_closed_form_matches_commutator_form(self):
        # lam >= 0.3 keeps the pair's smallest eigenvalue above ~3e-5: the
        # oracle's round-off grows like eps / p_min, faster than the closed form's
        rng = np.random.default_rng(53)
        for _ in range(20):
            lam = rng.uniform(0.3, 2.0)
            theta = rng.uniform(0.0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            c = correlators(int(rng.integers(1, 4)), CouplingRatio(lam))
            for rho in (two_site_state(c), single_site_state(c.m)):
                rho_phi = evolve(rho, phi, theta)
                oracle = commutator_connection(rho_phi)
                assert np.abs(uhlmann_connection(rho_phi) - oracle).max() <= 1e-12

    def test_rank_deficiency_rejected(self):
        with pytest.raises(RankDeficientError):
            uhlmann_connection(single_site_state(1.0))

    def test_nan_eigenvalue_fails_the_rank_check(self, monkeypatch):
        # hermitian_eigen rejects a NaN matrix itself, so the NaN spectrum
        # is handed to the rank check directly
        monkeypatch.setattr(phases, "hermitian_eigen", lambda rho: linalg.HermitianEigen(
            np.array([np.nan, 0.2, 0.3, 0.5]), np.eye(4, dtype=complex)))
        with pytest.raises(RankDeficientError, match="min eigenvalue nan"):
            phases._loop_start(np.eye(4) / 4, 0.5, 1e-8)

    def test_analytic_derivative_matches_finite_difference(self):
        rho = model_pair(1.2)
        k = loop_generator(4)
        for phi in (0.0, 0.9, 2.5):
            analytic = commutator(k, sqrt_psd(evolve(rho, phi, THETA)))
            fd = sqrt_rho_derivative_fd(rho, THETA, phi)
            assert np.abs(analytic - fd).max() <= 1e-7


class TestUhlmannHolonomy:
    def test_trivial_loop(self):
        loop = LoopSpec(theta=0.0, steps=64)
        v = uhlmann_holonomy(single_site_state(0.5), loop)
        assert np.abs(v - np.eye(2)).max() <= 1e-12

    def test_unitary(self):
        loop = LoopSpec(theta=THETA, steps=200)
        v = uhlmann_holonomy(model_pair(1.5), loop)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-10

    @pytest.mark.parametrize("steps", [250, 1000, 4000])
    def test_unitarity_does_not_drift_with_steps(self, steps):
        v = uhlmann_holonomy(model_pair(1.5), LoopSpec(theta=THETA, steps=steps))
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-13

    def test_first_order_matrix_convergence_to_exact(self):
        rho = model_pair(1.5)
        v_exact = exact_holonomy(rho, THETA)
        errors = []
        steps_list = [250, 500, 1000, 2000]
        for steps in steps_list:
            v = uhlmann_holonomy(rho, LoopSpec(theta=THETA, steps=steps))
            errors.append(np.abs(v - v_exact).max())
        slope = np.polyfit(np.log(steps_list), np.log(errors), 1)[0]
        assert 0.8 <= -slope <= 1.2

    def test_step_doubling_phase_change(self):
        # frozen behavior at (lam=1.5, r=1, theta=pi/3): doubling 1000 -> 2000
        # moves the phase by ~1.8e-6 (the phase converges at second order)
        rho = model_pair(1.5)
        base = evolve(rho, 0.0, THETA)
        g1 = np.angle(np.trace(base @ uhlmann_holonomy(rho, LoopSpec(THETA, 1000))))
        g2 = np.angle(np.trace(base @ uhlmann_holonomy(rho, LoopSpec(THETA, 2000))))
        assert abs(wrap_angle(g2 - g1)) < 3e-6

    def test_rank_error_propagates(self):
        with pytest.raises(RankDeficientError):
            uhlmann_holonomy(single_site_state(1.0), LoopSpec(theta=THETA))

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_matches_step_by_step_product(self, lam, state):
        c = correlators(1, CouplingRatio(lam))
        rho = single_site_state(c.m) if state == "single" else two_site_state(c)
        for steps in (16, 17, 250, 2001):
            for theta in (0.0, np.pi / 12, np.pi / 3, np.pi):
                v = uhlmann_holonomy(rho, LoopSpec(theta=theta, steps=steps))
                reference = step_by_step_holonomy(rho, theta, steps)
                assert np.abs(v - reference).max() <= 1e-10, (steps, theta)


class TestUhlmannPhase:
    def test_equality_is_a_bool_for_floats_and_stacks(self):
        rho = single_site_state(0.6)
        for theta in (THETA, (THETA, 1.0)):
            first = uhlmann_phase(rho, LoopSpec(theta=theta, steps=64))
            again = uhlmann_phase(rho, LoopSpec(theta=theta, steps=64))
            other = uhlmann_phase(rho, LoopSpec(theta=theta, steps=65))
            assert (first == again) is True and (first != again) is False
            assert (first == other) is False and (first != other) is True
        stacked = uhlmann_phase(rho, LoopSpec(theta=(THETA, 1.0), steps=64))
        assert (stacked == uhlmann_phase(rho, LoopSpec(theta=THETA, steps=64))) is False
        assert (stacked == (stacked.phase, stacked.convergence_estimate)) is False

    def test_zero_theta(self):
        res = uhlmann_phase(single_site_state(0.6), LoopSpec(theta=0.0, steps=64))
        assert res.phase == pytest.approx(0.0, abs=1e-12)

    def test_single_site_closed_form_oracle(self):
        loop = LoopSpec(theta=0.0, steps=2000)
        for m in (0.3, 0.6, 0.9):
            for theta in (0.5, THETA, 2.2):
                res = uhlmann_phase(single_site_state(m),
                                    LoopSpec(theta=theta, steps=2000))
                expected = uhlmann_single_site_closed(m, theta)
                assert abs(wrap_angle(res.phase - expected)) <= 1e-6

    def test_single_site_step_error_against_closed_form(self):
        # the closed form is the phase of the steps -> inf holonomy, so the
        # reported step error is the distance to it
        for m in (0.3, 0.6, 0.9):
            for theta in (0.5, THETA, 2.2):
                res = uhlmann_phase(single_site_state(m), LoopSpec(theta=theta, steps=500))
                error = abs(wrap_angle(res.phase - uhlmann_single_site_closed(m, theta)))
                assert abs(res.convergence_estimate - error) <= 1e-12

    def test_exact_holonomy_oracle_pair(self):
        rho = model_pair(1.1, r=2)
        v_exact = exact_holonomy(rho, THETA)
        base = evolve(rho, 0.0, THETA)
        expected = np.angle(np.trace(base @ v_exact))
        res = uhlmann_phase(rho, LoopSpec(theta=THETA, steps=4000))
        assert abs(wrap_angle(res.phase - expected)) <= 1e-6

    def test_pure_limit_meets_interferometric(self):
        m = 1 - 1e-4
        rho = single_site_state(m)
        for theta in (0.4, THETA, 1.9):
            res = uhlmann_phase(rho, LoopSpec(theta=theta, steps=2000), rank_eps=1e-6)
            gi = interferometric_phase(rho, theta)
            assert abs(wrap_angle(res.phase - gi)) <= 1e-2

    def test_product_pair_factorization(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            m = rng.uniform(0.2, 0.9)
            theta = rng.uniform(0.2, np.pi - 0.2)
            single = single_site_state(m)
            loop = LoopSpec(theta=theta, steps=500)
            r1 = uhlmann_phase(single, loop)
            r2 = uhlmann_phase(np.kron(single, single), loop)
            tol = max(1e-9, 2 * max(r1.convergence_estimate, r2.convergence_estimate))
            assert abs(wrap_angle(r2.phase - 2 * r1.phase)) <= tol

    def test_convergence_estimate_reported(self):
        res = uhlmann_phase(model_pair(1.5), LoopSpec(theta=THETA, steps=1000))
        assert res.convergence_estimate > 0

    @pytest.mark.parametrize("steps", [16, 17, 500, 2000])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_convergence_estimate_is_error_against_exact_limit(self, state, lam, steps):
        c = correlators(1, CouplingRatio(lam))
        rho = single_site_state(c.m) if state == "single" else two_site_state(c)
        res = uhlmann_phase(rho, LoopSpec(theta=THETA, steps=steps))
        error = abs(wrap_angle(res.phase - exact_phase(rho, THETA)))
        assert abs(res.convergence_estimate - error) <= 1e-12

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_second_order_phase_convergence(self, state, lam):
        c = correlators(1, CouplingRatio(lam))
        rho = single_site_state(c.m) if state == "single" else two_site_state(c)
        gamma_inf = exact_phase(rho, THETA)

        def error(steps):
            res = uhlmann_phase(rho, LoopSpec(theta=THETA, steps=steps))
            return abs(wrap_angle(res.phase - gamma_inf))

        for steps in (250, 500, 1000):
            order = np.log2(error(steps) / error(2 * steps))
            assert 1.8 <= order <= 2.2, (steps, order)

    def test_one_finite_step_holonomy_per_phase(self, monkeypatch):
        calls = []

        def counting_step_eigen(w, v, steps):
            calls.append(steps)
            return step_eigen(w, v, steps)

        step_eigen = phases._step_eigen
        monkeypatch.setattr(phases, "_step_eigen", counting_step_eigen)
        uhlmann_phase(model_pair(1.5), LoopSpec(theta=THETA, steps=500))
        assert calls == [500]
        calls.clear()
        # the single site's step factor is raised in closed form
        compute_phases(1.5, 1, THETA, kinds=("uhlmann",), loop_steps=64)
        assert calls == [64]


def delta_gamma_u_at(lam, r, theta, steps, rank_eps=1e-8):
    rec = compute_phases(lam, r, theta, kinds=("uhlmann",), loop_steps=steps,
                         rank_eps=rank_eps)
    return rec.delta_gamma_u


class TestDeltaGammaU:
    def test_far_separation_paramagnet_vanishes(self):
        assert abs(delta_gamma_u_at(0.05, 10, THETA, steps=500)) <= 1e-6

    def test_frozen_value(self):
        # frozen from the independent scipy-based evaluation (steps -> inf
        # limit 0.96598; finite-step value at 600 steps 0.96597...)
        val = delta_gamma_u_at(1.0, 1, THETA, steps=2000)
        assert val == pytest.approx(0.9660, abs=2e-3)

    def test_rank_error_carries_lambda(self):
        with pytest.raises(RankDeficientError) as exc:
            compute_phases(0.01, 1, THETA, kinds=("uhlmann",), loop_steps=500)
        assert exc.value.lam == 0.01
        assert "at lambda=0.01" in str(exc.value)

    def test_relaxed_rank_eps_allows_smaller_lambda(self):
        val = delta_gamma_u_at(0.03, 1, THETA, steps=500, rank_eps=1e-10)
        assert abs(val) < 2e-3

    @pytest.mark.parametrize("rank_eps", [0.0, -1.0, float("nan")])
    def test_nonpositive_rank_eps_rejected_before_any_work(self, monkeypatch, rank_eps):
        def no_correlators(*args, **kwargs):
            raise AssertionError("correlators called")

        monkeypatch.setattr(phases, "correlators", no_correlators)
        with pytest.raises(ValueError, match="rank_eps"):
            compute_phases(1.0, 1, THETA, kinds=("uhlmann",), rank_eps=rank_eps)


class TestComputePhases:
    def test_interferometric_only(self):
        rec = compute_phases(1.2, 1, THETA, kinds=("interferometric",))
        assert rec.delta_gamma is not None
        assert rec.gamma_u_pair is None
        assert rec.steps_used == 0
        assert rec.convergence_estimate is None

    def test_uhlmann_only(self):
        rec = compute_phases(1.2, 1, THETA, kinds=("uhlmann",), loop_steps=200)
        assert rec.delta_gamma is None
        assert rec.delta_gamma_u is not None
        assert rec.steps_used == 200
        assert rec.convergence_estimate > 0

    def test_both_kinds_consistent_with_direct_calls(self):
        rec = compute_phases(1.5, 1, THETA, loop_steps=500)
        assert wrap_angle(rec.gamma_int_pair - 2 * rec.gamma_int_single) == pytest.approx(
            rec.delta_gamma, abs=1e-12)
        assert wrap_angle(rec.gamma_u_pair - 2 * rec.gamma_u_single) == pytest.approx(
            rec.delta_gamma_u, abs=1e-12)

    # the single site, the pair's interferometric phase and the pair's
    # positivity check are evaluated in closed form, with no decomposition
    @pytest.mark.parametrize("kinds,expected", [
        (("interferometric",), []),
        (("uhlmann",), [4]),
        (("interferometric", "uhlmann"), [4]),
    ])
    def test_one_decomposition_per_state_and_kind(self, monkeypatch, kinds, expected):
        shapes = []

        def counting_eigen(m, *args, **kwargs):
            shapes.append(np.shape(m)[0])
            return hermitian_eigen(m, *args, **kwargs)

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("eigensolver called")

        def pair_state(c):
            with pytest.MonkeyPatch.context() as mp:
                for name in ("eig", "eigh", "eigvals", "eigvalsh"):
                    mp.setattr(np.linalg, name, no_eigensolver)
                return two_site_state(c)

        monkeypatch.setattr(phases, "hermitian_eigen", counting_eigen)
        monkeypatch.setattr(linalg, "hermitian_eigen", counting_eigen)
        monkeypatch.setattr(phases, "two_site_state", pair_state)
        compute_phases(1.5, 1, THETA, kinds=kinds, loop_steps=64)
        assert shapes == expected

    @pytest.mark.parametrize("theta", [1.0, (0.5, 1.0)])
    def test_empty_kinds_rejected_before_any_work(self, monkeypatch, theta):
        def no_correlators(*args, **kwargs):
            raise AssertionError("correlators called")

        monkeypatch.setattr(phases, "correlators", no_correlators)
        with pytest.raises(ValueError, match=r"kinds must be a non-empty subset of"):
            compute_phases(0.5, 1, theta, kinds=())

    @pytest.mark.parametrize("kinds", [("uhlman",), ("interferometric", "both")])
    def test_unknown_kind_rejected_before_any_work(self, monkeypatch, kinds):
        def no_correlators(*args, **kwargs):
            raise AssertionError("correlators called")

        monkeypatch.setattr(phases, "correlators", no_correlators)
        with pytest.raises(ValueError, match="kinds"):
            compute_phases(0.5, 1, 1.0, kinds=kinds)

    def test_bool_separation_rejected(self):
        with pytest.raises(ValueError, match="r must be an integer, got True"):
            compute_phases(1.0, True, 1.0)

    def test_given_correlators_are_used(self, monkeypatch):
        expected = compute_phases(0.7, 3, (THETA, 1.0), loop_steps=64)
        c = correlators(3, CouplingRatio(0.7))

        def no_correlators(*args):
            raise AssertionError("correlators called")

        monkeypatch.setattr(phases, "correlators", no_correlators)
        assert compute_phases(0.7, 3, (THETA, 1.0), loop_steps=64, corr=c) == expected
        with pytest.raises(ValueError, match="correlators at r = 3, not at r = 2"):
            compute_phases(0.7, 2, THETA, corr=c)

    def test_all_phases_principal(self):
        rec = compute_phases(1.5, 1, THETA, loop_steps=200)
        for name in ("gamma_int_pair", "gamma_int_single", "delta_gamma",
                     "gamma_u_pair", "gamma_u_single", "delta_gamma_u"):
            val = getattr(rec, name)
            assert -np.pi < val <= np.pi


STACK_THETAS = (0.0, np.pi / 12, np.pi / 3, np.pi / 2, np.pi)


def outcome(fn, *args, **kwargs):
    """fn's result, or the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (RankDeficientError, VisibilityError) as exc:
        return exc


def bits(value):
    """A float, or each float field of a record, as its exact bit pattern."""
    if isinstance(value, float):
        return value.hex()
    return [v.hex() if isinstance(v, float) else v for v in vars(value).values()]


def same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return bits(a) == bits(b)


def pair_or_single(state, lam):
    c = correlators(1, CouplingRatio(lam))
    return two_site_state(c) if state == "pair" else single_site_state(c.m)


class TestThetaStacks:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_interferometric_stack_equals_float_calls(self, state, lam):
        rho = pair_or_single(state, lam)
        stacked = interferometric_phase(rho, STACK_THETAS)
        assert len(stacked) == len(STACK_THETAS)
        for theta, got in zip(STACK_THETAS, stacked):
            assert same_outcome(got, outcome(interferometric_phase, rho, theta))

    @pytest.mark.parametrize("steps", [16, 17, 2000])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_uhlmann_stack_equals_float_calls(self, state, lam, steps):
        rho = pair_or_single(state, lam)
        stacked = uhlmann_phase(rho, LoopSpec(theta=STACK_THETAS, steps=steps))
        for field in (stacked.phase, stacked.convergence_estimate):
            assert np.shape(field) == (len(STACK_THETAS),)
        for i, theta in enumerate(STACK_THETAS):
            got = UhlmannResult(stacked.phase[i], stacked.convergence_estimate[i])
            expected = outcome(uhlmann_phase, rho, LoopSpec(theta=theta, steps=steps))
            assert same_outcome(got, expected)

    @pytest.mark.parametrize("lam,r,kinds,thetas,eps,rank_eps,statuses", [
        (1.5, 1, KINDS, STACK_THETAS, _VISIBILITY_EPS, 1e-8, ["ok"] * 5),
        (0.5, 10, KINDS, STACK_THETAS, _VISIBILITY_EPS, 1e-8, ["ok"] * 5),
    ])
    def test_compute_phases_sequence_equals_float_calls(self, monkeypatch, lam, r, kinds,
                                                        thetas, eps, rank_eps, statuses):
        monkeypatch.setattr(phases, "_VISIBILITY_EPS", eps)
        options = dict(kinds=kinds, loop_steps=64, rank_eps=rank_eps)
        stacked = compute_phases(lam, r, thetas, **options)
        assert isinstance(stacked, tuple) and len(stacked) == len(thetas)
        for theta, got, status in zip(thetas, stacked, statuses):
            assert same_outcome(got, outcome(compute_phases, lam, r, theta, **options))
            if status == "ok":
                values = [v for v in vars(got).values() if isinstance(v, float)]
                assert values and all(np.isfinite(values))
            else:
                assert type(got) is status

    @pytest.mark.parametrize("lam,r,kinds,thetas,eps,rank_eps,statuses", [
        # rank deficient: every theta
        (0.01, 1, KINDS, STACK_THETAS, _VISIBILITY_EPS, 1e-8, ["rank_deficient"] * 5),
        # the pair's Uhlmann trace is 0.04 at pi/2 and 0.74 at pi/3 and 2pi/3
        (0.5, 1, ("uhlmann",), (np.pi / 3, np.pi / 2, 2 * np.pi / 3), 0.1, 1e-8,
         ["ok", "vanishing_visibility", "ok"]),
        # the pair's interferometric amplitude is 0.20 at pi/6 and 0.60 at
        # pi/3 (the single site's 0.36): that theta's vanishing visibility
        # comes before the rank deficiency of the coupling point, since the
        # kernels run in call order
        (1.5, 1, KINDS, (np.pi / 6, np.pi / 3, np.pi / 2), 0.3, 0.5,
         ["vanishing_visibility", "rank_deficient", "rank_deficient"]),
    ])
    def test_sweep_statuses_equal_float_calls(self, monkeypatch, lam, r, kinds,
                                              thetas, eps, rank_eps, statuses):
        monkeypatch.setattr(phases, "_VISIBILITY_EPS", eps)
        config = SweepConfig(lambda_min=lam, lambda_max=lam, lambda_steps=1, r_list=(r,),
                             theta_list=thetas, kinds=kinds, loop_steps=64, rank_eps=rank_eps)
        rows = run_sweep(config)
        assert [x.status for x in rows] == statuses
        for theta, row in zip(thetas, rows):
            expected = outcome(compute_phases, lam, r, theta, kinds=kinds, loop_steps=64,
                               rank_eps=rank_eps)
            if row.status == "ok":
                assert bits(row.record) == bits(expected)
            else:
                assert type(expected) is {"rank_deficient": RankDeficientError,
                                          "vanishing_visibility": VisibilityError}[row.status]

    @pytest.mark.parametrize("kernel", ["interferometric", "uhlmann"])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_stacked_kernel_raises_smallest_visibility(self, monkeypatch, state, kernel):
        rho = pair_or_single(state, 0.5)

        def run(theta):
            if kernel == "uhlmann":
                return uhlmann_phase(rho, LoopSpec(theta=theta, steps=64)).phase
            return interferometric_phase(rho, theta)

        # at a threshold above every magnitude, each float call names its own
        monkeypatch.setattr(phases, "_VISIBILITY_EPS", 10.0)
        magnitudes = [outcome(run, theta).magnitude for theta in STACK_THETAS]
        assert len(set(magnitudes)) > 2
        smallest, third = sorted(magnitudes)[0], sorted(magnitudes)[2]
        for eps in (10.0, third):
            monkeypatch.setattr(phases, "_VISIBILITY_EPS", eps)
            with pytest.raises(VisibilityError) as exc:
                run(STACK_THETAS)
            assert exc.value.magnitude == smallest and exc.value.threshold == eps
        # below every magnitude (the Uhlmann V_inf traces are close to, not
        # equal to, the V(2pi) traces), the stack gives one value per theta
        monkeypatch.setattr(phases, "_VISIBILITY_EPS", smallest / 2)
        assert np.shape(run(STACK_THETAS)) == (len(STACK_THETAS),)

    def test_zero_dimensional_theta_is_a_float(self):
        expected = compute_phases(1.5, 1, THETA, loop_steps=64)
        assert compute_phases(1.5, 1, np.array(THETA), loop_steps=64) == expected
        assert compute_phases(1.5, 1, np.array([THETA]), loop_steps=64) == (expected,)

    # lambda >= 0.05 keeps the pair above the default rank_eps (2.4e-8 there at r = 1)
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(thetas=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=6),
           lam=st.floats(0.05, 3.0), state=st.sampled_from(["single", "pair"]),
           kernel=st.sampled_from(KINDS), steps=st.sampled_from([16, 17, 64, 2000]),
           eps=st.sampled_from([_VISIBILITY_EPS, 0.3, 0.6, 0.9]))
    def test_shape_rule_over_the_domain(self, thetas, lam, state, kernel, steps, eps):
        rho = pair_or_single(state, lam)

        def run(theta):
            if kernel == "uhlmann":
                return uhlmann_phase(rho, LoopSpec(theta=theta, steps=steps))
            return interferometric_phase(rho, theta)

        with pytest.MonkeyPatch.context() as mp:
            # above every magnitude, each float call names its first-checked
            # trace: the amplitude, or the trace of V(2pi)
            mp.setattr(phases, "_VISIBILITY_EPS", np.inf)
            first = min(outcome(run, theta).magnitude for theta in thetas)
            mp.setattr(phases, "_VISIBILITY_EPS", eps)
            stacked = outcome(run, thetas)
            floats = [outcome(run, theta) for theta in thetas]
        errors = [x for x in floats if isinstance(x, Exception)]
        if errors:
            # the stack names the smallest vanishing first-checked trace, and
            # only if none vanishes the smallest vanishing trace of V_inf
            expected = (VisibilityError(first, eps) if not first >= eps
                        else min(errors, key=lambda x: x.magnitude))
            assert type(stacked) is VisibilityError
            assert (stacked.magnitude, stacked.threshold) == (expected.magnitude, eps)
            return
        if kernel == "uhlmann":
            shape = np.shape(stacked.phase)
            assert np.shape(stacked.convergence_estimate) == shape
            stacked = [UhlmannResult(*x) for x in zip(stacked.phase, stacked.convergence_estimate)]
        else:
            shape = np.shape(stacked)
        assert shape == (len(thetas),)
        for got, expected in zip(stacked, floats):
            fields = vars(expected).values() if kernel == "uhlmann" else [expected]
            assert all(isinstance(x, float) for x in fields)
            assert bits(got) == bits(expected)


class TestFullTurnSign:
    """The kernels apply e^{2 pi K} as FULL_TURN_SIGN and e^{-K dphi} as a row
    scale; pinned against the matrix products from loop_unitary they replace."""

    @pytest.mark.parametrize("steps", [16, 17, 2000])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_holonomy_equals_product_form(self, state, lam, steps):
        rho = pair_or_single(state, lam)
        a0 = phases._loop_start(rho, np.array(STACK_THETAS), phases.RANK_EPS)[2]
        expected = product_form_holonomy(a0, steps)
        stacked = uhlmann_holonomy(rho, LoopSpec(theta=STACK_THETAS, steps=steps))
        floats = [uhlmann_holonomy(rho, LoopSpec(theta=t, steps=steps)) for t in STACK_THETAS]
        # a 1-ulp change of the step factor's eigenphases grows steps-fold in
        # its power: 8.4e-14 at 2000 steps on the pair, 2e-15 at 16 and 17
        for got in (stacked, np.array(floats)):
            assert np.abs(got - expected).max() <= 1e-14 + steps * 1e-16

    @pytest.mark.parametrize("steps", [16, 17, 2000])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_holonomy_bitwise_equals_row_scale_power(self, state, lam, steps):
        # the step factor and its power are those of the row-scale formula,
        # bit for bit: a 1-ulp change in an eigenphase grows steps-fold
        rho = pair_or_single(state, lam)
        for theta in (*STACK_THETAS, STACK_THETAS):
            a0 = phases._loop_start(rho, theta, phases.RANK_EPS)[2]
            got = uhlmann_holonomy(rho, LoopSpec(theta=theta, steps=steps))
            assert np.array_equal(got, row_scale_holonomy(a0, steps))

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_exponent_stack_bitwise_equals_separate_decompositions(self, state, lam):
        # uhlmann_phase decomposes A(0) and A(0) - K in one call
        rho = pair_or_single(state, lam)
        for theta in (THETA, STACK_THETAS):
            a0 = phases._loop_start(rho, theta, phases.RANK_EPS)[2]
            exponents = (a0, a0 - loop_generator(a0.shape[-1]))
            both = linalg.antihermitian_eigen(np.array(exponents))
            for i, a in enumerate(exponents):
                alone = linalg.antihermitian_eigen(a)
                assert np.array_equal(both.values[i], alone.values)
                assert np.array_equal(both.vectors[i], alone.vectors)

    @pytest.mark.parametrize("steps", [16, 17, 2000])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_uhlmann_phase_equals_product_form(self, state, lam, steps):
        rho = pair_or_single(state, lam)
        gammas, step_errors, visibility = product_form_uhlmann(rho, STACK_THETAS, steps)
        # one ulp of a trace moves its phase by eps / |trace|: 8e-15 on the
        # pair at lambda = 1 and theta = pi/2, where |trace| = 0.0274 (6.2e-15
        # measured); 1e-14 where |trace| >= 0.1, and 1e-15 / |trace| below
        bound = 1e-14 * np.maximum(1, 0.1 / visibility)
        stacked = uhlmann_phase(rho, LoopSpec(theta=STACK_THETAS, steps=steps))
        floats = [uhlmann_phase(rho, LoopSpec(theta=t, steps=steps)) for t in STACK_THETAS]
        for phase, step_error in ((stacked.phase, stacked.convergence_estimate),
                                  ([x.phase for x in floats],
                                   [x.convergence_estimate for x in floats])):
            assert np.all(np.abs(wrap_angle(np.subtract(phase, gammas))) <= bound)
            assert np.all(np.abs(np.subtract(step_error, step_errors)) <= bound)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("state", ["single", "pair"])
    def test_interferometric_phase_equals_product_form(self, state, lam):
        rho = pair_or_single(state, lam)
        expected = product_form_interferometric(rho, STACK_THETAS)
        stacked = interferometric_phase(rho, STACK_THETAS)
        floats = [interferometric_phase(rho, t) for t in STACK_THETAS]
        for got in (stacked, floats):
            assert np.abs(wrap_angle(np.array(got) - expected)).max() <= 1e-14
