from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from tfim_phases import states
from tfim_phases.errors import UnphysicalStateError
from tfim_phases.ising import Correlators, CouplingRatio, correlators, exact_diag_correlators
from tfim_phases.phases import compute_phases, interferometric_phase, uhlmann_phase
from tfim_phases.states import (
    FULL_TURN_SIGN,
    LoopSpec,
    loop_generator,
    loop_unitary,
    single_site_state,
    start_unitary,
    two_site_state,
)

from oracles import SIGMA_X, SIGMA_Y, SIGMA_Z, ed_ground_states, evolve, traced_pair_state

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def partial_trace(rho4: np.ndarray, keep: int) -> np.ndarray:
    """Reduce a two-site state to one site (keep=0 left factor, keep=1 right)."""
    r = np.asarray(rho4).reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ijkj->ik", r)
    if keep == 1:
        return np.einsum("ijil->jl", r)
    raise ValueError(f"keep must be 0 or 1, got {keep}")


class TestSingleSiteState:
    def test_pure_up(self):
        assert np.allclose(single_site_state(1.0), np.diag([1.0, 0.0]))

    def test_maximally_mixed(self):
        assert np.allclose(single_site_state(0.0), np.eye(2) / 2)

    def test_eigenvalues(self):
        w = np.linalg.eigvalsh(single_site_state(0.5))
        assert np.allclose(sorted(w), [0.25, 0.75])

    def test_overshoot_clamped_and_rejected(self):
        assert np.linalg.eigvalsh(single_site_state(1.0 + 5e-10)).min() >= 0
        with pytest.raises(ValueError):
            single_site_state(1.01)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="^m = nan"):
            single_site_state(np.nan)


class TestTwoSiteState:
    def test_uncorrelated_is_maximally_mixed(self):
        c = Correlators(r=1, m=0.0, c_xx=0.0, c_yy=0.0, c_zz=0.0)
        assert np.allclose(two_site_state(c), np.eye(4) / 4)

    def test_free_ground_state_is_pure(self):
        c = Correlators(r=1, m=1.0, c_xx=0.0, c_yy=0.0, c_zz=1.0)
        rho = two_site_state(c)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_critical_point_entries(self):
        c = correlators(1, CouplingRatio(1.0))
        rho = two_site_state(c)
        assert rho[0, 0] == pytest.approx((1 + 2 * c.m + c.c_zz) / 4, abs=1e-14)
        assert rho[1, 1] == pytest.approx((1 - c.c_zz) / 4, abs=1e-14)
        assert rho[3, 3] == pytest.approx((1 - 2 * c.m + c.c_zz) / 4, abs=1e-14)
        assert rho[0, 3] == pytest.approx((c.c_xx - c.c_yy) / 4, abs=1e-14)
        assert rho[1, 2] == pytest.approx((c.c_xx + c.c_yy) / 4, abs=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_x_shape(self):
        c = correlators(2, CouplingRatio(0.7))
        rho = two_site_state(c)
        mask = np.zeros((4, 4), dtype=bool)
        for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)]:
            mask[i, j] = True
        assert np.abs(rho[~mask]).max() <= 1e-12

    def test_unphysical_correlators_rejected(self):
        c = Correlators(r=1, m=0.0, c_xx=0.99, c_yy=-0.99, c_zz=0.0)
        with pytest.raises(UnphysicalStateError):
            two_site_state(c)

    @pytest.mark.parametrize("field", ["m", "c_xx", "c_yy", "c_zz"])
    def test_nan_correlator_is_unphysical(self, field):
        # Correlators rejects NaN itself; eigvalsh of a NaN entry gives
        # garbage eigenvalues or raises LinAlgError
        values = {"m": 0.3, "c_xx": 0.1, "c_yy": 0.0, "c_zz": 0.2, field: np.nan}
        with pytest.raises(UnphysicalStateError, match="min eigenvalue nan"):
            two_site_state(SimpleNamespace(r=1, **values))

    def test_partial_trace_reduces_to_single_site(self):
        c = correlators(1, CouplingRatio(1.3))
        rho = two_site_state(c)
        single = single_site_state(c.m)
        assert np.abs(partial_trace(rho, 0) - single).max() <= 1e-12
        assert np.abs(partial_trace(rho, 1) - single).max() <= 1e-12

    # the X shape, the basis order and the signs of the two-site state against
    # the ED ground state itself; the largest deviation measured is 1.7e-15
    @pytest.mark.parametrize("n_sites,lam", [(n, lam) for n in (8, 10, 12)
                                             for lam in (0.3, 1.0, 1.5, 3.0)])
    def test_equals_traced_ed_ground_state(self, n_sites, lam):
        ground = ed_ground_states(n_sites, lam)
        assert ground.shape[1] == 1
        for r, c in exact_diag_correlators(n_sites, lam).items():
            assert np.abs(traced_pair_state(ground, r) - two_site_state(c)).max() <= 1e-12, r

    def test_equals_traced_ed_average_when_quasi_degenerate(self):
        # n = 16 at lam = 5 has a sector gap of 9.4e-12: the ED correlators
        # average both sector ground states.  Measured: the average's trace
        # deviates by 3.3e-16 and the lower state's alone by 8.5e-12, so the
        # bound pins the averaging.
        ground = ed_ground_states(16, 5.0)
        assert ground.shape[1] == 2
        ed = exact_diag_correlators(16, 5.0)
        for r, c in ed.items():
            assert np.abs(traced_pair_state(ground, r) - two_site_state(c)).max() <= 1e-12, r
        assert max(np.abs(traced_pair_state(ground[:, :1], r) - two_site_state(c)).max()
                   for r, c in ed.items()) > 1e-12


def site_rotation(phi, theta):
    """R_z(phi) R_y(theta) on one site, written out; reference for loop_unitary."""
    rz = np.diag([np.exp(0.5j * phi), np.exp(-0.5j * phi)])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return rz @ np.array([[c, -s], [s, c]])


class TestRotations:
    def test_identity(self):
        assert np.allclose(loop_unitary(0.0, 0.0, 2), np.eye(2))
        assert np.allclose(loop_unitary(0.0, 0.0, 4), np.eye(4))

    def test_spinor_sign_at_full_turn(self):
        # e^{2 pi K}: the spinor sign -I on one site, +I on the pair
        assert np.abs(loop_unitary(2 * np.pi, 0.0, 2) + np.eye(2)).max() <= 1e-14
        assert np.abs(loop_unitary(2 * np.pi, 0.0, 4) - np.eye(4)).max() <= 1e-14
        for theta in (0.3, 2.0):
            u0 = loop_unitary(0.0, theta, 2)
            assert np.abs(loop_unitary(2 * np.pi, theta, 2) + u0).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    def test_full_turn_is_the_exact_sign(self, dim):
        # the kernels apply e^{2 pi K} as FULL_TURN_SIGN; the matrix is that
        # sign up to the rounding of exp(2 pi i K_nn)
        thetas = np.array([0.0, np.pi / 12, 1.0, np.pi / 2, np.pi])
        full_turn = loop_unitary(2 * np.pi, thetas, dim)
        start = loop_unitary(0.0, thetas, dim)
        assert np.abs(full_turn - FULL_TURN_SIGN[dim] * start).max() <= 1e-15

    def test_pair_full_turn_sign_cancels(self):
        theta = 0.8
        full_turn = loop_unitary(2 * np.pi, theta, 4)
        assert np.abs(full_turn - loop_unitary(0.0, theta, 4)).max() <= 1e-13

    def test_matches_product_of_site_rotations(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            phi, theta = rng.uniform(-2 * np.pi, 2 * np.pi), rng.uniform(0, np.pi)
            u = site_rotation(phi, theta)
            assert np.abs(loop_unitary(phi, theta, 2) - u).max() <= 1e-14
            assert np.abs(loop_unitary(phi, theta, 4) - np.kron(u, u)).max() <= 1e-14

    def test_generator_exponential(self):
        # U(phi) = e^{K phi} U(0), and theta = 0 gives e^{K phi} alone
        for dim in (2, 4):
            k = loop_generator(dim)
            for phi in (-0.7, 1.3, 2 * np.pi):
                expected = scipy.linalg.expm(k * phi)
                assert np.abs(loop_unitary(phi, 0.0, dim) - expected).max() <= 1e-13
                assert np.abs(loop_unitary(phi, 0.9, dim)
                              - expected @ loop_unitary(0.0, 0.9, dim)).max() <= 1e-13

    def test_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            loop_unitary(0.0, 0.0, 3)

    def test_quarter_y_rotation(self):
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) * np.sqrt(2) / 2
        assert np.allclose(loop_unitary(0.0, np.pi / 2, 2), expected)

    def test_unitarity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            phi, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            u = loop_unitary(phi, theta, 4)
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    def test_theta_stack_equals_float_calls(self, dim):
        thetas = (0.0, np.pi / 12, 1.0, np.pi)
        for phi in (0.0, -0.3, 2 * np.pi):
            stack = loop_unitary(phi, np.array(thetas), dim)
            assert stack.shape == (len(thetas), dim, dim)
            for theta, u in zip(thetas, stack):
                assert np.array_equal(u, loop_unitary(phi, theta, dim))


class TestEvolve:
    def test_maximally_mixed_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            phi, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            assert np.allclose(evolve(np.eye(4) / 4, phi, theta), np.eye(4) / 4)

    def test_identity_point(self):
        c = correlators(1, CouplingRatio(0.9))
        rho = two_site_state(c)
        assert np.allclose(evolve(rho, 0.0, 0.0), rho)

    def test_spectrum_invariance(self):
        rng = np.random.default_rng(23)
        c = correlators(1, CouplingRatio(1.1))
        pair = two_site_state(c)
        single = single_site_state(c.m)
        for _ in range(1000):
            phi, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            for rho in (pair, single):
                before = np.linalg.eigvalsh(rho)
                after = np.linalg.eigvalsh(evolve(rho, phi, theta))
                assert np.abs(before - after).max() <= 1e-12

    def test_corotating_correlations_unchanged(self):
        # local rotations leave co-rotated two-site correlations invariant
        rng = np.random.default_rng(29)
        c = correlators(1, CouplingRatio(1.2))
        rho = two_site_state(c)
        values = {"x": c.c_xx, "y": c.c_yy, "z": c.c_zz}
        for _ in range(20):
            phi, theta = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            rotated = evolve(rho, phi, theta)
            u = site_rotation(phi, theta)
            for axis, sigma in PAULI.items():
                op = np.kron(u @ sigma @ u.conj().T, u @ sigma @ u.conj().T)
                val = np.trace(rotated @ op).real
                assert val == pytest.approx(values[axis], abs=1e-12)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            evolve(np.eye(3), 0.0, 0.0)


class TestLoopSpec:
    def test_defaults(self):
        loop = LoopSpec(theta=np.pi / 3)
        assert loop.steps == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            LoopSpec(theta=np.pi / 3, steps=8)
        with pytest.raises(ValueError):
            LoopSpec(theta=-0.1)
        with pytest.raises(ValueError):
            LoopSpec(theta=3.5)

    @pytest.mark.parametrize("steps", [64.5, 64.0, "64", None, True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            LoopSpec(theta=np.pi / 3, steps=steps)
        assert LoopSpec(theta=np.pi / 3, steps=np.int64(64)).steps == 64

    def test_theta_sequence(self):
        assert LoopSpec(theta=(0.0, np.pi)).theta == (0.0, np.pi)
        for bad in ((0.1, 3.5), (-0.1, 0.2), (), (0.1, float("nan"))):
            with pytest.raises(ValueError, match="theta"):
                LoopSpec(theta=bad)

    def test_list_and_array_theta_equal_the_tuple(self):
        thetas = (0.1, np.pi / 3, np.pi)
        expected = LoopSpec(theta=thetas, steps=64)
        rho = two_site_state(correlators(1, CouplingRatio(1.5)))
        for theta in (list(thetas), np.array(thetas)):
            loop = LoopSpec(theta=theta, steps=64)
            assert loop == expected
            assert type(loop.theta) is tuple and all(type(t) is float for t in loop.theta)
            assert uhlmann_phase(rho, loop) == uhlmann_phase(rho, expected)
            assert np.array_equal(interferometric_phase(rho, theta),
                                  interferometric_phase(rho, thetas))
            assert (compute_phases(1.5, 1, theta, loop_steps=64)
                    == compute_phases(1.5, 1, thetas, loop_steps=64))

    def test_zero_dimensional_theta_is_a_float(self):
        loop = LoopSpec(theta=np.array(0.3))
        assert type(loop.theta) is float and loop == LoopSpec(theta=0.3)

    def test_bad_list_or_array_theta_rejected(self):
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\], got 3.5"):
            LoopSpec(theta=[0.1, 3.5])
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\], got none"):
            LoopSpec(theta=[])
        for bad in (np.full((2, 2), 0.5), "0.3", ["0.1"], [0.1, None]):
            with pytest.raises(ValueError, match="theta must be a float or a 1-D float sequence"):
                LoopSpec(theta=bad)


class TestStartUnitary:
    THETAS = (0.0, np.pi / 12, 1.0, np.pi)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("form", [float, tuple, list, np.array])
    def test_read_only_and_bitwise_loop_unitary(self, dim, form):
        theta = form(self.THETAS[2]) if form is float else form(self.THETAS)
        for _ in range(2):  # built, then from the cache
            u = start_unitary(theta, dim)
            assert not u.flags.writeable
            assert u.shape == np.shape(loop_unitary(0.0, theta, dim))
            assert np.array_equal(u, loop_unitary(0.0, theta, dim))
        with pytest.raises(ValueError, match="read-only"):
            u[..., 0, 0] = 0.0

    def test_theta_and_its_stack_are_distinct_entries(self):
        assert start_unitary(1.0, 4).shape == (4, 4)
        assert start_unitary((1.0,), 4).shape == (1, 4, 4)
        assert start_unitary(1.0, 2).shape == (2, 2)

    def test_negative_zero_is_not_zero(self):
        # loop_unitary's zeros carry theta's sign, so the two need two entries
        # (a dict would take -0.0 and 0.0 as one key, as a float-keyed cache would)
        plus, minus = (np.signbit(loop_unitary(0.0, t, 2).real) for t in (0.0, -0.0))
        assert not np.array_equal(plus, minus)
        for t, signs in ((0.0, plus), (-0.0, minus), (0.0, plus)):
            assert np.array_equal(np.signbit(start_unitary(t, 2).real), signs)

    def test_cache_is_bounded(self):
        limit = states._cached_start_unitary.cache_info().maxsize
        assert limit is not None
        for theta in np.linspace(0, np.pi, limit + 5):
            start_unitary(theta, 2)
        assert states._cached_start_unitary.cache_info().currsize == limit
