import numpy as np
import pytest

from tfim_phases.ising import CouplingRatio, correlators
from tfim_phases.linalg import (
    SIGMA_Z,
    det_real,
    expm_antihermitian,
    hermitian_eigen,
    unitary_power,
)
from tfim_phases.states import single_site_state, two_site_state

# test-only kernels, defined beside the oracles that use them
from test_phases import commutator, sqrt_psd
from test_states import SIGMA_X, SIGMA_Y


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_antihermitian(rng, dim):
    return 1j * random_hermitian(rng, dim)


def cofactor_det(m):
    """Independent determinant oracle for dims <= 3 (Laplace expansion)."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


class TestHermitianEigen:
    def test_identity(self):
        eig = hermitian_eigen(np.eye(2, dtype=complex))
        assert np.allclose(eig.values, [1.0, 1.0])

    def test_pauli_z_spectrum(self):
        eig = hermitian_eigen(SIGMA_Z)
        assert np.allclose(eig.values, [-1.0, 1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4):
            for _ in range(50):
                m = random_hermitian(rng, dim)
                w, v = hermitian_eigen(m)
                assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10
                assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-12
                assert np.all(np.diff(w) >= 0)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 4)
        _, v1 = hermitian_eigen(m)
        _, v2 = hermitian_eigen(m.copy())
        assert np.array_equal(v1, v2)
        for k in range(4):
            pivot = np.argmax(np.abs(v1[:, k]))
            assert v1[pivot, k].imag == pytest.approx(0.0, abs=1e-14)
            assert v1[pivot, k].real > 0

    def test_rephasing_matches_column_loop(self):
        # The reference rephases one column at a time.  The package's states
        # have real pivots, so both forms divide by +-1 and agree bitwise.  A
        # complex pivot's phase is rounded differently by numpy's scalar and
        # array complex divisions, within a few units in the last place.
        def column_loop(m):
            w, v = np.linalg.eigh((m + m.conj().T) / 2)
            for k in range(v.shape[1]):
                pivot = int(np.argmax(np.abs(v[:, k])))
                v[:, k] = v[:, k] / (v[pivot, k] / abs(v[pivot, k]))
            return w, v

        states = [single_site_state(m) for m in (-0.4, 0.0, 0.3, 1.0)]
        states += [two_site_state(correlators(r, CouplingRatio(lam)))
                   for r in (1, 10) for lam in (0.05, 0.5, 1.0, 1.5, 2.0)]
        for rho in states:
            w, v = column_loop(rho)
            eig = hermitian_eigen(rho)
            assert np.array_equal(eig.values, w) and np.array_equal(eig.vectors, v)
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(50):
                m = random_hermitian(rng, dim)
                w, v = column_loop(m)
                eig = hermitian_eigen(m)
                assert np.array_equal(eig.values, w)
                assert np.abs(eig.vectors - v).max() <= 4 * np.finfo(float).eps

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigen(bad)


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(2, dtype=complex)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_maximally_mixed_pair(self):
        assert np.allclose(sqrt_psd(np.eye(4, dtype=complex) / 4), np.eye(4) / 2)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(11)
        for dim in (2, 4):
            for _ in range(20):
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                m = a @ a.conj().T
                s = sqrt_psd(m)
                assert np.abs(s @ s - m).max() <= 1e-10 * max(1.0, np.abs(m).max())
                assert np.abs(s - s.conj().T).max() <= 1e-12

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))

    def test_tiny_negative_clamped(self):
        s = sqrt_psd(np.diag([1.0, -1e-13]).astype(complex))
        assert s[1, 1] == 0.0


class TestDetReal:
    def test_scalar(self):
        assert det_real(np.array([[3.5]])) == pytest.approx(3.5)

    def test_singular(self):
        assert det_real(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx(0.0)

    def test_hand_value(self):
        assert det_real(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            for _ in range(30):
                m = rng.standard_normal((dim, dim))
                expected = cofactor_det(m)
                assert det_real(m) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            det_real(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            det_real(np.array([[np.nan]]))


class TestExpmAntihermitian:
    def test_zero_generator(self):
        assert np.allclose(expm_antihermitian(np.zeros((4, 4)), s=3.7), np.eye(4))

    def test_pauli_z_generator(self):
        assert np.abs(expm_antihermitian(1j * SIGMA_Z, s=np.pi) + np.eye(2)).max() <= 1e-12

    def test_inverse_property_and_unitarity(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            for _ in range(20):
                a = random_antihermitian(rng, dim)
                s = rng.uniform(-10, 10)
                u = expm_antihermitian(a, s)
                assert np.abs(u @ expm_antihermitian(a, -s) - np.eye(dim)).max() <= 1e-12
                assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-12

    def test_rejects_non_antihermitian(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm_antihermitian(SIGMA_Z)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_equals_matrix_calls(self, dim):
        rng = np.random.default_rng(dim)
        stack = np.array([random_antihermitian(rng, dim) for _ in range(3)])
        got = expm_antihermitian(stack, 0.7)
        assert got.shape == (3, dim, dim)
        for a, u in zip(stack, got):
            assert np.array_equal(u, expm_antihermitian(a, 0.7))

    def test_defect_anywhere_in_stack_rejected(self):
        stack = np.array([1j * SIGMA_Z, SIGMA_Z])
        with pytest.raises(ValueError, match="anti-Hermitian"):
            expm_antihermitian(stack)


class TestUnitaryPower:
    def test_matches_repeated_product(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4):
            for n in (0, 1, 2, 5, 17, 40):
                # eigenphases within 0.1 * ||a|| < pi/2
                u = expm_antihermitian(random_antihermitian(rng, dim), 0.1)
                assert np.abs(unitary_power(u, n) - np.linalg.matrix_power(u, n)).max() <= 1e-12

    def test_degenerate_phases(self):
        rng = np.random.default_rng(8)
        w = expm_antihermitian(random_antihermitian(rng, 4))
        u = (w * np.exp(1j * np.array([0.2, 0.2, -0.3, -0.3]))) @ w.conj().T
        assert np.abs(unitary_power(u, 9) - np.linalg.matrix_power(u, 9)).max() <= 1e-12

    def test_unitary_at_large_power(self):
        rng = np.random.default_rng(9)
        u = expm_antihermitian(random_antihermitian(rng, 4), 0.1)
        v = unitary_power(u, 10**6)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-14

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_equals_matrix_calls(self, dim):
        rng = np.random.default_rng(dim)
        stack = expm_antihermitian(np.array([random_antihermitian(rng, dim) for _ in range(3)]),
                                   0.1)
        got = unitary_power(stack, 2000)
        assert got.shape == (3, dim, dim)
        for u, v in zip(stack, got):
            assert np.array_equal(v, unitary_power(u, 2000))


class TestCommutator:
    def test_identity_commutes(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(commutator(np.eye(2), b), 0.0)

    def test_pauli_algebra(self):
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)

    def test_self_commutator(self):
        assert np.allclose(commutator(SIGMA_Y, SIGMA_Y), 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(np.eye(2), np.eye(3))
