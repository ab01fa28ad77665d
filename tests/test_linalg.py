import numpy as np
import pytest

from tfim_phases.linalg import antihermitian_eigen, hermitian_eigen

from oracles import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    expm_antihermitian,
    sqrt_psd,
    unitary_power,
)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_antihermitian(rng, dim):
    return 1j * random_hermitian(rng, dim)


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

    def test_parity_blocks_kept_at_exact_degeneracy(self):
        # the same 2x2 block on {|00>, |11>} and on {|01>, |10>}: every
        # eigenvalue is doubly degenerate across the two Z-parity blocks
        m = np.zeros((4, 4), dtype=complex)
        m[np.ix_([0, 3], [0, 3])] = m[np.ix_([1, 2], [1, 2])] = [[0.3, 0.1], [0.1, 0.2]]
        w, v = hermitian_eigen(m)
        assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-15
        for k in range(4):
            assert not v[[0, 3], k].any() or not v[[1, 2], k].any()

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigen(bad)

    def test_nan_rejected_by_the_hermiticity_check(self):
        # not by eigh's LinAlgError further on
        with pytest.raises(ValueError, match=r"^matrix is not Hermitian: .* = nan >"):
            hermitian_eigen(np.full((4, 4), np.nan))


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


class TestExpmAntihermitian:
    """exp(A s) from antihermitian_eigen and spectral_matrix; the input checks
    are antihermitian_eigen's."""

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
            antihermitian_eigen(SIGMA_Z)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix is not anti-Hermitian: .* = nan >"):
            antihermitian_eigen(np.full((2, 2), np.nan))

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
            antihermitian_eigen(stack)


class TestUnitaryPower:
    """u^n from unitary_eigen and spectral_matrix."""

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
