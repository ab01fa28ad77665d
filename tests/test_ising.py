from collections import OrderedDict

import numpy as np
import pytest
import scipy.integrate

from tfim_phases import ising
from tfim_phases.errors import QuadratureError
from tfim_phases.ising import (
    CouplingRatio,
    correlator_xx,
    correlator_yy,
    correlator_zz,
    correlators,
    dispersion,
    exact_diag_correlators,
    ground_energy_density,
    magnetization,
    toeplitz_element,
    toeplitz_table,
)

# Frozen oracle: quadrature at tol 1e-12 cross-checked against scipy.integrate.quad
# and the exact-diagonalization trend over N = 8, 10, 12.
MAGNETIZATION_HALF = 0.9342154576676942


def scipy_magnetization(lam):
    val, _ = scipy.integrate.quad(
        lambda p: (1 + lam * np.cos(p)) / dispersion(p, lam), 0, np.pi,
        limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    return val / np.pi


def scipy_toeplitz(r, lam):
    i1, _ = scipy.integrate.quad(
        lambda p: np.cos(r * p) * (1 + lam * np.cos(p)) / dispersion(p, lam),
        0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    i2, _ = scipy.integrate.quad(
        lambda p: np.sin(r * p) * np.sin(p) / dispersion(p, lam),
        0, np.pi, limit=400, epsabs=1e-13, epsrel=1e-13,
    )
    return (i1 - lam * i2) / np.pi


# Reference oracle: the same panel trees built depth first, one recursive call
# and one scalar 15-node sum per panel, one integral at a time.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gauss_panel(f, a, b):
    mid = (a + b) / 2
    half = (b - a) / 2
    return half * float(np.sum(_GAUSS_WEIGHTS * f(mid + half * _GAUSS_NODES)))


def _adaptive(f, a, b, tol, depth, max_depth):
    whole = _gauss_panel(f, a, b)
    mid = (a + b) / 2
    left = _gauss_panel(f, a, mid)
    right = _gauss_panel(f, mid, b)
    err = abs(left + right - whole)
    if err <= tol:
        return left + right
    if depth >= max_depth:
        raise QuadratureError(f"no convergence on [{a}, {b}]", err)
    return (_adaptive(f, a, mid, tol / 2, depth + 1, max_depth)
            + _adaptive(f, mid, b, tol / 2, depth + 1, max_depth))


def quad_adaptive(f, initial_panels, tol=1e-10, max_depth=40):
    edges = np.linspace(0.0, np.pi, initial_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += _adaptive(f, lo, hi, tol / initial_panels, 0, max_depth)
    return total


def reference_toeplitz(k, lam):
    panels = ising._panels_for(k, lam)
    i1 = quad_adaptive(
        lambda p: np.cos(k * p) * (1 + lam * np.cos(p)) / dispersion(p, lam), panels)
    i2 = quad_adaptive(lambda p: np.sin(k * p) * np.sin(p) / dispersion(p, lam), panels)
    return (i1 - lam * i2) / np.pi


def reference_magnetization(lam):
    return quad_adaptive(lambda p: (1 + lam * np.cos(p)) / dispersion(p, lam),
                         ising._panels_for(0, lam)) / np.pi


def reference_energy(lam):
    return quad_adaptive(lambda p: dispersion(p, lam), ising._panels_for(0, lam)) / np.pi


@pytest.fixture
def fresh_cache(monkeypatch):
    """Gives the test its own empty G_k cache; returns a function that empties it."""
    def reset():
        monkeypatch.setattr(ising, "_TABLES", OrderedDict())
    reset()
    return reset


class TestDispersion:
    @pytest.mark.parametrize("phi,lam,expected", [
        (0.0, 1.0, 2.0),
        (np.pi, 0.4, 0.6),
        (np.pi / 2, 1.0, np.sqrt(2.0)),
    ])
    def test_values(self, phi, lam, expected):
        assert dispersion(phi, lam) == pytest.approx(expected, abs=1e-14)

    def test_gap_closes_only_at_critical_point(self):
        assert dispersion(np.pi, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert dispersion(np.pi, 0.99) > 0
        phis = np.linspace(0, np.pi, 200)
        assert dispersion(phis, 0.8).min() > 0


class TestMagnetization:
    def test_free_limit(self):
        assert magnetization(CouplingRatio(0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_critical_point(self):
        # integrand reduces to cos(phi/2), integral = 2, so m = 2/pi
        assert magnetization(CouplingRatio(1.0)) == pytest.approx(2 / np.pi, abs=1e-12)

    def test_frozen_value_at_half(self):
        m = magnetization(CouplingRatio(0.5, quad_tol=1e-12))
        assert m == pytest.approx(MAGNETIZATION_HALF, abs=1e-11)

    @pytest.mark.parametrize("lam", [0.3, 0.9, 1.0, 1.05, 1.7, 2.5])
    def test_against_scipy_quad(self, lam):
        assert magnetization(CouplingRatio(lam)) == pytest.approx(
            scipy_magnetization(lam), abs=1e-9)

    def test_nonconvergence_raises_with_residual(self, monkeypatch, fresh_cache):
        monkeypatch.setattr(ising, "_QUAD_MAX_DEPTH", 2)
        with pytest.raises(QuadratureError) as exc:
            magnetization(CouplingRatio(0.999999, quad_tol=1e-15))
        assert exc.value.residual > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CouplingRatio(-0.1)
        with pytest.raises(ValueError):
            CouplingRatio(1.0, quad_tol=0.0)


class TestToeplitzElements:
    @pytest.mark.parametrize("lam", [0.2, 0.7, 1.0, 1.4])
    def test_g0_equals_magnetization(self, lam, fresh_cache):
        params = CouplingRatio(lam)
        m = magnetization(params)
        fresh_cache()
        assert toeplitz_table(5, params)[0] == m

    def test_free_limit_vanishes(self):
        assert toeplitz_element(1, CouplingRatio(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_at_critical_point(self):
        # G_{-1} = 2/(3pi) + 4/(3pi) and G_1 = 2/(3pi) - 4/(3pi) at lam = 1
        params = CouplingRatio(1.0)
        assert toeplitz_element(-1, params) == pytest.approx(2 / np.pi, abs=1e-10)
        assert toeplitz_element(1, params) == pytest.approx(-2 / (3 * np.pi), abs=1e-10)

    @pytest.mark.parametrize("r", [-3, 2, 7])
    def test_against_scipy_quad(self, r):
        assert toeplitz_element(r, CouplingRatio(0.9)) == pytest.approx(
            scipy_toeplitz(r, 0.9), abs=1e-9)

    def test_table(self):
        params = CouplingRatio(0.8)
        table = toeplitz_table(3, params)
        assert sorted(table.g) == list(range(-3, 4))
        assert abs(table[0] - magnetization(params)) <= 2 * params.quad_tol

    def test_separation_cap(self):
        with pytest.raises(ValueError):
            toeplitz_element(10001, CouplingRatio(1.0))


class TestBatchedQuadrature:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.98, 1.0, 1.02, 1.5, 3.0])
    def test_matches_recursive_oracle(self, lam, fresh_cache):
        params = CouplingRatio(lam)
        table = toeplitz_table(101, params)
        for k in range(-101, 102):
            assert abs(table[k] - reference_toeplitz(k, lam)) <= 1e-15, k
        assert abs(magnetization(params) - reference_magnetization(lam)) <= 1e-15
        assert abs(ground_energy_density(params) - reference_energy(lam)) <= 1e-15

    @pytest.mark.parametrize("k", [-10**4, 10**4])
    def test_largest_separation_matches_oracle(self, k, fresh_cache):
        assert abs(toeplitz_element(k, CouplingRatio(0.98))
                   - reference_toeplitz(k, 0.98)) <= 1e-15

    def test_value_independent_of_batch(self, fresh_cache):
        params = CouplingRatio(0.9)
        alone = toeplitz_element(10, params)
        fresh_cache()
        correlators(100, params)
        assert toeplitz_element(10, params) == alone

    def test_separation_cap_checked_before_quadrature(self, fresh_cache, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(ising, "_integrate", no_quadrature)
        with pytest.raises(ValueError, match="1e4"):
            correlators(10**4 + 1, CouplingRatio(0.5))

    def test_unattainable_tolerance_stops_at_panel_bound(self, fresh_cache):
        with pytest.raises(QuadratureError, match="grew past") as exc:
            correlators(1, CouplingRatio(1.0, quad_tol=1e-30))
        assert exc.value.residual > 0

    def test_cache_holds_at_most_its_capacity(self, fresh_cache):
        lams = np.linspace(0.1, 2.0, 70)
        for lam in lams:
            correlators(1, CouplingRatio(float(lam)))
        assert len(ising._TABLES) == ising._CACHE_SIZE
        assert (float(lams[-1]), 1e-10) in ising._TABLES

    def test_evicted_coupling_recomputes_same_values(self, fresh_cache):
        first = CouplingRatio(0.05)
        before = toeplitz_table(3, first).g
        for lam in np.linspace(0.1, 2.0, ising._CACHE_SIZE):
            correlators(1, CouplingRatio(float(lam)))
        assert (0.05, 1e-10) not in ising._TABLES
        assert toeplitz_table(3, first).g == before


class TestCorrelators:
    def test_xx_free_limit(self):
        assert correlator_xx(1, CouplingRatio(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert correlator_xx(2, CouplingRatio(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_xx_critical_nearest_neighbor(self):
        # forced by the energy sum rule: 1 * c_xx(1) + 2/pi = 4/pi
        assert correlator_xx(1, CouplingRatio(1.0)) == pytest.approx(2 / np.pi, abs=1e-9)

    def test_yy_free_limit(self):
        assert correlator_yy(1, CouplingRatio(0.0)) == pytest.approx(0.0, abs=1e-12)
        assert correlator_yy(2, CouplingRatio(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_yy_critical_nearest_neighbor(self):
        assert correlator_yy(1, CouplingRatio(1.0)) == pytest.approx(-2 / (3 * np.pi), abs=1e-9)

    def test_zz_free_limit(self):
        assert correlator_zz(1, CouplingRatio(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zz_critical_nearest_neighbor(self):
        assert correlator_zz(1, CouplingRatio(1.0)) == pytest.approx(
            16 / (3 * np.pi**2), abs=1e-9)

    def test_zz_long_distance_tail(self):
        params = CouplingRatio(0.5)
        m = magnetization(params)
        assert abs(correlator_zz(50, params) - m * m) <= 1e-6

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_energy_sum_rule(self, lam):
        params = CouplingRatio(lam)
        lhs = lam * correlator_xx(1, params) + magnetization(params)
        assert lhs == pytest.approx(ground_energy_density(params), abs=1e-8)

    def test_all_observables_bounded(self):
        for lam in np.linspace(0.0, 3.0, 13):
            c = correlators(1, CouplingRatio(float(lam)))
            for val in (c.m, c.c_xx, c.c_yy, c.c_zz):
                assert abs(val) <= 1 + 1e-9

    def test_invalid_separation(self):
        with pytest.raises(ValueError):
            correlator_xx(0, CouplingRatio(1.0))


class TestGroundEnergyDensity:
    def test_free_limit(self):
        assert ground_energy_density(CouplingRatio(0.0)) == pytest.approx(1.0, abs=1e-10)

    def test_critical_point(self):
        # dispersion reduces to 2 cos(phi/2), integral = 4
        assert ground_energy_density(CouplingRatio(1.0)) == pytest.approx(4 / np.pi, abs=1e-10)


class TestExactDiagOracle:
    def test_product_ground_state(self):
        ed = exact_diag_correlators(8, 0.0)
        assert ed[1].m == pytest.approx(1.0, abs=1e-10)
        assert ed[1].c_xx == pytest.approx(0.0, abs=1e-10)
        assert ed[1].c_zz == pytest.approx(1.0, abs=1e-10)

    def test_critical_magnetization_finite_size(self):
        ed = exact_diag_correlators(12, 1.0)
        assert abs(ed[1].m - 2 / np.pi) < 0.03

    def test_matches_thermodynamic_limit(self):
        params = CouplingRatio(0.5)
        ed = exact_diag_correlators(10, 0.5)
        for r in (1, 2, 3):
            c = correlators(r, params)
            assert abs(ed[r].m - c.m) < 2e-2
            assert abs(ed[r].c_xx - c.c_xx) < 2e-2
            assert abs(ed[r].c_yy - c.c_yy) < 2e-2
            assert abs(ed[r].c_zz - c.c_zz) < 2e-2

    def test_determinant_layout_regression_ordered_phase(self):
        # pins the Toeplitz index layout of the x/y determinants for r = 1..3
        params = CouplingRatio(1.5)
        ed = exact_diag_correlators(10, 1.5)
        for r in (1, 2, 3):
            assert abs(ed[r].c_xx - correlator_xx(r, params)) < 2e-2
            assert abs(ed[r].c_yy - correlator_yy(r, params)) < 2e-2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            exact_diag_correlators(7, 1.0)
        with pytest.raises(ValueError):
            exact_diag_correlators(14, 1.0)
        with pytest.raises(ValueError):
            exact_diag_correlators(2, 1.0)
