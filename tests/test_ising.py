import dataclasses
import math
import os
import subprocess
import sys
import textwrap

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from tfim_phases import ising
from tfim_phases.errors import QuadratureError
from tfim_phases.ising import (
    Correlators,
    CouplingRatio,
    correlators,
    exact_diag_correlators,
    ground_energy_density,
    magnetization,
    toeplitz_element,
)

from oracles import (
    dense_chain_hamiltonian,
    dense_exact_diag_correlators,
    finite_ring_elements,
    free_fermion_ring_correlators,
)


def dispersion(phi, lam):
    """Quasiparticle energy sqrt((lam sin phi)^2 + (1 + lam cos phi)^2)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return np.sqrt((lam * np.sin(phi)) ** 2 + (1 + lam * np.cos(phi)) ** 2)


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


# High-precision oracles.  For lam <= 1 and n = |k| (Barouch and McCoy; the
# binomial series of the symbol, DLMF 15.2):
#   G_{-n} = lam^n C(1/2, n) 2F1(n - 1/2, 1/2; n + 1; lam^2),
#   G_n    = lam^n C(-1/2, n) 2F1(n + 1/2, -1/2; n + 1; lam^2),
# and G_k(lam) = G_{-k-1}(1/lam) for lam > 1.
def mpmath_toeplitz(k, lam, dps=20):
    with mpmath.workdps(dps):
        lam = mpmath.mpf(lam)
        if lam > 1:
            return mpmath_toeplitz(-k - 1, 1 / lam, dps)
        n, half = abs(k), mpmath.mpf(1) / 2
        if k <= 0:
            return lam**n * mpmath.binomial(half, n) * mpmath.hyp2f1(
                n - half, half, n + 1, lam**2)
        return lam**n * mpmath.binomial(-half, n) * mpmath.hyp2f1(
            n + half, -half, n + 1, lam**2)


def mpmath_energy(lam):
    """(2/pi) (1 + lam) E(4 lam / (1 + lam)^2)."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        return 2 / mpmath.pi * (1 + lam) * mpmath.ellipe(4 * lam / (1 + lam) ** 2)


def pfeuty_xx(r):
    """c_xx(r) at lam = 1: (2/pi)^r 2^(2r(r-1)) H(r)^4 / H(2r), H(n) = prod_{k<n} k!."""
    with mpmath.workdps(50):
        log_c = (r * mpmath.log(2 / mpmath.pi) + 2 * r * (r - 1) * mpmath.log(2)
                 + 4 * mpmath.log(mpmath.barnesg(r + 1)) - mpmath.log(mpmath.barnesg(2 * r + 1)))
        return mpmath.exp(log_c)


# Recursive oracle: the three-term recurrence
#   lam (j - 1/2) G_{j-1} + ((1 + lam^2) j + lam^2) G_j + lam (j + 3/2) G_{j+1} = 0
# in scalar floats, one element at a time, from mpmath's seeds G_0 and G_{-1}
# instead of the package's arithmetic-geometric means.  Where a batch of
# |k| <= n runs outward from the seeds, so does the oracle; elsewhere G_k is G_0
# times Miller's ratios, each continued fraction started from zero as far
# beyond the range as the batch starts it.
def mpmath_seeds(lam):
    """G_0 and G_{-1}: ((1+lam) E(m) +- (1-lam) K(m)) / pi, over lam for G_{-1}."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        m = 4 * lam / (1 + lam) ** 2
        e, k = (1 + lam) * mpmath.ellipe(m), (1 - lam) * mpmath.ellipk(m)
        return float((e + k) / mpmath.pi), float((e - k) / (mpmath.pi * lam))


def _recurrence_coefficients(j, lam):
    """Coefficients of G_{j-1}, G_j and G_{j+1}."""
    return lam * (j - 0.5), (1 + lam * lam) * j + lam * lam, lam * (j + 1.5)


def recursive_toeplitz(k, lam, n=101):
    if lam > 1:
        return recursive_toeplitz(-k - 1, 1 / lam, n + 1)
    if lam in (0.0, 1.0):
        return float(mpmath_toeplitz(k, lam))
    g0, g_minus = mpmath_seeds(lam)
    if lam >= 0.5 and -2 * n * math.log(lam) <= ising._OUTWARD_LOG_GROWTH:
        prev, cur = (g_minus, g0) if k >= 0 else (g0, g_minus)
        for j in (range(k) if k >= 0 else range(-1, k, -1)):
            a, b, c = _recurrence_coefficients(j, lam)
            prev, cur = cur, -(a * prev + b * cur) / c if k >= 0 else -(b * cur + c * prev) / a
        return cur
    beyond = int(ising._MILLER_LOG_DECAY / (-2 * math.log(lam))) + 1
    ratio, g = 0.0, g0
    if k > 0:
        for j in range(n + beyond, 0, -1):    # ratio = G_j / G_{j-1}
            a, b, c = _recurrence_coefficients(j, lam)
            ratio = -a / (b + c * ratio)
            if j <= k:
                g *= ratio
    elif k < 0:
        for j in range(-n - beyond, 0):       # ratio = G_j / G_{j+1}
            a, b, c = _recurrence_coefficients(j, lam)
            ratio = -c / (b + a * ratio)
            if j >= k:
                g *= ratio
    return g


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
        ising.check_quad_tol(1e-12)  # a request at the error floor is met
        m = magnetization(CouplingRatio(0.5))
        assert m == pytest.approx(MAGNETIZATION_HALF, abs=1e-11)

    @pytest.mark.parametrize("lam", [0.3, 0.9, 1.0, 1.05, 1.7, 2.5])
    def test_against_scipy_quad(self, lam):
        assert magnetization(CouplingRatio(lam)) == pytest.approx(
            scipy_magnetization(lam), abs=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        # a request below the error floor of the closed form cannot be met
        with pytest.raises(QuadratureError) as exc:
            ising.check_quad_tol(1e-15)
        assert exc.value.residual == ising.ERROR_FLOOR > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CouplingRatio(-0.1)
        with pytest.raises(ValueError):
            ising.check_quad_tol(0.0)
        with pytest.raises(ValueError, match="quad_tol must be > 0"):
            ising.check_quad_tol(float("nan"))

    def test_coupling_ratio_carries_lam_alone(self):
        assert [f.name for f in dataclasses.fields(CouplingRatio)] == ["lam"]
        with pytest.raises(TypeError):
            CouplingRatio(1.0, 1e-10)


class TestToeplitzElements:
    @pytest.mark.parametrize("lam", [0.2, 0.7, 1.0, 1.4])
    def test_g0_equals_magnetization(self, lam):
        params = CouplingRatio(lam)
        m = magnetization(params)
        assert toeplitz_element(0, params) == m
        assert correlators(5, params).m == m

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
        # the elements G_k, k = -3 .. 3, that correlators(3, .) uses
        params = CouplingRatio(0.8)
        table = toeplitz_element(np.arange(-3, 4), params)
        assert table.shape == (7,)
        assert table[3] == magnetization(params)
        assert abs(table[4] - toeplitz_element(1, params)) <= 1e-15

    def test_separation_cap(self):
        with pytest.raises(ValueError):
            toeplitz_element(10001, CouplingRatio(1.0))

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_one_batch_per_call(self, monkeypatch, lam):
        # correlators takes every element it needs, m = G_0 included, from
        # one batch; magnetization is one batch too
        calls = []
        series = ising._series

        def counting_series(lo, hi, lam):
            calls.append((lo, hi))
            return series(lo, hi, lam)

        monkeypatch.setattr(ising, "_series", counting_series)
        params = CouplingRatio(lam)
        for r in (1, 10):
            calls.clear()
            correlators(r, params)
            assert len(calls) == 1, (r, calls)
        calls.clear()
        magnetization(params)
        assert len(calls) == 1, calls

    def test_array_argument(self):
        params = CouplingRatio(1.3)
        ks = np.array([[-4, 0], [2, 7]])
        g = toeplitz_element(ks, params)
        assert g.shape == ks.shape
        assert g[0, 1] == magnetization(params)
        assert isinstance(toeplitz_element(np.int64(3), params), float)
        assert toeplitz_element(np.array(2), params) == toeplitz_element(2, params)
        assert list(toeplitz_element(np.array([1, 2], dtype=np.int32), params)) == [
            toeplitz_element(1, params), toeplitz_element(2, params)]
        with pytest.raises(ValueError, match="1e4"):
            toeplitz_element(np.array([0, -10001]), params)

    @pytest.mark.parametrize("k", [2.0, np.array([1.0, 2.0]), True, np.True_,
                                   np.array([True, False])],
                             ids=["float", "float_array", "bool", "numpy_bool", "bool_array"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            toeplitz_element(k, CouplingRatio(0.5))


class TestBatchedQuadrature:
    """G_k as one batch, the way correlators uses them.

    The name is kept from the quadrature that the closed form replaced.
    """

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.98, 1.0, 1.02, 1.5, 3.0])
    def test_matches_recursive_oracle(self, lam):
        params = CouplingRatio(lam)
        batch = toeplitz_element(np.arange(-101, 102), params)
        for k in range(-101, 102):
            assert abs(batch[k + 101] - recursive_toeplitz(k, lam)) <= 1e-15, k
        assert abs(magnetization(params) - float(mpmath_toeplitz(0, lam))) <= 1e-15
        assert abs(ground_energy_density(params) - float(mpmath_energy(lam))) <= 1e-15

    @pytest.mark.parametrize("k", [-10**4, 10**4])
    def test_largest_separation_matches_oracle(self, k):
        assert abs(toeplitz_element(k, CouplingRatio(0.98))
                   - float(mpmath_toeplitz(k, 0.98))) <= 1e-15

    def test_separation_cap_checked_before_quadrature(self, monkeypatch):
        def no_elements(*args):
            raise AssertionError("G_k computed")

        monkeypatch.setattr(ising, "_series", no_elements)
        with pytest.raises(ValueError, match="1e4"):
            correlators(10**4 + 1, CouplingRatio(0.5))


class TestClosedForm:
    """G_k from the elliptic seeds and the three-term recurrence, against mpmath."""

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5, 0.98, 1.0, 1.02, 1.5, 3.0, 50.0,
                                     1 - 1e-8, 1 + 1e-8, 1 - 1e-9, 1 + 1e-9,
                                     1 - 1e-10, 1 + 1e-10])
    def test_matches_mpmath(self, lam):
        # the elements of one batch, as correlators(101, .) uses them, and
        # each element alone
        params = CouplingRatio(lam)
        batch = toeplitz_element(np.arange(-101, 102), params)
        for k in range(-101, 102):
            exact = mpmath_toeplitz(k, lam)
            assert abs(batch[k + 101] - exact) <= 3e-15, k
            assert abs(toeplitz_element(k, params) - exact) <= 3e-15, k
        assert abs(ground_energy_density(params) - mpmath_energy(lam)) <= 1e-15 * (1 + lam)

    @pytest.mark.parametrize("k,lam", [
        (k, lam) for lam in (1 - 1e-8, 1 + 1e-8, 1 - 1e-10, 1 + 1e-10, 0.9997, 1.001)
        for k in (-10**4, -5000, -1000, 1000, 5000, 10**4)])
    def test_large_separation_within_error_floor(self, k, lam):
        assert (abs(toeplitz_element(k, CouplingRatio(lam)) - mpmath_toeplitz(k, lam))
                <= ising.ERROR_FLOOR)

    def test_request_below_error_floor_raises(self):
        with pytest.raises(QuadratureError) as exc:
            ising.check_quad_tol(1e-30)
        assert str(exc.value) == ("quad_tol 1.000e-30 is below the error floor 1e-12 of the "
                                  "closed form (residual estimate 1.000e-12)")
        assert exc.value.residual == ising.ERROR_FLOOR
        with pytest.raises(QuadratureError):
            ising.check_quad_tol(ising.ERROR_FLOOR / 2)
        ising.check_quad_tol(ising.ERROR_FLOOR)

    def test_no_special_function_library_loaded(self):
        # scipy.special, scipy.integrate and mpmath would add to the import
        # time and memory of every run (test_no_scipy_on_any_cli_path checks
        # all of scipy on every CLI path)
        code = ("import sys, tfim_phases\n"
                "tfim_phases.correlators(10, tfim_phases.CouplingRatio(0.7))\n"
                "print([m for m in ('scipy.special', 'scipy.integrate', 'mpmath',"
                " 'scipy.sparse') if m in sys.modules])\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_no_scipy_on_any_cli_path(self):
        # importing scipy.linalg alone costs about 0.3 s of every run; the
        # package needs numpy only, from import through each CLI subcommand
        code = textwrap.dedent("""\
            import contextlib, io, sys
            def loaded(step):
                print(step, sorted(m for m in sys.modules
                                   if m == "scipy" or m.startswith("scipy.")))
            import tfim_phases, tfim_phases.cli
            loaded("import")
            tfim_phases.correlators(10, tfim_phases.CouplingRatio(0.7))
            loaded("correlators")
            tfim_phases.compute_phases(0.5, 1, 1.0, kinds=("interferometric", "uhlmann"))
            loaded("compute_phases")
            with contextlib.redirect_stdout(io.StringIO()):
                code = tfim_phases.cli.main(
                    ["oracle", "--lam", "1", "--n-sites", "8", "--r-max", "1"])
            assert code == 0
            loaded("oracle")
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            f"{step} []" for step in ("import", "correlators", "compute_phases", "oracle")]


class TestCorrelators:
    def test_xx_free_limit(self):
        assert correlators(1, CouplingRatio(0.0)).c_xx == pytest.approx(0.0, abs=1e-12)
        assert correlators(2, CouplingRatio(0.0)).c_xx == pytest.approx(0.0, abs=1e-12)

    def test_xx_critical_nearest_neighbor(self):
        # forced by the energy sum rule: 1 * c_xx(1) + 2/pi = 4/pi
        assert correlators(1, CouplingRatio(1.0)).c_xx == pytest.approx(2 / np.pi, abs=1e-9)

    def test_yy_free_limit(self):
        assert correlators(1, CouplingRatio(0.0)).c_yy == pytest.approx(0.0, abs=1e-12)
        assert correlators(2, CouplingRatio(0.0)).c_yy == pytest.approx(0.0, abs=1e-12)

    def test_yy_critical_nearest_neighbor(self):
        assert correlators(1, CouplingRatio(1.0)).c_yy == pytest.approx(-2 / (3 * np.pi), abs=1e-9)

    def test_zz_free_limit(self):
        assert correlators(1, CouplingRatio(0.0)).c_zz == pytest.approx(1.0, abs=1e-12)

    def test_zz_critical_nearest_neighbor(self):
        assert correlators(1, CouplingRatio(1.0)).c_zz == pytest.approx(
            16 / (3 * np.pi**2), abs=1e-9)

    def test_zz_long_distance_tail(self):
        params = CouplingRatio(0.5)
        m = magnetization(params)
        assert abs(correlators(50, params).c_zz - m * m) <= 1e-6

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_energy_sum_rule(self, lam):
        params = CouplingRatio(lam)
        lhs = lam * correlators(1, params).c_xx + magnetization(params)
        assert lhs == pytest.approx(ground_energy_density(params), abs=1e-8)

    @pytest.mark.parametrize("r", [50, 200, 1000])
    def test_critical_xx_matches_pfeuty(self, r):
        exact = pfeuty_xx(r)
        assert abs(correlators(r, CouplingRatio(1.0)).c_xx - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("r", [200, 1000])
    def test_critical_xx_asymptote(self, r):
        # e^(1/4) 2^(1/12) A^-3 r^(-1/4) (1 - 1/(64 r^2)), A Glaisher's
        # constant; without the 1/(64 r^2) term the gap is 3.9e-7 at r = 200
        with mpmath.workdps(30):
            exact = float(mpmath.exp(0.25) * mpmath.root(2, 12) / mpmath.glaisher**3
                          / mpmath.root(r, 4) * (1 - mpmath.mpf(1) / (64 * r**2)))
        assert abs(correlators(r, CouplingRatio(1.0)).c_xx - exact) <= 1e-11 * exact

    @pytest.mark.parametrize("r,lam", [(r, lam) for r in (1, 2, 7, 100)
                                       for lam in (0.0, 0.5, 1.0, 1.5, 3.0)])
    def test_toeplitz_layout_matches_scipy(self, r, lam):
        # c_xx = det[G_{j-i-1}], c_yy = det[G_{i-j+1}], built as scipy builds them
        params = CouplingRatio(lam)
        g = toeplitz_element(np.arange(-r, r + 1), params)
        c = correlators(r, params)
        assert c.c_xx == np.linalg.det(scipy.linalg.toeplitz(g[r - 1::-1], g[r - 1:2 * r - 1]))
        assert c.c_yy == np.linalg.det(scipy.linalg.toeplitz(g[r + 1:], g[r + 1:1:-1]))

    @pytest.mark.parametrize("field", ["m", "c_xx", "c_yy", "c_zz"])
    def test_nan_field_rejected(self, field):
        values = {"m": 0.3, "c_xx": 0.1, "c_yy": 0.0, "c_zz": 0.2, field: np.nan}
        with pytest.raises(ValueError, match=f"^{field} = nan outside"):
            Correlators(r=1, **values)

    def test_non_finite_element_rejected_by_its_field(self, monkeypatch):
        # at r = 2, G_{-1} (index 1 of k = -2 .. 2) enters c_xx alone
        series = ising._series

        def nan_g_minus_one(lo, hi, lam):
            g = series(lo, hi, lam)
            if (lo, hi) == (-2, 2):
                g[1] = np.nan
            return g

        monkeypatch.setattr(ising, "_series", nan_g_minus_one)
        with pytest.raises(ValueError, match="^c_xx = nan outside"):
            correlators(2, CouplingRatio(0.5))

    @pytest.mark.parametrize("lam", [1.5, 3.0])
    def test_ordered_xx_reaches_szego_limit(self, lam):
        # c_xx(r) -> (1 - lam^-2)^(1/4); the rest decays like lam^(-2r), far
        # below round-off at r = 300
        limit = (1 - lam**-2) ** 0.25
        assert abs(correlators(300, CouplingRatio(lam)).c_xx - limit) <= 1e-13 * limit

    def test_all_observables_bounded(self):
        for lam in np.linspace(0.0, 3.0, 13):
            c = correlators(1, CouplingRatio(float(lam)))
            for val in (c.m, c.c_xx, c.c_yy, c.c_zz):
                assert abs(val) <= 1 + 1e-9

    def test_invalid_separation(self):
        with pytest.raises(ValueError):
            correlators(0, CouplingRatio(1.0))

    @pytest.mark.parametrize("r", [1.5, 2.0, "2", None, True,
                                   pytest.param(np.True_, id="numpy_bool")])
    def test_non_integer_separation_rejected(self, r):
        with pytest.raises(ValueError, match="r must be an integer"):
            correlators(r, CouplingRatio(1.0))


# A stack's grid: unsorted and repeated r; lambda = 0, Miller's branch (0.3,
# 0.6), the outward branch near 1, lambda = 1 itself, and lambda > 1
STACK_R = (10, 1, 25, 3, 10)
STACK_LAMBDAS = (0.0, 0.3, 0.6, 0.8, 0.95, 1.0, 1.05, 1.4, 2.5, 50.0)


class TestCorrelatorStacks:
    def test_shape_rule(self):
        one, two = CouplingRatio(0.5), CouplingRatio(1.5)
        assert isinstance(correlators(3, one), Correlators)
        by_r = correlators([3, 1], one)
        assert type(by_r) is tuple and [c.r for c in by_r] == [3, 1]
        by_coupling = correlators(np.int64(3), [one, two])
        assert type(by_coupling) is tuple and [c.r for c in by_coupling] == [3, 3]
        table = correlators(np.array([3, 1]), (one, two))
        assert [[c.r for c in row] for row in table] == [[3, 1], [3, 1]]
        assert table[1] == correlators([3, 1], two)

    def test_each_coupling_equals_its_own_stack(self):
        # bitwise: the G_k batch and each determinant of a coupling do not
        # depend on the other couplings of the stack
        params = [CouplingRatio(lam) for lam in STACK_LAMBDAS]
        for row, p in zip(correlators(STACK_R, params), params):
            assert row == correlators(STACK_R, p)

    def test_stack_equals_single_point_calls(self):
        # a stack's G_k come from one batch up to max(r) = 25, a single point's
        # up to its own r; both are within ERROR_FLOOR of the exact G_k, and
        # on this grid they differ by at most 4.9e-16 in any correlator
        table = correlators(STACK_R, [CouplingRatio(lam) for lam in STACK_LAMBDAS])
        for lam, row in zip(STACK_LAMBDAS, table):
            for r, c in zip(STACK_R, row):
                alone = correlators(r, CouplingRatio(lam))
                assert c.r == alone.r == r
                for name in ("m", "c_xx", "c_yy", "c_zz"):
                    assert abs(getattr(c, name) - getattr(alone, name)) <= 1e-14

    def test_nan_entry_fails_the_whole_stack(self, monkeypatch):
        series = ising._series

        def nan_g0_at_half(lo, hi, lam):
            g = series(lo, hi, lam)
            if lam == 0.5:
                g[-lo] = np.nan
            return g

        monkeypatch.setattr(ising, "_series", nan_g0_at_half)
        with pytest.raises(ValueError, match="^m = nan outside"):
            correlators([1, 2], [CouplingRatio(0.25), CouplingRatio(0.5)])
        correlators([1, 2], CouplingRatio(0.25))

    @pytest.mark.parametrize("r,match", [
        ([1, 0], "r must be >= 1, got 0"),
        ((2, 1.0), "r must be an integer, got 1.0"),
        ([1, True], "r must be an integer, got True"),
        ([], "non-empty"),
    ])
    def test_bad_separation_in_a_sequence_rejected(self, r, match):
        with pytest.raises(ValueError, match=match):
            correlators(r, [CouplingRatio(1.0)])


class TestEdgeCouplings:
    """lambda = 0 (G_k = delta_k0) and lambda = 50 (the 1/lambda branch), each
    through a single-point call and as one coupling of a stack."""

    R = (1, 2, 3, 10, 25)

    def both_paths(self, lam):
        stacked = correlators(self.R, [CouplingRatio(0.7), CouplingRatio(lam)])[1]
        return [correlators(r, CouplingRatio(lam)) for r in self.R] + list(stacked)

    def test_product_state_at_zero_coupling(self):
        # the Toeplitz matrices of G_k = delta_k0 are nilpotent shifts
        for c in self.both_paths(0.0):
            assert (c.m, c.c_xx, c.c_yy, c.c_zz) == (1.0, 0.0, 0.0, 1.0)

    def test_large_coupling_limits(self):
        # m = (1 + 1/(8 lam^2)) / (2 lam) + O(lam^-5): 2 lam m - 1 is 5.0008e-5
        # here, within a factor 2 of the bound; c_xx(r) reaches the Szego limit
        # (1 - lam^-2)^(1/4) up to terms of order lam^(-2r) (measured 7.5e-9,
        # 1.3e-12 and 3e-16 at r = 1, 2, 3) and the LU round-off of an r x r
        # determinant (at most 1.5e-15 here)
        lam = 50.0
        limit = (1 - lam**-2) ** 0.25
        for c in self.both_paths(lam):
            assert abs(2 * lam * c.m - 1) <= 1 / (4 * lam**2)
            assert abs(c.c_xx - limit) <= lam ** (-2 * c.r) + 4 * c.r * np.finfo(float).eps


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
            assert abs(ed[r].c_xx - correlators(r, params).c_xx) < 2e-2
            assert abs(ed[r].c_yy - correlators(r, params).c_yy) < 2e-2

    def test_size_validation(self):
        with pytest.raises(ValueError):
            exact_diag_correlators(7, 1.0)
        with pytest.raises(ValueError):
            exact_diag_correlators(18, 1.0)
        with pytest.raises(ValueError):
            exact_diag_correlators(2, 1.0)

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    def test_coupling_validation(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            exact_diag_correlators(4, lam)

    def test_deterministic_across_calls(self):
        first = exact_diag_correlators(10, 1.5)
        exact_diag_correlators(8, 0.7)
        again = exact_diag_correlators(10, 1.5)
        for r, c in first.items():
            assert [c.m, c.c_xx, c.c_yy, c.c_zz] == [
                again[r].m, again[r].c_xx, again[r].c_yy, again[r].c_zz]

    # n = 8 at lam = 20 (gap 3.3e-10) and n = 10 at lam = 8 (gap 2.7e-9) are
    # quasi-degenerate: both solvers average over the two lowest states
    @pytest.mark.parametrize("n_sites,lam", [
        *((n, lam) for n in (4, 6, 8, 10) for lam in (0.0, 0.5, 1.0, 1.5, 3.0)),
        (8, 20.0), (10, 8.0)])
    def test_sparse_solver_matches_dense(self, n_sites, lam):
        reduced = exact_diag_correlators(n_sites, lam)
        dense = dense_exact_diag_correlators(n_sites, lam)
        assert reduced.keys() == dense.keys()
        for r, c in reduced.items():
            for q in ("m", "c_xx", "c_yy", "c_zz"):
                assert abs(getattr(c, q) - getattr(dense[r], q)) <= 1e-10, (r, q)

    @pytest.mark.parametrize("n_sites,lam", [(n, lam) for n in (4, 6, 8, 10)
                                             for lam in (0.0, 0.5, 1.0, 3.0)])
    def test_sector_ground_states_solve_dense_hamiltonian(self, n_sites, lam):
        h = dense_chain_hamiltonian(n_sites, lam)
        parity = np.array([bin(b).count("1") % 2 for b in range(1 << n_sites)])
        energies, vectors = ising._sector_ground_states(n_sites, lam)
        for p in (0, 1):
            psi, e = vectors[:, p], energies[p]
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            assert not psi[parity != p].any()
            assert np.linalg.norm(h @ psi - e * psi) <= 1e-10
            sector = np.flatnonzero(parity == p)
            lowest = np.linalg.eigvalsh(h[np.ix_(sector, sector)])[0]
            assert abs(e - lowest) <= 1e-10

    @pytest.mark.parametrize("n_sites,lam", [(8, 20.0), (10, 8.0)])
    def test_quasi_degenerate_cases_reach_two_state_average(self, n_sites, lam):
        w = np.linalg.eigvalsh(dense_chain_hamiltonian(n_sites, lam))
        assert w[1] - w[0] < ising._DEGENERACY_GAP < w[2] - w[0]

    # Every gap below was a sector gap of at least 1.8e-7, so each ED state is
    # the even sector's alone; the largest deviation was 3.4e-15 (n = 16).
    @pytest.mark.parametrize("n_sites,lam", [
        *((n, lam) for n in (4, 6, 8, 10, 12, 14) for lam in (0.0, 0.3, 0.5, 1.0, 1.5, 3.0)),
        (16, 1.0)])
    def test_matches_free_fermion_ring(self, n_sites, lam):
        reduced = exact_diag_correlators(n_sites, lam)
        exact = free_fermion_ring_correlators(n_sites, lam)
        assert reduced.keys() == exact.keys()
        for r, c in reduced.items():
            for q in ("m", "c_xx", "c_yy", "c_zz"):
                assert abs(getattr(c, q) - getattr(exact[r], q)) <= 1e-12, (r, q)

    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_free_fermion_ring_reaches_thermodynamic_limit(self, lam):
        # off criticality G_k^(N) approaches G_k exponentially in N; measured
        # 1.2e-16 (lam = 0.5) and 2.2e-16 (lam = 1.5) at N = 10^4
        ks = np.arange(-50, 51)
        assert np.abs(finite_ring_elements(10**4, lam, ks)
                      - toeplitz_element(ks, CouplingRatio(lam))).max() <= 1e-14

    @pytest.mark.parametrize("lam", [0.5, 1.5])
    def test_monotone_approach_up_to_sixteen_sites(self, lam):
        sizes = (12, 14, 16)
        thermo = {r: correlators(r, CouplingRatio(lam)) for r in (1, 2, 3)}
        eds = {n: exact_diag_correlators(n, lam) for n in sizes}
        for r in (1, 2, 3):
            for q in ("m", "c_xx", "c_yy", "c_zz"):
                gaps = [abs(getattr(eds[n][r], q) - getattr(thermo[r], q)) for n in sizes]
                assert all(a >= b - 1e-10 for a, b in zip(gaps, gaps[1:])), (r, q, gaps)
