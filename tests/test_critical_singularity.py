"""The logarithmic singularity at the critical coupling behind the paper's verdict.

At lam = 1, dm/dlam diverges like (1/pi) ln|lam - 1|.  So the central
difference D(h) = [f(1 + h) - f(1 - h)] / 2h of the magnetization grows by
-ln(10)/pi each time h drops by a decade, and each correlator's grows by a
fixed amount of its own.  The interferometric deviation delta_gamma is a
smooth function of (m, c_xx, c_yy, c_zz) at lam = 1 (the closed forms of
``oracles``), so by the chain rule its per-decade slope is the gradient of
that function dotted with the correlators' per-decade slopes.

Both tests take the decade from h = 1e-4 to 1e-5.  Round-off in D is about
1e-16 / h = 1e-11 there; what remains is the O(h ln^2 h) remainder of the
expansion, measured below.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from tfim_phases.ising import CouplingRatio, correlators, magnetization
from tfim_phases.phases import compute_phases, wrap_angle

from oracles import pair_amplitude, single_amplitude

H = 1e-4
FIELDS = ("m", "c_xx", "c_yy", "c_zz")


def per_decade_slope(f, h=H):
    """D(h / 10) - D(h): how much the central difference over 1 +- h grows
    as h drops by a decade."""
    def central(step):
        return (f(1 + step) - f(1 - step)) / (2 * step)

    return central(h / 10) - central(h)


def correlator_vector(lam, r):
    c = correlators(r, CouplingRatio(lam))
    return np.array([getattr(c, name) for name in FIELDS])


def closed_delta_gamma(x, theta):
    c = SimpleNamespace(**dict(zip(FIELDS, x)))
    return wrap_angle(np.angle(pair_amplitude(c, theta))
                      - 2 * np.angle(single_amplitude(c.m, theta)))


def test_magnetization_slope_is_minus_ln10_over_pi():
    # measured 5.5e-9 off at this decade and 4.1e-7 at the decade above
    # (the remainder falls about 75-fold per decade); the bound is ten times
    # the measurement
    slope = per_decade_slope(lambda lam: magnetization(CouplingRatio(lam)))
    assert abs(slope + np.log(10) / np.pi) <= 5e-8


@pytest.mark.parametrize("r", [1, 2, 5])
@pytest.mark.parametrize("theta", np.pi * np.array([1 / 12, 1 / 6, 1 / 4, 1 / 3, 5 / 12,
                                                    2 / 3, 3 / 4, 11 / 12]))
def test_delta_gamma_slope_follows_the_chain_rule(r, theta):
    # Over r in {1, 2, 3, 5, 10} and these theta the largest gap was 3.7e-5
    # at this decade (1.6e-3 at the decade above, a 40-fold fall); the bound
    # is ten times that.  The smallest |slope| was 0.19, so the gap is
    # resolved against a singularity that is there.
    direct = per_decade_slope(
        lambda lam: compute_phases(lam, r, theta, kinds=("interferometric",)).delta_gamma)
    x0 = correlator_vector(1.0, r)
    gradient = np.array([(closed_delta_gamma(x0 + e, theta) - closed_delta_gamma(x0 - e, theta))
                         / 2e-6 for e in np.eye(4) * 1e-6])
    chain = gradient @ per_decade_slope(lambda lam: correlator_vector(lam, r))
    assert abs(direct) >= 0.1
    assert abs(direct - chain) <= 4e-4
