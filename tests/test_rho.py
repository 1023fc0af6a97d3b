"""Induced measure: density identity, mass and moment oracles.

Frozen dd pairs come from an offline 60-digit computation.
"""

import math

import numpy as np
import pytest

from zlab.errors import InvalidSpec
from zlab.numerics import ddouble as dd
from zlab.numerics.quadrature import EXTENDED
from zlab.rho import (
    RhoSpec,
    density,
    density_dd,
    gue_spec,
    log_density,
    moments,
    support_radius,
    total_mass,
)
from zlab.schoenberg import SchoenbergParams, eval_p

GUE_MASS = (2.155800549540928, -9.004735373044562e-17)
GUE_M2 = (1.0304485122949956, 1.615317017434974e-17)
GUE_M4 = (1.077900274770464, -4.502367686522281e-17)
SQRT_PI = (1.772453850905516, -7.666586499825799e-17)

P_MIXED = SchoenbergParams(omega=0.7, d=0.3, coeffs=(0.5, 1.25, 0.5), m=1)


def test_spec_rejects_inadmissible():
    with pytest.raises(InvalidSpec):
        RhoSpec(SchoenbergParams(omega=-1.0, d=0.0, coeffs=(0.5,)))
    with pytest.raises(InvalidSpec):
        RhoSpec(SchoenbergParams(omega=2.0, coeffs=(-0.3,)))
    RhoSpec(SchoenbergParams(omega=0.0, d=0.5))  # fine: quartic confinement


def test_density_characteristic_identity():
    # rho(u) * p(-i u^2) = u^{2m} pointwise, an exact algebraic identity
    spec = RhoSpec(P_MIXED)
    u = np.linspace(0.1, 3.0, 57)
    lhs = density(spec, u) * np.real(eval_p(P_MIXED, -1j * u * u))
    ref = u ** (2 * P_MIXED.m)
    assert np.max(np.abs(lhs - ref) / ref) < 1e-13


def test_density_even_and_nonnegative():
    spec = RhoSpec(P_MIXED)
    g = np.linspace(0.01, 4.0, 100)
    u = np.concatenate([-g[::-1], g])  # exactly mirrored grid
    v = density(spec, u)
    assert np.all(v >= 0.0)
    assert np.array_equal(v, v[::-1])  # bitwise even: function of u^2
    assert density(spec, 0.0) == 0.0  # m = 1 zeroes the origin


def test_density_underflow_graceful():
    spec = RhoSpec(SchoenbergParams(omega=1.0))
    assert density(spec, 40.0) == 0.0


def test_density_dd_matches_native():
    spec = RhoSpec(P_MIXED)
    u = np.linspace(0.2, 3.0, 29)
    nat = density(spec, u)
    ext = density_dd(spec, dd.from_array(u))
    assert np.max(np.abs(ext.hi - nat) / nat) < 1e-13


def test_log_density_matches_log_of_density():
    spec = RhoSpec(P_MIXED)
    for u in (0.3, 1.0, 2.5):
        assert abs(log_density(spec, u) - math.log(density(spec, u))) < 1e-12
    assert log_density(spec, 0.0) == -math.inf


def test_gaussian_mass_sqrt_pi():
    spec = RhoSpec(SchoenbergParams(omega=1.0))
    res = total_mass(spec)
    assert abs(res.real - SQRT_PI[0]) < 1e-13


def test_gue_mass_native_and_extended():
    spec = gue_spec()
    res = total_mass(spec)
    assert abs(res.real - GUE_MASS[0]) / GUE_MASS[0] < 1e-12
    res_dd = total_mass(spec, pc=EXTENDED)
    err = abs((res_dd.value_dd.re - dd.DD(*GUE_MASS)).to_float())
    assert err / GUE_MASS[0] < 1e-24


def test_gue_even_moment_ladder():
    spec = gue_spec()
    mo = moments(spec, 4, pc=EXTENDED)
    assert mo.values[1] == 0.0 and mo.values[3] == 0.0
    for k, ref in ((0, GUE_MASS), (2, GUE_M2), (4, GUE_M4)):
        err = abs((mo.values_dd[k] - dd.DD(*ref)).to_float())
        assert err / ref[0] < 1e-24, k


def test_weighted_moments_gaussian_closed_form():
    # e^{-b u^2} e^{-u^2}: m_0 = sqrt(pi/(1+b)), m_2 = m_0 / (2 (1+b))
    spec = RhoSpec(SchoenbergParams(omega=1.0))
    mo = moments(spec, 2, b=0.5)
    s = 1.5
    assert abs(mo[0] - math.sqrt(math.pi / s)) < 1e-12
    assert abs(mo[2] - math.sqrt(math.pi / s) / (2 * s)) < 1e-12


def test_moment_validation():
    spec = gue_spec()
    with pytest.raises(InvalidSpec):
        moments(spec, -1)
    with pytest.raises(InvalidSpec):
        moments(spec, 2, b=-1.0)


def test_support_radius_envelope():
    spec = RhoSpec(SchoenbergParams(omega=1.0))
    r = support_radius(spec)
    # density * length factor is below the default floor at the radius
    assert log_density(spec, r) < -160.0
    assert density(spec, r) * r < 1e-69
    # a linear growth term pushes the radius outward
    assert support_radius(spec, extra_linear=5.0) > r
