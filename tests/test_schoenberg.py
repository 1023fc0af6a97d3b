"""Characteristic-function layer: invariants, pole guard, wire format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zlab.errors import InvalidSpec, NonFinite, PoleProximity
from zlab.schoenberg import (
    SchoenbergParams,
    eval_p,
    params_from_dict,
    params_from_json,
    params_to_dict,
    poles,
    validate,
)

P_MIXED = SchoenbergParams(omega=0.7, d=0.3, coeffs=(0.5, 1.25, 0.5), m=1)

small = st.floats(min_value=0.0, max_value=1.0)
coeff_lists = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4)


def test_value_at_zero_is_one_exactly():
    assert eval_p(P_MIXED, 0.0) == 1.0
    assert eval_p(SchoenbergParams(), 0.0) == 1.0


@given(st.floats(min_value=-1.0, max_value=1.0), small, small, coeff_lists)
@settings(max_examples=150, deadline=None)
def test_modulus_bounded_on_real_line(omega, d, extra, cs):
    params = SchoenbergParams(omega=omega, d=d, coeffs=tuple(cs) + (extra,))
    t = np.linspace(-40.0, 40.0, 501)
    assert np.abs(eval_p(params, t)).max() <= 1.0 + 1e-12


@given(st.floats(min_value=-1.0, max_value=1.0), small, coeff_lists)
@settings(max_examples=100, deadline=None)
def test_conjugate_symmetry(omega, d, cs):
    params = SchoenbergParams(omega=omega, d=d, coeffs=tuple(cs))
    t = np.array([0.37 + 0.11j, -2.0 + 0.4j, 5.0 - 0.2j, 0.01j])
    lhs = eval_p(params, -np.conj(t))
    rhs = np.conj(eval_p(params, t))
    scale = np.abs(rhs)
    assert np.max(np.abs(lhs - rhs) / scale) < 4 * np.finfo(float).eps


def test_multiplicative_under_concatenation():
    # exponents stay O(1) on |t| <= 1, so the two evaluation orders agree
    # to a few ulp
    p1 = SchoenbergParams(omega=0.3, d=0.1, coeffs=(0.5,))
    p2 = SchoenbergParams(omega=0.4, d=0.2, coeffs=(1.25, 0.5), m=1)
    p12 = SchoenbergParams(omega=p1.omega + p2.omega, d=p1.d + p2.d,
                           coeffs=p1.coeffs + p2.coeffs, m=1)
    t = np.linspace(-1.0, 1.0, 211)
    lhs = eval_p(p12, t)
    rhs = eval_p(p1, t) * eval_p(p2, t)
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 2e-15


def test_gaussian_factor_closed_form():
    params = SchoenbergParams(omega=1.0, d=0.25)
    t = 1.7
    ref = complex(np.exp(1j * 1.0 * t - 0.25 * t * t))
    assert abs(eval_p(params, t) - ref) < 1e-15


def test_poles_skip_zero_coefficients():
    params = SchoenbergParams(omega=0.0, d=0.1, coeffs=(2.0, 0.0, 0.5))
    ps = poles(params)
    assert ps == [0.5j, 2.0j]


def test_pole_proximity_guard():
    params = SchoenbergParams(omega=1.0, coeffs=(2.0,))
    with pytest.raises(PoleProximity) as exc:
        eval_p(params, 0.5j)
    assert exc.value.pole == 0.5j
    with pytest.raises(PoleProximity):
        eval_p(params, np.array([1.0, 0.5j + 1e-12]))
    # just outside the guard radius evaluates finitely
    assert np.isfinite(eval_p(params, 0.5j + 1e-6))


def test_overflow_guard_complex_argument():
    params = SchoenbergParams(omega=0.0, d=1.0)
    with pytest.raises(NonFinite):
        eval_p(params, 60.0j)


def test_validation_flags():
    ok = validate(SchoenbergParams(omega=0.5, d=0.0, coeffs=(0.1,)))
    assert ok.admissible
    not_finite = validate(SchoenbergParams(omega=-1.0, d=0.0, coeffs=(0.5,)))
    assert not not_finite.rho_finite and not_finite.rho_nonnegative
    not_nonneg = validate(SchoenbergParams(omega=2.0, coeffs=(-0.3,)))
    assert not_nonneg.rho_finite and not not_nonneg.rho_nonnegative
    assert not not_nonneg.admissible


def test_invalid_construction():
    with pytest.raises(InvalidSpec):
        SchoenbergParams(omega=math.nan)
    with pytest.raises(InvalidSpec):
        SchoenbergParams(d=-0.1)
    with pytest.raises(InvalidSpec):
        SchoenbergParams(coeffs=(math.inf,))
    with pytest.raises(InvalidSpec):
        SchoenbergParams(m=-1)
    with pytest.raises(InvalidSpec):
        SchoenbergParams(m=1.5)  # type: ignore[arg-type]


def test_json_round_trip_exact():
    assert params_from_json(json.dumps(params_to_dict(P_MIXED))) == P_MIXED
    # floats survive the wire exactly
    tricky = SchoenbergParams(omega=0.1, d=1e-17, coeffs=(1 / 3,))
    assert params_from_json(json.dumps(params_to_dict(tricky))) == tricky


def test_json_rejects_malformed():
    with pytest.raises(InvalidSpec):
        params_from_json("{not json")
    with pytest.raises(InvalidSpec):
        params_from_dict({"omega": 0.0, "bogus": 1})
    with pytest.raises(InvalidSpec):
        params_from_dict({"coeffs": "nope"})
    with pytest.raises(InvalidSpec):
        params_from_dict({"m": True})
    with pytest.raises(InvalidSpec):
        params_from_dict({"m": 2.0})
