"""Adaptive Gauss-Legendre: exactness, oscillatory handling, escalation."""

import math
import time

import numpy as np
import pytest

from zlab.errors import InvalidSpec, NonConvergence, NonFinite
from zlab.numerics.quadrature import (
    EXTENDED,
    NATIVE,
    PrecisionConfig,
    QuadratureConfig,
    gauss_nodes,
    gauss_nodes_dd,
    integrate_adaptive,
)

GAMMA_5_4 = 0.906402477055477
# int e^{i 10 u - u^2} du = sqrt(pi) e^{-25}, frozen offline
OSC_GAUSS_Z10 = (2.4615739584615114e-11, 6.184741579834151e-28)


def test_config_validation():
    with pytest.raises(InvalidSpec):
        QuadratureConfig(abs_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            QuadratureConfig(abs_tol=bad)
        with pytest.raises(InvalidSpec):
            QuadratureConfig(rel_tol=bad)
    with pytest.raises(InvalidSpec):
        PrecisionConfig(mode="quadruple")
    with pytest.raises(InvalidSpec):
        PrecisionConfig(escalate_threshold=2.0)


def test_polynomial_near_exact():
    res = integrate_adaptive(lambda x: x**20, 0.0, 1.0)
    ref = 1.0 / 21.0
    assert abs(res.real - ref) <= 10 * np.spacing(ref)


def test_gauss_nodes_basic():
    x, w = gauss_nodes(16)
    assert abs(w.sum() - 2.0) < 1e-14
    assert np.allclose(x, -x[::-1])


def test_gauss_nodes_dd_weight_sum():
    x, w = gauss_nodes_dd(16)
    total = w.hi.sum() + w.lo.sum()
    assert abs(total - 2.0) < 1e-31
    # dd rule integrates x^30 on [-1,1] to dd accuracy
    acc = 0.0
    for i in range(16):
        acc += w.hi[i] * x.hi[i] ** 30
    assert abs(acc - 2.0 / 31.0) < 1e-15  # native check of the same nodes


def test_oscillatory_cancellation():
    res = integrate_adaptive(lambda x: np.cos(7.0 * x), 0.0, 2.0 * math.pi,
                             max_panel_width=math.pi / 14.0)
    assert abs(res.real) < 1e-13
    res2 = integrate_adaptive(np.sin, 0.0, math.pi)
    assert abs(res2.real - 2.0) < 1e-13


def test_quartic_tail_oracle():
    res = integrate_adaptive(lambda u: np.exp(-(u**4)), 0.0, 6.0)
    assert abs(res.real - GAMMA_5_4) < 1e-12
    assert res.error < 1e-10


def test_determinism_bit_identical():
    f = lambda u: np.exp(-(u * u)) * np.cos(3.0 * u)
    r1 = integrate_adaptive(f, -8.0, 8.0)
    r2 = integrate_adaptive(f, -8.0, 8.0)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations
    assert r1.panels == r2.panels


def test_results_pinned_bit_for_bit():
    # every bit of every field is frozen: the panel bookkeeping may change
    # shape, never the arithmetic.  The jump refines by tolerance share
    # until its panel hits the depth cap, then once by the first-max
    # fallback, in both modes; its complex values also pin the native
    # panel error to the scalar complex abs
    from zlab.numerics import ddouble as dd

    jump = lambda u: ((np.sign(u - 0.3) + 1.0 / (1.0 + 400.0 * u * u))
                      * np.exp(1j * u))
    osc = lambda u: np.exp(-u * u) * np.cos(12.0 * u)
    osc_dd = lambda u: dd.exp(-u.sqr()) * dd.cos(u * 12.0)
    qc = QuadratureConfig(abs_tol=3.7e-7, rel_tol=1e-300)
    runs = {
        "native": integrate_adaptive(jump, -1.0, 1.0, qc),
        "extended": integrate_adaptive(jump, -1.0, 1.0, qc, EXTENDED),
        # |I| / int|f| ~ 4e-16 escalates to a dd rerun
        "escalated": integrate_adaptive(osc, -8.0, 8.0, f_dd=osc_dd),
    }
    got = {}
    for name, r in runs.items():
        vd = r.value_dd and (r.value_dd.re.hi, r.value_dd.re.lo,
                             r.value_dd.im.hi, r.value_dd.im.lo)
        got[name] = repr((r.value, r.error, r.abs_integral, r.evaluations,
                          r.panels, r.escalated, vd))
    assert got == {
        "native": "((-0.44119800580498963+0.8300686486609529j), "
                  "3.333040164259012e-07, 1.8594352608651787, 1440, 17, "
                  "False, None)",
        "extended": "((-0.44119800580498975+0.830068648660953j), "
                    "3.3330401609513234e-07, 1.859435260865179, 1440, 17, "
                    "False, (-0.44119800580498975, 8.68271724127924e-18, "
                    "0.830068648660953, 1.999850653063824e-17))",
        "escalated": "((4.111247172728593e-16+0j), 8.029060272781008e-19, "
                     "1.1290518563976044, 960, 12, True, "
                     "(4.111247172728593e-16, -3.75556339155511e-33, 0.0, 0.0))",
    }


def test_reversed_limits_negate():
    f = lambda u: u * u
    a = integrate_adaptive(f, 0.0, 2.0).real
    b = integrate_adaptive(f, 2.0, 0.0).real
    assert a == -b


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFinite):
        integrate_adaptive(lambda u: np.full_like(u, np.inf), 0.0, 1.0)


def test_cancellation_escalates_native():
    # e^{i z u - u^2} at z = 10: result ~ 2.5e-11 from O(1) integrand.
    # Without a dd integrand the escalated rerun only removes accumulation
    # error; per-evaluation float noise (~1e-16 absolute) remains.
    f = lambda u: np.exp(1j * 10.0 * u - u * u)
    res = integrate_adaptive(f, -8.0, 8.0, max_panel_width=math.pi / 20.0)
    assert res.escalated
    assert res.cancellation_ratio < 1e-8
    ref = OSC_GAUSS_Z10[0]
    assert abs(res.value.real - ref) / ref < 1e-4
    assert abs(res.value.imag) < 1e-14


def test_extended_mode_with_dd_integrand():
    from zlab.numerics import ddouble as dd

    f = lambda u: np.exp(1j * 10.0 * u - u * u)

    def f_dd(u):
        w = dd.exp(-u.sqr())
        ph = dd.exp_i(u * 10.0)
        return ph * dd.DDComplex(w, dd.DD(np.zeros_like(u.hi), np.zeros_like(u.hi)))

    res = integrate_adaptive(f, -8.0, 8.0, pc=EXTENDED, f_dd=f_dd,
                             max_panel_width=math.pi / 20.0)
    got = res.value_dd.re
    err = abs((got - dd.DD(*OSC_GAUSS_Z10)).to_float())
    assert err / OSC_GAUSS_Z10[0] < 1e-13
    assert res.mode == "extended"


def test_depth_cap_error_past_tolerance_raises_at_once():
    # once the panel holding the jump reaches the depth cap, its error
    # alone passes the tolerance: the run stops there, not after halving
    # every other panel first
    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="depth cap"):
        integrate_adaptive(lambda u: np.sign(u - 0.3), -1.0, 1.0,
                           QuadratureConfig(abs_tol=3e-7, rel_tol=1e-300))
    assert time.perf_counter() - t0 < 1.0


def test_panel_budget_exhaustion_raises():
    # a jump never meets the tolerance, so the panels halve to the depth cap
    qc = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(NonConvergence):
        integrate_adaptive(lambda u: np.sign(u - 0.3), -1.0, 1.0, qc=qc)
