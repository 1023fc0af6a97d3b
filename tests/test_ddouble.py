"""Double-double arithmetic: error-free transforms, kernels, reductions.

Reference pairs below are frozen from an offline 60-digit computation:
hi is the nearest float, lo the nearest float to the remainder.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zlab.numerics import ddouble as dd
from zlab.numerics.ddouble import DD, DDComplex

E1 = (2.718281828459045, 1.4456468917292502e-16)
EXP_M50 = (1.9287498479639178e-22, -3.7546101071240096e-39)
EXP_0P5 = (1.6487212707001282, -4.731568479435833e-17)
SIN1 = (0.8414709848078965, 1.776845092935536e-18)
COS1 = (0.5403023058681398, -4.760954612604417e-17)
SINM3 = (-0.1411200080598672, -8.577269787017502e-18)
LOG10 = (2.302585092994046, -2.1707562233822494e-16)

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e150, max_value=1e150)


def dd_rel(a: DD, ref: tuple) -> float:
    err = (a - DD(*ref)).to_float()
    return abs(err) / abs(ref[0])


# ---------- error-free transforms ----------


@given(finite, finite)
def test_two_sum_is_exact(a, b):
    s, e = dd.two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)
    assert s == a + b


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e130, max_value=1e130),
       st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e130, max_value=1e130))
def test_two_prod_is_exact(a, b):
    p, e = dd.two_prod(a, b)
    if math.isfinite(p) and p != 0.0 and abs(e) > 5e-324 * 2**60:
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(finite, finite, finite)
def test_add_associativity_error_bounded(a, b, c):
    # dd addition is not exact, but stays within 4 ulp of the exact sum
    x = (DD(a, 0.0) + b) + c
    exact = Fraction(a) + Fraction(b) + Fraction(c)
    got = Fraction(x.hi) + Fraction(x.lo)
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    assert abs(float(got - exact)) <= 4 * 2**-104 * scale


def test_div_mul_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = DD.from_product(rng.normal(), rng.normal())
        b = DD.from_product(rng.normal(), rng.normal())
        if abs(b.hi) < 1e-3:
            continue
        q = a / b
        back = q * b - a
        assert abs(back.to_float()) <= 1e-30 * abs(a.hi)


# ---------- kernels against frozen references ----------


def test_exp_frozen_points():
    assert dd_rel(dd.exp(DD(1.0, 0.0)), E1) < 5e-32
    assert dd_rel(dd.exp(DD(0.5, 0.0)), EXP_0P5) < 5e-32
    assert dd_rel(dd.exp(DD(-50.0, 0.0)), EXP_M50) < 5e-32


def test_exp_saturation():
    assert dd.exp(DD(800.0, 0.0)).hi == math.inf
    assert dd.exp(DD(-800.0, 0.0)).hi == 0.0


def test_exp_functional_equation():
    xs = np.linspace(-60.0, 4.0, 257)
    a = dd.exp(DD(xs, np.zeros_like(xs)))
    b = dd.exp(DD(-xs, np.zeros_like(xs)))
    resid = a * b - 1.0
    assert np.max(np.abs(resid.hi)) < 1e-31


def test_sincos_frozen_points():
    s, c = dd.sincos(DD(1.0, 0.0))
    assert dd_rel(s, SIN1) < 5e-32
    assert dd_rel(c, COS1) < 5e-32
    assert abs((dd.sin(DD(-3.0, 0.0)) - DD(*SINM3)).to_float()) < 1e-33


def test_sincos_pythagoras_vector():
    xs = np.linspace(-30.0, 30.0, 1001)
    s, c = dd.sincos(DD(xs, np.zeros_like(xs)))
    resid = s.sqr() + c.sqr() - 1.0
    assert np.max(np.abs(resid.hi)) < 5e-32


def test_cos_equals_sincos_bit_for_bit():
    # one Taylor chain per lane gives the cos column of sincos exactly, in
    # every quadrant, far out and with a nonzero low word
    q = math.pi / 2.0
    points = [0.0, 0.3, -0.3, q + 0.2, 2 * q - 0.1, 2 * q + 0.4, -3 * q - 0.2,
              7 * q, 1e6, -1e6, 123456.789]
    for x in points:
        for lo in (0.0, 1e-17 * max(1.0, abs(x)), -3e-20):
            a = DD(x, lo)
            c, ref = dd.cos(a), dd.sincos(a)[1]
            assert type(c.hi) is float and type(c.lo) is float
            assert (c.hi, c.lo) == (ref.hi, ref.lo), (x, lo)
    rng = np.random.default_rng(11)
    for shape in [(1000,), (37, 53), (1,), (0,)]:
        hi = rng.uniform(-1e6, 1e6, shape) * 10.0 ** rng.integers(-6, 1, shape)
        a = DD(hi, 1e-17 * hi * rng.standard_normal(shape))
        c, ref = dd.cos(a), dd.sincos(a)[1]
        assert c.hi.shape == shape
        assert np.array_equal(c.hi, ref.hi) and np.array_equal(c.lo, ref.lo)
        if hi.size > 100:
            assert set(np.mod(np.rint(hi / q), 4).ravel()) == {0, 1, 2, 3}


def test_log_and_sqrt():
    # log is Newton on exp; a few dd-ulp is all the envelope probing needs
    assert dd_rel(dd.log(DD(10.0, 0.0)), LOG10) < 3e-31
    r = dd.sqrt(DD(2.0, 0.0))
    assert abs((r - dd.SQRT2).to_float()) < 5e-32
    assert abs((r.sqr() - 2.0).to_float()) < 1e-31


def test_constants_consistent():
    # pi/2 + pi/2 = pi, 2*pi etc, and ln2 matches exp inverse
    assert ((dd.HALF_PI + dd.HALF_PI) - dd.PI).to_float() == 0.0
    assert ((dd.PI + dd.PI) - dd.TWO_PI).to_float() == 0.0
    assert abs((dd.exp(dd.LN2) - 2.0).to_float()) < 1e-32
    # Gamma(1/4) Gamma(3/4) = pi * sqrt(2)
    lhs = dd.GAMMA_1_4 * dd.GAMMA_3_4
    rhs = dd.PI * dd.SQRT2
    assert abs((lhs - rhs).to_float()) / rhs.hi < 1e-31


def test_powi():
    x = DD(1.1, 0.0)  # the float 1.1, not the decimal
    p = dd.powi(x, 30)
    q = DD(1.0, 0.0)
    for _ in range(30):
        q = q * x
    assert abs((p - q).to_float()) / q.hi < 1e-30
    assert dd.powi(x, 0).hi == 1.0
    inv = dd.powi(x, -3) * dd.powi(x, 3) - 1.0
    assert abs(inv.to_float()) < 1e-31


def test_reduce_sum_deterministic_and_compensated():
    rng = np.random.default_rng(11)
    xs = rng.normal(size=1537) * 10.0**rng.integers(-8, 8, size=1537)
    s1 = dd.reduce_sum(dd.from_array(xs))
    s2 = dd.reduce_sum(dd.from_array(xs))
    assert s1.hi == s2.hi and s1.lo == s2.lo
    exact = sum(Fraction(float(x)) for x in xs)
    got = Fraction(s1.hi) + Fraction(s1.lo)
    assert abs(float(got - exact)) <= 1e-25 * float(np.abs(xs).max())
    # an array folds along its last axis, each row exactly as on its own
    rows = xs[:1533].reshape(3, 511)
    folded = dd.reduce_sum(dd.from_array(rows))
    for i, row in enumerate(rows):
        alone = dd.reduce_sum(dd.from_array(row))
        assert (folded.hi[i], folded.lo[i]) == (alone.hi, alone.lo)


def test_scale2_exact():
    x = DD(1.2345678901234567, 1e-17)
    y = x.scale2(0.25)
    assert y.hi == x.hi * 0.25 and y.lo == x.lo * 0.25


def test_comparisons_and_abs():
    assert DD(1.0, -1e-20) < DD(1.0, 0.0)
    assert DD(2.0, 0.0) > 1.5
    assert abs(DD(-3.0, 1e-17)).hi == 3.0


def test_ddcomplex_roundtrip_and_cexp():
    z = DDComplex(DD(0.3, 0.0), DD(-0.7, 0.0))
    w = dd.cexp(z)
    ref = complex(math.e**0.3 * math.cos(-0.7), math.e**0.3 * math.sin(-0.7))
    assert abs(complex(float(w.re), float(w.im)) - ref) < 1e-15
    # |e^{i theta}| = 1 in dd
    u = dd.exp_i(DD(2.3, 0.0))
    assert abs((u.re.sqr() + u.im.sqr() - 1.0).to_float()) < 1e-31


def test_where_vector_select():
    xs = np.array([1.0, 2.0, 3.0])
    a = DD(xs, np.zeros_like(xs))
    b = DD(-xs, np.zeros_like(xs))
    out = dd.where(xs > 1.5, a, b)
    assert out.hi.tolist() == [-1.0, 2.0, 3.0]
