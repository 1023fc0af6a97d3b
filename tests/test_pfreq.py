"""Density inversion and translation-kernel minor checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zlab.errors import (
    InvalidSpec,
    NonIntegrableTransform,
    NonSmoothPoint,
)
from zlab.numerics import ddouble as dd
from zlab.numerics.quadrature import QuadratureConfig, integrate_adaptive
from zlab.pfreq import (
    CallableDensity,
    SchoenbergDensity,
    TabulatedDensity,
    _eval_terms,
    _MAX_MINORS,
    _hypoexp_terms,
    check_derivative_minors,
    check_pf_minors,
    det_dd,
)
from zlab.schoenberg import SchoenbergParams


def phi(a):
    return np.exp(-np.asarray(a, float) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)


# ---------- closed form (d = 0) ----------


def test_two_equal_scales_closed_form():
    # scales (1,1): f(a) = (2-a) e^{a-2} on a <= 2
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, coeffs=(1.0, 1.0)))
    a = np.linspace(-6.0, 1.9, 40)
    ref = (2.0 - a) * np.exp(a - 2.0)
    assert np.max(np.abs(src.eval(a) - ref)) < 1e-15
    assert src.eval(2.0) == 0.0
    assert src.eval(2.5) == 0.0  # beyond the support edge


def test_distinct_scales_match_direct_convolution():
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, coeffs=(1.0, 2.0)))

    def g(x, dj):  # density of d_j - Y_j
        x = np.asarray(x, float)
        return np.where(x <= dj, np.exp((x - dj) / dj) / dj, 0.0)

    a = 0.7
    # integrand breaks at x = 1 and x = a - 2; integrate piecewise
    brk = sorted([-40.0, a - 2.0, 1.0, 40.0])
    conv = sum(
        integrate_adaptive(lambda x: g(x, 1.0) * g(a - x, 2.0), lo, hi,
                           qc=QuadratureConfig(abs_tol=1e-14)).real
        for lo, hi in zip(brk[:-1], brk[1:])
    )
    assert abs(src.eval(a) - conv) < 1e-13


scale_sets = st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]),
                      min_size=1, max_size=4)


@given(scale_sets)
@settings(max_examples=60, deadline=None)
def test_hypoexp_terms_mass_and_mean(scales):
    # int_0^inf c s^p e^{-mu s} ds = c p! / mu^{p+1}; the term list must
    # carry total mass 1 and mean sum(scales)
    terms = _hypoexp_terms(tuple(scales))
    mass = sum(c * math.factorial(p) / mu ** (p + 1) for c, p, mu in terms)
    mean = sum(c * math.factorial(p + 1) / mu ** (p + 2) for c, p, mu in terms)
    assert abs(mass - 1.0) < 1e-9
    assert abs(mean - sum(scales)) < 1e-8 * max(1.0, sum(scales))


def test_repeated_and_distinct_scales_normalization():
    src = SchoenbergDensity(SchoenbergParams(omega=0.5, coeffs=(1.0, 1.0, 2.0)))
    qc = QuadratureConfig(abs_tol=1e-13)
    mass = integrate_adaptive(lambda x: src.eval(x), -60.0, 4.5, qc=qc).real
    mean = integrate_adaptive(lambda x: x * src.eval(x), -60.0, 4.5, qc=qc).real
    assert abs(mass - 1.0) < 1e-8
    assert abs(mean - 0.5) < 1e-7


def test_termwise_derivative():
    # d/da [(2-a) e^{a-2}] = (1-a) e^{a-2}
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, coeffs=(1.0, 1.0)))
    a = np.array([-1.0, 0.3, 1.7])
    ref = (1.0 - a) * np.exp(a - 2.0)
    assert np.max(np.abs(src.eval(a, order=1) - ref)) < 1e-15


def test_mirrored_negative_scales():
    # coeffs (-1,-1): reflection of the (1,1) law, support [-2, inf)
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, coeffs=(-1.0, -1.0)))
    a = np.linspace(-1.9, 6.0, 30)
    ref = (2.0 + a) * np.exp(-a - 2.0)
    assert np.max(np.abs(src.eval(a) - ref) / ref) < 1e-14
    lo, hi = src.suggest_window()
    assert lo == -2.0


def test_point_mass_and_mixed_signs_rejected():
    with pytest.raises(NonIntegrableTransform):
        SchoenbergDensity(SchoenbergParams(omega=1.0))
    with pytest.raises(InvalidSpec):
        SchoenbergDensity(SchoenbergParams(omega=0.0, coeffs=(1.0, -1.0)))


# ---------- quadrature route (d > 0) ----------


def test_pure_gaussian_factor_gives_normal_density():
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, d=0.5))
    a = np.array([0.0, 0.35, 1.0, 2.5])
    assert np.max(np.abs(src.eval(a) - phi(a))) < 1e-14


def test_spectral_derivatives_exact():
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, d=0.5))
    a = 0.7
    assert abs(src.eval(a, order=1) - (-a) * phi(a)) < 1e-14
    assert abs(src.eval(a, order=2) - (a * a - 1.0) * phi(a)) < 1e-14


def test_quadrature_route_mean_is_omega():
    src = SchoenbergDensity(SchoenbergParams(omega=0.8, d=0.4, coeffs=(0.5,)))
    qc = QuadratureConfig(abs_tol=1e-13)
    f = lambda x: np.array([src.eval(v) for v in np.atleast_1d(x)])
    mass = integrate_adaptive(f, -9.0, 9.0, qc=qc).real
    mean = integrate_adaptive(lambda x: x * f(x), -9.0, 9.0, qc=qc).real
    assert abs(mass - 1.0) < 1e-8
    assert abs(mean - 0.8) < 1e-7


# ---------- minors ----------


def test_det_dd_pivoting_and_oracle():
    # a row swap (det -1) beside two singular lanes: a zero first column,
    # and a zero pivot that appears only after a swap and one elimination
    stack = np.array([[[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                      [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],
                      [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 0.0]]])
    det = det_dd(dd.from_array(stack))
    assert det.to_float().tolist() == [-1.0, 0.0, 0.0]
    assert (det.hi[1:] == 0.0).all() and (np.signbit(det.hi[1:]) == 0).all()
    # every lane equals its matrix factored alone: no lane leaks into another
    for k in range(3):
        alone = det_dd(dd.from_array(stack[k:k + 1]))
        assert (alone.hi[0], alone.lo[0]) == (det.hi[k], det.lo[k])
    # order-2 translation minor of the normal density on x = y = (0, 1):
    # phi(0)^2 - phi(1)^2 = (1 - e^{-1}) / (2 pi)
    M = np.array([[[phi(0.0), phi(-1.0)], [phi(1.0), phi(0.0)]]])
    ref = (1.0 - math.exp(-1.0)) / (2.0 * math.pi)
    assert abs(det_dd(dd.from_array(M)).to_float()[0] - ref) < 1e-16


def test_normal_density_minors_pass():
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, d=0.5))
    rep2 = check_pf_minors(src, order=2, window=(-2.0, 2.0), grid_size=8)
    assert rep2.passed and rep2.minors_checked == math.comb(8, 2) ** 2
    assert rep2.min_minor_normalized > 0.0
    rep3 = check_pf_minors(src, order=3, window=(-2.0, 2.0), grid_size=7)
    assert rep3.passed


def test_bimodal_mixture_violates_order_two():
    bim = CallableDensity(lambda a: 0.5 * (phi(a - 3.0) + phi(a + 3.0)),
                          window=(-4.0, 4.0))
    rep = check_pf_minors(bim, order=2, grid_size=12)
    assert not rep.passed
    assert rep.min_minor_normalized < -0.5
    assert rep.violations > 0
    # the violating pair straddles the two modes
    assert rep.argmin_x[1] - rep.argmin_x[0] > 1.0


def test_derivative_minor_oracle():
    # collocated order-2 minor at x = (0, 1), y = 0 for the normal density:
    # phi(0) phi(1) = e^{-1/2} / (2 pi)
    src = SchoenbergDensity(SchoenbergParams(omega=0.0, d=0.5))
    rep = check_derivative_minors(src, (0.0, 1.0), order=2)
    ref = math.exp(-0.5) / (2.0 * math.pi)
    assert rep.passed and rep.method == "exact"
    assert abs(rep.min_minor - ref) < 1e-12


def test_kink_raises_non_smooth():
    lap = CallableDensity(lambda a: 0.5 * np.exp(-np.abs(a)),
                          window=(-4.0, 4.0))
    with pytest.raises(NonSmoothPoint):
        check_derivative_minors(lap, (-1.0, 0.0, 1.0), order=3)
    # away from the kink the same density is smooth and passes
    rep = check_derivative_minors(lap, (0.5, 1.0, 1.5), order=2)
    assert rep.passed and rep.method == "central-differences"


def test_minor_cap_refuses_before_any_density_evaluation():
    def never(a):
        raise AssertionError("density evaluated past the minor cap")

    src = CallableDensity(never, window=(-2.0, 2.0))
    # C(14, 5)^2 = 4 008 004 minors; C(13, 5)^2 = 1 656 369 fit the cap
    assert math.comb(13, 5) ** 2 <= _MAX_MINORS < math.comb(14, 5) ** 2
    with pytest.raises(InvalidSpec, match="cap"):
        check_pf_minors(src, order=5, grid_size=14)


def test_minor_scan_validation():
    src = CallableDensity(phi, window=(-2.0, 2.0))
    with pytest.raises(InvalidSpec):
        check_pf_minors(src, order=6)
    with pytest.raises(InvalidSpec):
        check_pf_minors(src, order=3, grid_size=2)
    with pytest.raises(InvalidSpec):
        check_pf_minors(CallableDensity(phi), order=2)  # no window anywhere
    with pytest.raises(InvalidSpec):
        check_derivative_minors(src, (0.0,), order=2)  # too few points
    # a NaN tolerance would pass every sign test `norm < -tol`
    for tol in (math.nan, math.inf, -5.0):
        with pytest.raises(InvalidSpec):
            check_pf_minors(src, order=2, grid_size=5, tol=tol)
        with pytest.raises(InvalidSpec):
            check_derivative_minors(src, (-1.0, 0.0, 1.0), order=2, tol=tol)


# Reports frozen from the scalar per-minor LU that the batched det_dd
# replaced; each case drives one path of the scan, and every field must
# match bit for bit.
C5 = (0.20557239806084904, 0.44862861950961297, 1.5495856200188163)
GRID = np.arange(-4.0, 4.01, 0.1)
BUMPS = np.exp(-4 * (GRID + 2) ** 2) + np.exp(-4 * (GRID - 2) ** 2)
FROZEN_REPORTS = [
    pytest.param(
        lambda: check_pf_minors(SchoenbergDensity(SchoenbergParams(
            coeffs=C5)), order=3, grid_size=10, tol=1e-9),
        "TPReport(order=3, passed=True, min_minor=0.0, "
        "min_minor_normalized=0.0, argmin_x=(-6.505066631919078, "
        "-5.537416268640372, -1.666814815525547), argmin_y=("
        "-6.505066631919078, -5.537416268640372, -4.569765905361666), "
        "minors_checked=14400, tol=1e-09, violations=0)",
        id="zero-pivots-beyond-support-edge"),
    pytest.param(
        lambda: check_pf_minors(TabulatedDensity(GRID, BUMPS), order=2,
                                window=(-3.5, 3.5), grid_size=10),
        "TPReport(order=2, passed=False, min_minor=-0.4111389799160587, "
        "min_minor_normalized=-0.9999999999998768, argmin_x=(-3.5, "
        "-1.1666666666666665), argmin_y=(-3.5, -1.1666666666666665), "
        "minors_checked=2025, tol=1e-10, violations=391)",
        id="violations-bimodal-control"),
    pytest.param(
        lambda: check_pf_minors(SchoenbergDensity(SchoenbergParams(
            d=0.2, coeffs=(0.5,))), order=2, grid_size=10),
        "TPReport(order=2, passed=False, min_minor=-4.332455605488652e-33, "
        "min_minor_normalized=-4.881893046732708e-05, argmin_x=("
        "2.5082579661373265, 3.22490309931942), argmin_y=("
        "-3.22490309931942, -2.508257966137327), minors_checked=2025, "
        "tol=1e-10, violations=1)",
        id="quadrature-noise-violation"),
    pytest.param(
        lambda: check_pf_minors(SchoenbergDensity(SchoenbergParams(
            coeffs=(1.0,))), order=5, grid_size=8),
        "TPReport(order=5, passed=True, min_minor=-1.1949724512846096e-18, "
        "min_minor_normalized=-8.682003539150847e-17, argmin_x=(-4.0, "
        "-2.571428571428571, -0.4285714285714284, 0.2857142857142856, 1.0), "
        "argmin_y=(-2.571428571428571, -1.8571428571428572, "
        "-1.1428571428571428, -0.4285714285714284, 0.2857142857142856), "
        "minors_checked=3136, tol=1e-10, violations=0)",
        id="order-5"),
    pytest.param(
        lambda: check_derivative_minors(
            SchoenbergDensity(SchoenbergParams(coeffs=(1.0, 0.5))),
            np.linspace(-3.0, 0.5, 7), order=3),
        "DerivMinorReport(order=3, passed=True, "
        "min_minor=-5.926316995573599e-19, argmin_x=(-2.4166666666666665, "
        "-0.6666666666666665, 0.5), y=0.0, minors_checked=35, tol=1e-08, "
        "method='exact')",
        id="derivative-exact"),
    pytest.param(
        lambda: check_derivative_minors(
            CallableDensity(phi, window=(-3.0, 3.0)),
            (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5), order=4),
        "DerivMinorReport(order=4, passed=True, "
        "min_minor=0.0012369393590355808, argmin_x=(-2.5, -1.5, 1.5, 2.5), "
        "y=0.0, minors_checked=15, tol=1e-08, "
        "method='central-differences')",
        id="derivative-central-differences"),
]


@pytest.mark.parametrize("scan, frozen", FROZEN_REPORTS)
def test_minor_reports_bit_for_bit(scan, frozen):
    assert repr(scan()) == frozen


# ---------- tabulated sources ----------


def test_tabulated_cubic_and_linear():
    grid = np.linspace(-6.0, 6.0, 301)
    tab_c = TabulatedDensity(grid, phi(grid), interp="cubic")
    tab_l = TabulatedDensity(grid, phi(grid), interp="linear")
    a = np.linspace(-3.0, 3.0, 100)
    assert np.max(np.abs(tab_c.eval(a) - phi(a))) < 1e-7
    assert np.max(np.abs(tab_l.eval(a) - phi(a))) < 1e-3
    assert tab_c.eval(7.0) == 0.0  # outside the table
    assert tab_c.suggest_window() == (-6.0, 6.0)


def test_tabulated_minors_with_interpolation_tolerance():
    grid = np.linspace(-6.0, 6.0, 301)
    tab = TabulatedDensity(grid, phi(grid), interp="cubic")
    rep = check_pf_minors(tab, order=2, window=(-2.0, 2.0), grid_size=8,
                          tol=1e-5)
    assert rep.passed


def test_tabulated_validation():
    g = np.linspace(0.0, 1.0, 10)
    with pytest.raises(InvalidSpec):
        TabulatedDensity(g, np.ones(9))
    with pytest.raises(InvalidSpec):
        TabulatedDensity(g[::-1], np.ones(10))
    with pytest.raises(InvalidSpec):
        TabulatedDensity(g, np.ones(10), interp="pchip")
    with pytest.raises(InvalidSpec):
        TabulatedDensity(g[:3], np.ones(3))
    with pytest.raises(InvalidSpec):  # NaN spreads through the spline
        TabulatedDensity(g, np.where(g == g[5], np.nan, 1.0))


def test_term_evaluator_support():
    terms = _hypoexp_terms((1.0,))
    assert _eval_terms(terms, -0.5) == 0.0
    assert abs(_eval_terms(terms, 0.3) - math.exp(-0.3)) < 1e-16
