"""Damped transform: closed-form values, zero machinery, wire formats.

The Gaussian member and the single-coefficient member both admit exact
closed forms, which anchor every evaluation route and the zero finder.
Quartic-weight zeros are frozen from an extended-precision run whose
residuals sat at the dd noise floor.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from zlab import ztransform
from zlab.errors import (
    BoundaryTooCloseToZero,
    InvalidSpec,
    NonConvergence,
    PrecisionExhausted,
    StepTooCoarseWarning,
)
from zlab.numerics import ddouble as dd
from zlab.numerics.quadrature import EXTENDED, NATIVE, QuadratureConfig
from zlab.rho import RhoSpec, gue_spec
from zlab.schoenberg import SchoenbergParams
from zlab.xi import XiConfig, _XiSource, xi_eval_err, xi_zeros
from zlab.ztransform import (
    Rect,
    ZSpec,
    _ScanRule,
    count_zeros_rect,
    eval_gue_hypergeom,
    eval_quadrature,
    eval_series,
    find_real_zeros,
    flow_zeros,
    gue_envelope,
    verify_reality,
    walk_winding,
    zero_table_from_csv,
    zero_table_to_csv,
    zero_table_to_json,
)

GAUSS = ZSpec(RhoSpec(SchoenbergParams(omega=0.5)))
C1 = ZSpec(RhoSpec(SchoenbergParams(coeffs=(1.0,))))
GUE = ZSpec(gue_spec())

# extended-precision scan of the quartic-weight transform on [0, 12];
# residuals were at the dd floor (<= 6e-17)
GUE_ZEROS = (2.9040056057472543, 5.704916883181474,
             8.102759195363907, 10.283421974382238)
# int e^{izu} (1+u^2) e^{-(1+b)u^2} du at b=0, z=2: sqrt(pi)/(2e)
C1_VALUE_Z2 = 0.3260246660866461


def gauss_exact(z: complex) -> complex:
    return math.sqrt(2.0 * math.pi) * cmath.exp(-z * z / 2.0)


def c1_zero(b: float) -> float:
    s = 1.0 + b
    return math.sqrt(4.0 * s * s + 2.0 * s)


class BumpSource:
    """g(u) = e^{-(1+b) u^2} (1 + u^4), duck-typed like ZSpec.

    Positive and even but outside Newman's class: with a = 1 + b its
    transform is sqrt(pi/a) e^{-z^2/4a} [1 + (s^4/16 - 3s^2/4 + 3/4) / a^2],
    s = z / sqrt(a), whose zeros s^2 = 6 -+ sqrt(24 - 16 a^2) collide at
    b = sqrt(3/2) - 1.
    """

    def __init__(self, b: float):
        self.b = b

    def weights(self):
        a = 1.0 + self.b

        def g(u):
            u = np.asarray(u, float)
            return np.exp(-a * u * u) * (1.0 + u**4)

        def g_dd(u):
            u2 = u.sqr()
            return dd.exp(u2 * (-a)) * (u2.sqr() + 1.0)

        return g, g_dd

    def radius(self, im_z, pc):
        return 12.0 + abs(im_z) / (1.0 + self.b)

    def with_b(self, b):
        return BumpSource(b)

    def zeros(self):
        a = 1.0 + self.b
        root = math.sqrt(24.0 - 16.0 * a * a)
        return [math.sqrt(a * (6.0 - root)), math.sqrt(a * (6.0 + root))]


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        ZSpec(GAUSS.spec, b=-0.1)
    with pytest.raises(InvalidSpec):
        ZSpec(GAUSS.spec, b=float("nan"))
    with pytest.raises(InvalidSpec):
        Rect(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(InvalidSpec):
        Rect(0.0, 1.0, 2.0, -2.0)


def test_gaussian_closed_form_real_axis():
    for z in (0.0, 1.5, 4.0, 7.5, 10.0):
        r = eval_quadrature(GAUSS, z, pc=EXTENDED)
        ex = gauss_exact(z).real
        assert abs(r.value.real - ex) < 1e-10 * abs(ex)
        assert r.value.imag == 0.0  # even real measure, real z


def test_gaussian_closed_form_complex_z():
    for z in (1.0 + 0.5j, 3.0 - 2.0j, 0.5 + 3.0j):
        r = eval_quadrature(GAUSS, z)
        ex = gauss_exact(z)
        assert abs(r.value - ex) < 1e-12 * abs(ex)


def test_transform_is_even():
    for zspec in (GAUSS, GUE, C1):
        for z in (0.7, 2.3, 5.1):
            a = eval_quadrature(zspec, z).value.real
            b = eval_quadrature(zspec, -z).value.real
            assert abs(a - b) <= 1e-13 * abs(a)


def test_c1_closed_form_value():
    r = eval_quadrature(C1, 2.0, pc=EXTENDED)
    assert abs(r.value.real - C1_VALUE_Z2) < 1e-12 * C1_VALUE_Z2


def test_c1_zero_location_all_b():
    for b in (0.0, 0.5, 1.0):
        table = find_real_zeros(ZSpec(C1.spec, b), 6.0)
        assert len(table.zeros) == 1
        assert abs(table.zeros[0].z - c1_zero(b)) < 1e-10


def test_series_matches_quadrature():
    for zspec in (GAUSS, GUE):
        for z in (1.0, 2.5, 5.0):
            a = eval_series(zspec, z, pc=EXTENDED).value.real
            b = eval_quadrature(zspec, z, pc=EXTENDED).value.real
            assert abs(a - b) <= 1e-12 * abs(b)


def test_series_moments_follow_the_quadrature_config():
    # a default call first: its moments must not be reused for a config
    # with other tolerances, so the second call misses the cache again
    tight = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)
    eval_series(GUE, 1.0, pc=EXTENDED)
    misses = ztransform._cached_moments.cache_info().misses
    a = eval_series(GUE, 1.0, qc=tight, pc=EXTENDED).value.real
    assert ztransform._cached_moments.cache_info().misses > misses
    b = eval_quadrature(GUE, 1.0, qc=tight, pc=EXTENDED).value.real
    assert abs(a - b) <= 1e-12 * abs(b)


def test_series_refuses_out_of_reach():
    # Gaussian moments grow factorially; by z=8 the cached table cannot
    # bracket the alternating tail and the route must say so
    with pytest.raises(NonConvergence):
        eval_series(GAUSS, 8.0, pc=EXTENDED)


def test_gue_triple_route_agreement():
    for z in np.arange(0.0, 8.01, 0.5):
        a = eval_quadrature(GUE, float(z), pc=EXTENDED).value.real
        b = eval_series(GUE, float(z), pc=EXTENDED).value.real
        c = eval_gue_hypergeom(float(z), pc=EXTENDED).value.real
        scale = max(abs(a), 1e-300)
        assert abs(a - b) <= 1e-9 * scale
        assert abs(a - c) <= 1e-9 * scale


def test_gue_hypergeom_mass_identity():
    # Z(0) is the total mass 2^{1/4} Gamma(1/4) / 2
    ex = 2.0 ** 0.25 * math.gamma(0.25) / 2.0
    r = eval_gue_hypergeom(0.0, pc=EXTENDED)
    assert abs(r.value.real - ex) < 1e-13 * ex


def test_gue_zeros_frozen():
    table = find_real_zeros(GUE, 12.0, pc=EXTENDED)
    assert len(table.zeros) == len(GUE_ZEROS)
    for zr, ref in zip(table.zeros, GUE_ZEROS):
        assert abs(zr.z - ref) < 1e-8
        assert zr.residual < 1e-14
    # simple zeros: derivative alternates sign down the table
    signs = [math.copysign(1.0, zr.derivative) for zr in table.zeros]
    assert signs == [-1.0, 1.0, -1.0, 1.0]


def test_gue_envelope_tracks_decay():
    for z in (8.0, 12.0, 16.0):
        v = abs(eval_quadrature(GUE, z, pc=EXTENDED).value.real)
        assert v < 2.0 * gue_envelope(z)
        assert v > 1e-4 * gue_envelope(z)  # envelope not wildly loose


def test_hypergeom_precision_exhaustion():
    with pytest.raises(PrecisionExhausted):
        eval_gue_hypergeom(18.0, pc=NATIVE)
    with pytest.raises(PrecisionExhausted):
        eval_gue_hypergeom(28.0, pc=EXTENDED)
    r = eval_gue_hypergeom(20.0, pc=EXTENDED)  # still inside dd reach
    assert r.error < abs(r.value.real)


def test_native_wild_extended_smooth():
    # on a grid fine enough that genuine curvature contributes ~1e-7,
    # native cancellation noise dominates second differences while the
    # extended curve stays at the curvature scale
    h = 2e-4
    zs = 13.5 + h * np.arange(201)

    def d2(pc):
        ys = np.array([eval_gue_hypergeom(float(z), pc=pc).value.real
                       / gue_envelope(float(z)) for z in zs])
        return np.max(np.abs(ys[2:] - 2.0 * ys[1:-1] + ys[:-2]))

    wild, smooth = d2(NATIVE), d2(EXTENDED)
    assert smooth < 1e-6
    assert wild > 100.0 * smooth


def test_count_zeros_rect():
    assert count_zeros_rect(C1, Rect(2.0, 3.0, -0.5, 0.5)) == 1
    assert count_zeros_rect(C1, Rect(0.1, 2.0, -0.5, 0.5)) == 0
    assert count_zeros_rect(GUE, Rect(2.0, 6.0, -1.0, 1.0)) == 2


def test_boundary_below_noise_floor_refused():
    # far Gaussian tail: |Z| underflows while the walk's error stays at
    # eps * absint, so no phase can honestly be extracted there
    with pytest.raises(BoundaryTooCloseToZero):
        count_zeros_rect(GAUSS, Rect(30.0, 40.0, -0.1, 0.1))


def test_walk_budget_exhaustion():
    def fast_phase(p):
        return np.exp(40.0j * p.real) + 2.0, np.full(p.shape, 1e-300)

    with pytest.raises(NonConvergence):
        walk_winding(fast_phase, Rect(0.0, 10.0, -1.0, 1.0), 0.3,
                     max_points=5)


def test_walk_refuses_a_quarter_turn_it_cannot_resolve():
    # the argument jumps by pi across x = 5.3 on the bottom edge: halving
    # never resolves it, and the turn is refused rather than added
    def jump(p):
        return (np.where(p.real < 5.3, 1.0, -1.0) + 0.0j,
                np.full(p.shape, 1e-300))

    with pytest.raises(NonConvergence, match="turns"):
        walk_winding(jump, Rect(0.0, 10.0, -1.0, 1.0), 0.3)


def test_verify_reality_gue():
    rep = verify_reality(GUE, 12.0, delta=3.0, x_min=0.05)
    assert rep.passed
    assert rep.n_real == rep.n_rect == 4
    assert rep.window == (0.05, 12.0)
    assert rep.tail_note == ""


def test_verify_reality_gaussian_tail_is_honest():
    rep = verify_reality(GAUSS, 20.0, delta=2.0)
    assert rep.passed
    assert rep.n_real == rep.n_rect == 0
    assert rep.window[1] < 20.0  # native floor cuts the window short
    assert rep.tail_note != ""


@pytest.mark.parametrize("pc", [NATIVE, EXTENDED], ids=["native", "dd"])
@pytest.mark.parametrize("b, delta, passed, n_real, n_rect", [
    (0.3, 1.0, False, 0, 2),  # the collided pair, z ~ 2.82 -+ 0.40i
    (0.3, 0.3, True, 0, 0),   # the same pair outside the strip
    (0.1, 1.0, True, 2, 2),   # before the collision: two real zeros
])
def test_walk_negative_control(b, delta, passed, n_real, n_rect, pc):
    # a weight outside Newman's class: the winding count must see the
    # non-real zeros its closed form puts inside the strip
    a = 1.0 + b
    if 16.0 * a * a > 24.0:
        s2 = 6.0 - 1j * math.sqrt(16.0 * a * a - 24.0)
        assert (abs(cmath.sqrt(a * s2).imag) < delta) is not passed
    rep = verify_reality(BumpSource(b), 6.0, delta=delta, pc=pc)
    assert rep.window == (0.0, 6.0)
    assert (rep.passed, rep.n_real, rep.n_rect) == (passed, n_real, n_rect)


@pytest.mark.parametrize("params, z_max, delta, x_res, count", [
    ({"omega": -3.0, "d": 0.5}, 30.0, 3.0, 30.0, 20),
    ({"omega": -8.0, "d": 0.5}, 30.0, 3.0, 30.0, 28),
    ({"omega": -20.0, "d": 0.5}, 30.0, 2.0, 30.0, 43),
    ({"d": 0.5, "m": 2}, 20.0, 3.0, 20.0, 9),
    ({"coeffs": (1.0,), "m": 3}, 20.0, 3.0, 12.5, 4),
    ({"omega": -6.0, "d": 0.25, "coeffs": (0.5,), "m": 1}, 30.0, 3.0,
     30.0, 34),
])
def test_verify_reality_wider_parameter_class(params, z_max, delta, x_res,
                                              count):
    # omega < 0 and m > 0, beyond criterion 4's draws
    rep = verify_reality(ZSpec(RhoSpec(SchoenbergParams(**params))), z_max,
                         delta=delta)
    assert rep.passed and rep.n_real == rep.n_rect == count
    assert rep.window == (0.0, x_res)


@pytest.mark.parametrize("coeffs, b", [
    ((0.509261,), 0.0), ((0.671974, 0.866318), 1.0),
    ((1.106744, 0.668208, 0.513521), 0.3)])
def test_certify_draws_need_no_adaptive_quadrature(monkeypatch, coeffs, b):
    # every probe and walk point of a criterion-4 draw passes the boundary
    # rule's own stopping test, so no point is integrated alone
    def refuse(*args, **kwargs):
        raise AssertionError("the boundary rule fell back to adaptive "
                             "quadrature")

    monkeypatch.setattr(ztransform, "integrate_adaptive", refuse)
    rep = verify_reality(ZSpec(RhoSpec(SchoenbergParams(coeffs=coeffs)), b),
                         20.0, delta=3.0)
    assert rep.passed and rep.n_real == rep.n_rect


class KinkSource(BumpSource):
    """g(u) = e^{-u^2} (1 + ||u| - 1|): even, with kinks at u = -+1 that
    no fixed panel resolves."""

    def __init__(self):
        super().__init__(0.0)

    def weights(self):
        def g(u):
            u = np.asarray(u, float)
            return np.exp(-u * u) * (1.0 + np.abs(np.abs(u) - 1.0))

        def g_dd(u):
            return dd.exp(u.sqr() * -1.0) * (abs(abs(u) - 1.0) + 1.0)

        return g, g_dd


def _count_fallbacks(monkeypatch):
    """Record the ZValue of every point eval_quadrature integrates alone."""
    alone = []

    def counting(zspec, z, qc=None, pc=NATIVE, rule=None):
        res = eval_quadrature(zspec, z, qc=qc, pc=pc, rule=rule)
        if rule is None:
            alone.append(res)
        return res

    monkeypatch.setattr(ztransform, "eval_quadrature", counting)
    return alone


def test_boundary_rule_falls_back_where_its_estimate_fails(monkeypatch):
    alone = _count_fallbacks(monkeypatch)
    src = KinkSource()
    zs = np.array([1.5 - 0.5j, 0.5 + 0.5j])
    values, errors = ztransform._boundary_rule(
        src, 2.0, 0.5, QuadratureConfig(), NATIVE)(zs)
    # only the upper half-plane is evaluated; the lower point is its mirror
    assert [r.z for r in alone] == [0.5 + 0.5j, 1.5 + 0.5j]
    for z, v, e in zip(zs, values, errors):
        ref = eval_quadrature(src, complex(z.real, abs(z.imag)))
        assert (v, e) == ((ref.value.conjugate() if z.imag < 0 else
                           ref.value), ref.error)


def test_native_fallback_is_never_escalated(monkeypatch):
    # at 20 + 10i, |Z| / int|f| ~ 5e-10: alone at the default native
    # config the point would be recomputed in double-double, but a walk
    # point must keep the native error its window is judged by
    z = 20.0 + 10.0j
    assert eval_quadrature(KinkSource(), z).escalated
    alone = _count_fallbacks(monkeypatch)
    values, errors = ztransform._boundary_rule(
        KinkSource(), 20.0, 10.0, QuadratureConfig(), NATIVE)(np.array([z]))
    assert [(r.z, r.mode, r.escalated) for r in alone] == [
        (z, "native", False)]
    assert (values[0], errors[0]) == (alone[0].value, alone[0].error)
    assert errors[0] > 1e-6 * abs(values[0])


def test_scan_classifies_noise_not_zeros():
    table = find_real_zeros(GAUSS, 20.0, pc=NATIVE)
    assert table.zeros == []
    assert len(table.noise_regions) == 1
    lo, hi = table.noise_regions[0]
    assert 7.0 < lo < 10.0 and hi > 19.0


def test_native_deep_tail_table():
    # the last zero the native scan resolves sits just above the floor;
    # a float-rounded phase z * u loses it to the residual check
    table = find_real_zeros(GUE, 50.0)
    assert len(table.zeros) == 18
    assert abs(table.zeros[-1].z - 33.42361481341606) < 1e-9
    assert table.noise_regions[0][0] >= 33.9


def test_tables_polish_without_adaptive_quadrature(monkeypatch):
    # bracketing, polish and acceptance all run on the scan's own rule
    def refuse(*args, **kwargs):
        raise AssertionError("a zero table called adaptive quadrature")

    monkeypatch.setattr(ztransform, "integrate_adaptive", refuse)
    assert len(find_real_zeros(GUE, 50.0).zeros) == 18
    table = find_real_zeros(ZSpec(C1.spec, 0.3), 5.0, pc=EXTENDED)
    assert abs(table.zeros[0].z - c1_zero(0.3)) < 1e-10


def test_zeros_closer_than_a_step_both_kept():
    # two real zeros 0.019 apart in adjacent cells of a 0.044 grid: each
    # is polished inside its own cell, so neither is dropped as a repeat
    src = BumpSource(0.2247)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = find_real_zeros(src, 6.0)
        rep = verify_reality(src, 6.0, delta=0.5)
    assert any(issubclass(w.category, StepTooCoarseWarning) for w in caught)
    assert abs(table.step - 0.0436) < 1e-4
    got = [zr.z for zr in table.zeros]
    assert len(got) == 2
    for z, ref, closed in zip(got, (2.7012667352833, 2.7202128638862),
                              src.zeros()):
        assert abs(z - ref) < 1e-10 and abs(z - closed) < 1e-10
    assert rep.passed and rep.n_real == rep.n_rect == 2


@pytest.mark.parametrize("case", [
    "quartic_native", "quartic_dd", "bump", "xi"])
def test_each_root_polished_inside_its_own_cell(case):
    zspec, z_max, pc = {
        "quartic_native": (GUE, 50.0, NATIVE),
        "quartic_dd": (GUE, 15.0, EXTENDED),
        "bump": (BumpSource(0.2247), 6.0, NATIVE),
        "xi": (_XiSource(0.0, XiConfig()), 50.0, NATIVE),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepTooCoarseWarning)
        table = find_real_zeros(zspec, z_max, pc=pc)
    assert table.zeros
    rule = _ScanRule(zspec, z_max, pc)
    h = table.step
    cells = [math.floor(zr.z / h) for zr in table.zeros]
    assert len(set(cells)) == len(cells)
    for zr, k in zip(table.zeros, cells):
        # the grid cell [k h, (k + 1) h] bracketed a sign change
        ends, _ = rule.eval_grid(np.array([k * h, (k + 1) * h]))
        assert ends[0] * ends[1] < 0.0, (zr.z, ends)
        # the table's columns are the rule's polish values at the root
        value, deriv, _, _ = rule.eval_polish(np.array([zr.z]))
        assert (zr.residual, zr.derivative) == (abs(value[0]), deriv[0])


def test_extended_grid_equals_polish_across_chunks():
    # the grid's chunked dd pass and a polish pass on one z share the
    # rule, so value and error agree bit for bit at every z, including the
    # first and last z of each chunk
    rule = _ScanRule(GUE, 15.0, EXTENDED)
    rows = ztransform._CHUNK // rule.u.size
    zs = np.linspace(0.0, 15.0, 3 * rows + 5)
    vals, errs = rule.eval_grid(zs)
    for z, v, e in zip(zs, vals, errs):
        value, _, _, err = rule.eval_polish(np.array([z]))
        assert (v, e) == (value[0], err[0]), z


def test_scan_passes_match_the_point_loops(monkeypatch):
    # the per-point loops that the envelope, noise-region and sign-change
    # passes replaced are the reference, on seeded grid values with loud
    # and sub-noise stretches, so noise regions end inside the window and
    # sign changes fall on their edges
    rng = np.random.default_rng(3)
    grid = {}

    def fake_grid(self, zs):
        loud = (np.arange(zs.size) // 25) % 2 == 0
        vals = rng.standard_normal(zs.size) * np.where(loud, 1.0, 1e-30)
        errs = np.full(zs.size, 1e-25)
        grid.update(zs=zs, vals=vals, errs=errs)
        return vals, errs

    monkeypatch.setattr(_ScanRule, "eval_grid", fake_grid)
    table = find_real_zeros(GUE, 20.0)
    zs, vals, errs = grid["zs"], grid["vals"], grid["errs"]
    h = table.step
    W = max(3, math.ceil(ztransform._spacing_estimate(GUE, NATIVE) / h))
    absv = np.abs(vals)
    env = [absv[max(0, i - W):i + W + 1].max() for i in range(zs.size)]
    noisy = [e < 10.0 * r for e, r in zip(env, errs)]
    regions = []
    i = 0
    while i < zs.size:
        if noisy[i]:
            j = i
            while j + 1 < zs.size and noisy[j + 1]:
                j += 1
            regions.append((float(zs[i]), float(zs[j])))
            i = j + 1
        else:
            i += 1
    cells = [i for i in range(zs.size - 1) if vals[i] * vals[i + 1] < 0.0
             and not (noisy[i] or noisy[i + 1])]
    assert len(regions) >= 2 and regions[0][1] < 20.0
    assert table.noise_regions == regions
    rejected = int(table.notes[0].split()[0]) if table.notes else 0
    assert len(table.zeros) + rejected == len(cells)
    assert {math.floor(zr.z / h) for zr in table.zeros} <= set(cells)


@pytest.mark.parametrize("n, W", [
    (1, 3), (7, 3), (50, 3), (50, 24), (50, 25), (50, 60), (1000, 13)])
def test_window_max_matches_the_sliding_window(n, W):
    # the block prefix/suffix maxima against the padded sliding window,
    # also with windows wider than the whole array
    rng = np.random.default_rng(n * 100 + W)
    x = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-30, 5, n)
    x[rng.random(n) < 0.2] = 0.0
    ref = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, W), 2 * W + 1).max(axis=1)
    assert np.array_equal(ztransform._window_max(x, W), ref)


def _loop_polish(rule, zs, vals, cells):
    """Zeros, rejected count and rule passes per candidate by the
    per-candidate Halley loop, one single-z rule pass per step, in Python
    floats."""
    zeros, rejected, steps = [], 0, []
    for i in cells:
        lo, hi = float(zs[i]), float(zs[i + 1])
        root = float(lo - vals[i] * (hi - lo) / (vals[i + 1] - vals[i]))
        for k in range(ztransform._POLISH_STEPS):
            final, dfinal, d2, err = (
                float(x[0]) for x in rule.eval_polish(np.array([root])))
            noise = err + abs(dfinal) * ztransform._EPS * max(1.0, abs(root))
            denom = 2.0 * dfinal * dfinal - final * d2
            dz = 2.0 * final * dfinal / denom if denom else math.inf
            if abs(dz * dfinal) <= noise or k == ztransform._POLISH_STEPS - 1:
                break
            if final * vals[i] > 0.0:
                lo = root
            else:
                hi = root
            root -= dz
            if not lo < root < hi:
                root = 0.5 * (lo + hi)
        steps.append(k + 1)
        if abs(final) <= 1e2 * noise:
            zeros.append((root, abs(final), dfinal))
        else:
            rejected += 1
    return zeros, rejected, steps


@pytest.mark.parametrize("case", [
    "quartic_native", "quartic_dd", "bump", "xi", "capped"])
def test_batched_polish_matches_the_candidate_loop(monkeypatch, case):
    # one rule pass per Halley generation over all live candidates gives
    # the per-candidate loop's zeros, residuals, derivatives and notes bit
    # for bit; "capped" scales T' by 1e-3 and T'' by 1e-6 on some roots,
    # so their steps overshoot a thousandfold, fall back to the cell's
    # midpoint and run into the step cap
    zspec, z_max, pc = {
        "quartic_native": (GUE, 50.0, NATIVE),
        "quartic_dd": (GUE, 15.0, EXTENDED),
        "bump": (BumpSource(0.2247), 6.0, NATIVE),
        "xi": (_XiSource(0.0, XiConfig()), 50.0, NATIVE),
        "capped": (GUE, 50.0, NATIVE),
    }[case]
    polish, passes = _ScanRule.eval_polish, []

    def counted(self, zs):
        passes.append(zs.size)
        out = polish(self, zs)
        if case == "capped":
            skew = np.where(np.floor(zs * 3.0) % 2 == 0, 1e-3, 1.0)
            out[1:3] *= (skew, skew * skew)
        return out

    monkeypatch.setattr(_ScanRule, "eval_polish", counted)
    grid = {}
    eval_grid = _ScanRule.eval_grid

    def recorded(self, zs):
        grid.update(rule=self, zs=zs, out=eval_grid(self, zs))
        return grid["out"]

    monkeypatch.setattr(_ScanRule, "eval_grid", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepTooCoarseWarning)
        table = find_real_zeros(zspec, z_max, pc=pc)
    generations = len(passes)
    zs, (vals, errs) = grid["zs"], grid["out"]
    noisy = [(float(a), float(b)) for a, b in table.noise_regions]
    cells = [i for i in range(zs.size - 1) if vals[i] * vals[i + 1] < 0.0
             and not any(a <= zs[j] <= b for a, b in noisy
                         for j in (i, i + 1))]
    zeros, rejected, steps = _loop_polish(grid["rule"], zs, vals, cells)
    assert [(zr.z, zr.residual, zr.derivative) for zr in table.zeros] == zeros
    assert table.notes == ([f"{rejected} candidate(s) failed the residual "
                            "check"] if rejected else [])
    assert [zr.index for zr in table.zeros] == list(range(len(zeros)))
    # one pass per generation, over the candidates still moving
    assert passes[:generations] == [sum(n > k for n in steps)
                                    for k in range(max(steps))]
    if case == "capped":
        assert rejected and zeros
        assert max(steps) == ztransform._POLISH_STEPS


def test_polish_passes_stay_within_a_chunk(monkeypatch):
    # with fewer rows per pass than candidates, every dd sincos pass of the
    # polish holds at most _CHUNK terms, and the table does not change
    ref = find_real_zeros(GUE, 50.0)
    n = _ScanRule(GUE, 50.0, NATIVE).u.size
    monkeypatch.setattr(ztransform, "_CHUNK", 4 * n + 3)
    assert len(ref.zeros) > ztransform._CHUNK // n
    lanes = []
    sincos = dd.sincos

    def counted(a):
        lanes.append(np.size(a.hi))
        return sincos(a)

    monkeypatch.setattr(dd, "sincos", counted)
    table = find_real_zeros(GUE, 50.0)
    assert table == ref
    assert lanes and max(lanes) <= ztransform._CHUNK
    assert max(lanes) == 4 * n


@pytest.mark.parametrize("weight", ["xi", "quartic"])
def test_table_derivative_matches_extended_quadrature(weight):
    # the derivative column against a central difference of a tight
    # extended-precision quadrature (step error ~1e-10, noise ~1e-11)
    if weight == "xi":
        zspec, table = _XiSource(0.0, XiConfig()), xi_zeros(50.0)
    else:
        zspec, table = GUE, find_real_zeros(GUE, 50.0)
    qc = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-24)
    for zr in table.zeros:
        zp, zm = zr.z + 1e-5, zr.z - 1e-5
        ref = (eval_quadrature(zspec, zp, qc=qc, pc=EXTENDED).value.real
               - eval_quadrature(zspec, zm, qc=qc, pc=EXTENDED).value.real) \
            / (zp - zm)
        assert abs(zr.derivative - ref) <= 1e-8 * abs(ref), (zr.z, ref)


@pytest.mark.parametrize("weight", [
    "gauss", "quartic", "c2_b1", "omega_coeff_m2_b1", "xi"])
def test_scan_rule_within_its_error_of_quadrature(weight):
    # the scan's values and error estimates against an independent
    # extended-precision adaptive quadrature, in both modes
    if weight == "xi":
        zspec, z_max = _XiSource(0.0, XiConfig()), 40.0
        xi_cfg = XiConfig(pc=EXTENDED)

        def reference(z):
            value, err = xi_eval_err(z, cfg=xi_cfg)
            return value.real, err
    else:
        params = {"gauss": SchoenbergParams(omega=0.5),
                  "c2_b1": SchoenbergParams(coeffs=(2.0,)),
                  "omega_coeff_m2_b1": SchoenbergParams(
                      omega=0.9, coeffs=(0.73,), m=2)}
        zspec = (GUE if weight == "quartic" else
                 ZSpec(RhoSpec(params[weight]),
                       1.0 if weight.endswith("b1") else 0.0))
        z_max = 20.0

        def reference(z):
            res = eval_quadrature(zspec, z, pc=EXTENDED)
            return res.value.real, res.error
    zs = np.linspace(0.0, z_max, 20)
    refs = [reference(float(z)) for z in zs]
    for pc in (NATIVE, EXTENDED):
        vals, errs = _ScanRule(zspec, z_max, pc).eval_grid(zs)
        for z, v, e, (ref, ref_err) in zip(zs, vals, errs, refs):
            assert abs(v - ref) <= e + ref_err, (pc.mode, z, v, ref, e)


def test_coarse_step_warns_but_still_finds():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = find_real_zeros(GUE, 12.0, step=0.7)
    assert any(issubclass(w.category, StepTooCoarseWarning) for w in caught)
    assert len(table.zeros) == 4


def test_flow_tracks_c1_zero():
    bs = [0.0, 0.25, 0.5, 1.0]
    flow = flow_zeros(C1, bs, 6.0)
    assert len(flow.trajectories) == 1
    assert flow.ambiguities == []
    traj = flow.trajectories[0]
    assert [b for b, _ in traj] == bs
    for b, z in traj:
        assert abs(z - c1_zero(b)) < 1e-9


def test_flow_requires_increasing_b():
    with pytest.raises(InvalidSpec):
        flow_zeros(C1, [0.5, 0.5], 6.0)
    with pytest.raises(InvalidSpec):
        flow_zeros(C1, [1.0], 6.0)


def test_zero_table_csv_round_trip():
    table = find_real_zeros(GUE, 12.0, pc=EXTENDED)
    text = zero_table_to_csv(table)
    assert text.startswith("b,k,z_k,residual,derivative\r\n")
    back = zero_table_from_csv(text)
    assert [z.z for z in back] == [z.z for z in table.zeros]
    assert [z.residual for z in back] == [z.residual for z in table.zeros]
    with pytest.raises(InvalidSpec):
        zero_table_from_csv("x,y\r\n1,2\r\n")


def test_zero_table_json_payload():
    table = find_real_zeros(C1, 6.0)
    doc = zero_table_to_json(table)
    assert set(doc) == {"b", "z_max", "step", "mode", "zeros",
                        "noise_regions", "notes"}
    assert doc["zeros"][0]["z"] == table.zeros[0].z
