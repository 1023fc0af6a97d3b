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

from zlab.errors import (
    BoundaryTooCloseToZero,
    InvalidSpec,
    NonConvergence,
    PrecisionExhausted,
    StepTooCoarseWarning,
)
from zlab.numerics.quadrature import EXTENDED, NATIVE, QuadratureConfig
from zlab.rho import RhoSpec, gue_spec
from zlab.schoenberg import SchoenbergParams
from zlab.ztransform import (
    Rect,
    ZSpec,
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
    # that integrates over a different window
    clipped = QuadratureConfig(truncation_radius=1.0)
    eval_series(GUE, 1.0, pc=EXTENDED)
    a = eval_series(GUE, 1.0, qc=clipped, pc=EXTENDED).value.real
    b = eval_quadrature(GUE, 1.0, qc=clipped, pc=EXTENDED).value.real
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
        return cmath.exp(40.0j * p.real) + 0.0j + 2.0, 1e-300

    with pytest.raises(NonConvergence):
        walk_winding(fast_phase, Rect(0.0, 10.0, -1.0, 1.0), 0.3,
                     max_points=5)


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


def test_scan_classifies_noise_not_zeros():
    table = find_real_zeros(GAUSS, 20.0, pc=NATIVE)
    assert table.zeros == []
    assert len(table.noise_regions) == 1
    lo, hi = table.noise_regions[0]
    assert 7.0 < lo < 10.0 and hi > 19.0


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
