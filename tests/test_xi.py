"""Theta-series weight F, its damped transform, and the eta-route oracle.

Reference values were computed independently at 50-digit precision: the
weight F at grid points, zeta on the critical line, the completed-zeta
values, and the first eight critical zeros.
"""

import math

import numpy as np
import pytest

from zlab.errors import (
    DomainError,
    InvalidSpec,
    RangeExceeded,
    TruncationCapExceeded,
)
from zlab.numerics.quadrature import PrecisionConfig
from zlab.xi import (
    F_eval,
    F_eval_err,
    XiConfig,
    xi_eval,
    xi_eval_err,
    xi_flow,
    xi_from_zeta,
    xi_rect_count,
    xi_zeros,
    zeta_critical_line,
    zeta_eta,
)
from zlab.ztransform import Rect, zero_table_to_csv, zero_table_from_csv

F0 = 0.8933938009342468881739693
# Odlyzko's ordinates of the first ten zeta zeros (all those below 50)
ZEROS = (14.134725141734694, 21.022039638771555, 25.010857580145689,
         30.424876125859513, 32.935061587739190, 37.586178158825671,
         40.918719012147495, 43.327073280914999, 48.005150881167159,
         49.773832477672302)
XI_REFS = {
    0.0: 0.49712077818831410991,
    2.0: 0.45309985831293611130,
    5.0: 0.27554999734420419223,
    10.0: 0.037967850310935684224,
}
ZETA_REFS = {
    1.0: complex(0.14393642707718906032, -0.72209974353167308913),
    10.0: complex(1.5448952202967527669, -0.11533646527127337544),
    30.0: complex(-0.12064228759004369991, -0.58369121476370628876),
    45.0: complex(2.7135255356308152613, 1.8000551514008348333),
    60.0: complex(0.54120083514634811115, 0.22718392236826872865),
}
EXTENDED = PrecisionConfig("extended")


def test_f_reference_values():
    assert abs(F_eval(0.0) - F0) < 1e-14 * F0
    assert abs(F_eval(1.0) - 2.7556278812712675e-07) < 1e-13 * 2.76e-7
    assert abs(F_eval(0.5) - 0.06037745178434865506) < 1e-13 * 0.06
    assert abs(F_eval(2.0) - 1.0204002678049e-69) < 1e-9 * 1.02e-69


def test_f_leading_terms_carry_the_value():
    t1 = (4.0 * math.pi**2 - 6.0 * math.pi) * math.exp(-math.pi)
    t2 = (4.0 * 16 * math.pi**2 - 6.0 * 4 * math.pi) * math.exp(-4.0 * math.pi)
    assert abs(F_eval(0.0) - t1 - t2) < 2e-5  # n >= 3 contributes ~1e-7


def test_f_evenness():
    worst = max(abs(F_eval(u) - F_eval(-u))
                for u in np.arange(0.1, 2.01, 0.15))
    assert worst <= 1e-10 * F0


def test_f_positivity_on_working_grid():
    # strictly positive wherever the series resolves the value; where the
    # true value sits under the cancellation floor (deep negative u) the
    # check is that no resolvable violation appears
    for u in np.arange(-2.0, 3.0 + 1e-9, 0.05):
        v, err = F_eval_err(float(u))
        assert v > -10.0 * err
        if u >= -1.0 and u <= 2.7:
            assert v > 0.0


def test_f_floor_raises():
    with pytest.raises(TruncationCapExceeded):
        F_eval(-3.01)
    with pytest.raises(TruncationCapExceeded):
        F_eval(-5.0)
    v, err = F_eval_err(-3.0)  # the documented edge still evaluates
    assert abs(v) <= 10.0 * err


def test_f_noise_bound_is_honest_at_negative_u():
    # true values F(2), F(3) are far below float noise; the reported
    # bound must cover the computed residue
    for u in (-2.0, -2.5, -3.0):
        v, err = F_eval_err(u)
        assert abs(v) <= 10.0 * err
        assert err < 1e-13


def test_xi_config_validation():
    with pytest.raises(InvalidSpec):
        XiConfig(term_tail_tol=0.0)
    with pytest.raises(InvalidSpec):
        XiConfig(u_max=0.3)
    with pytest.raises(InvalidSpec):
        XiConfig(u_max=7.0)
    with pytest.raises(InvalidSpec):
        XiConfig(u_max=0.5)  # truncated tail above abs_tol / 10
    XiConfig(u_max=1.5)  # tail already negligible here


def test_eta_route_reference_values():
    assert abs(zeta_eta(2.0) - math.pi**2 / 6.0) < 1e-13
    assert abs(zeta_critical_line(0.0) - (-1.4603545088095868)) < 1e-13
    for t, ref in ZETA_REFS.items():
        assert abs(zeta_critical_line(t) - ref) < 1e-12 * abs(ref)
        assert abs(zeta_critical_line(-t) - ref.conjugate()) \
            < 1e-12 * abs(ref)


def test_eta_route_near_zero_absolute_accuracy():
    ref = complex(1.7674298356433245e-8, -1.1102028894857664e-7)
    assert abs(zeta_critical_line(14.134725) - ref) < 1e-12


def test_eta_route_domain():
    with pytest.raises(DomainError):
        zeta_eta(complex(0.0, 3.0))
    with pytest.raises(DomainError):
        zeta_eta(1.0)
    with pytest.raises(RangeExceeded):
        zeta_critical_line(60.5)
    with pytest.raises(RangeExceeded):
        zeta_critical_line(-61.0)
    zeta_critical_line(60.0)


def test_gamma_zeta_reference_at_origin():
    v = xi_from_zeta(0.0)
    assert abs(v.real - 0.4971207781883141) < 1e-12
    assert abs(v.imag) < 1e-10


def test_normalization_constant_regression():
    # measured constant: the damped transform of F equals the completed
    # zeta function exactly, so against twice the reference the ratio
    # pins at one half (the doubled series coefficients cancel the half
    # in the reference prefactor)
    ratios = [xi_eval(z).real / (2.0 * xi_from_zeta(z).real)
              for z in (0.0, 2.0, 5.0, 10.0)]
    for r in ratios:
        assert abs(r - 0.5) < 1e-10
    assert max(ratios) - min(ratios) < 1e-6


def test_xi_eval_reference_values():
    for z, ref in XI_REFS.items():
        v, err = xi_eval_err(z)
        assert abs(v.real - ref) < 1e-13 * ref
        assert abs(v.real - ref) <= err
        assert v.imag == 0.0


def test_xi_eval_evenness():
    assert abs(xi_eval(3.0) - xi_eval(-3.0)) < 1e-14


def test_xi_eval_near_first_zero():
    v = xi_eval(14.134725)
    assert abs(v) < 1e-9  # six-digit input, so |value| ~ |slope| * 1e-7
    assert v.real > 0.0 and xi_eval(14.1348).real < 0.0


def test_xi_eval_complex_and_damped():
    v, err = xi_eval_err(complex(5.0, 1.5))
    assert err < 1e-10 and abs(v) > 0.1
    damped = xi_eval(2.0, b=0.5).real
    assert 0.0 < damped < xi_eval(2.0).real
    with pytest.raises(InvalidSpec):
        xi_eval(1.0, b=-0.5)


def test_xi_zeros_first_three():
    table = xi_zeros(30.0)
    assert [zr.index for zr in table.zeros] == [0, 1, 2]
    assert len(table.zeros) == 3
    for zr, ref in zip(table.zeros, ZEROS):
        assert abs(zr.z - ref) < 1e-9
        assert zr.residual < 1e-12
    signs = [math.copysign(1.0, zr.derivative) for zr in table.zeros]
    assert signs == [-1.0, 1.0, -1.0]
    assert any("3 vs 3" in n and "match" in n for n in table.notes)
    assert table.noise_regions == []


def test_xi_zeros_confirmed_by_zeta_oracle():
    table = xi_zeros(30.0)
    for zr in table.zeros:
        # sign change of the independent route across the polished zero,
        # and residual small enough to place both zeros within 1e-6
        lo = xi_from_zeta(zr.z - 1e-4).real
        hi = xi_from_zeta(zr.z + 1e-4).real
        assert lo * hi < 0.0
        assert abs(xi_from_zeta(zr.z).real) < abs(zr.derivative) * 1e-6


def test_xi_zeros_empty_below_first_zero():
    table = xi_zeros(10.0)
    assert table.zeros == []
    assert any("0 vs 0" in n and "match" in n for n in table.notes)


def test_xi_zeros_validation():
    with pytest.raises(InvalidSpec):
        xi_zeros(0.0)
    with pytest.raises(InvalidSpec):
        xi_zeros(50.5)


def test_xi_rect_counts():
    assert xi_rect_count(Rect(1.0, 30.0, -2.0, 2.0)) == 3
    assert xi_rect_count(Rect(15.0, 22.0, -2.0, 2.0)) == 1
    assert xi_rect_count(Rect(1.0, 13.0, -2.0, 2.0)) == 0


def test_xi_zeros_native_depth():
    table = xi_zeros(40.0)
    assert len(table.zeros) == 6
    for zr, ref in zip(table.zeros, ZEROS):
        assert abs(zr.z - ref) < 1e-6
    assert any("match" in n for n in table.notes)


def test_xi_zeros_full_window_closes_last_step():
    # 49.7738 lies between the last whole scan step and z_max = 50
    table = xi_zeros(50.0)
    assert len(table.zeros) == 10
    for zr, ref in zip(table.zeros, ZEROS):
        assert abs(zr.z - ref) < 1e-9
    assert any("10 vs 10" in n and "(match)" in n for n in table.notes)


def test_xi_zeros_extended_mode():
    table = xi_zeros(26.0, cfg=XiConfig(pc=EXTENDED))
    assert table.mode == "extended"
    assert len(table.zeros) == 3
    assert max(zr.residual for zr in table.zeros) < 1e-15
    assert any("match" in n for n in table.notes)


def test_xi_flow_trajectories():
    flow = xi_flow([0.0, 0.25, 0.5, 1.0], 30.0)
    assert len(flow.trajectories) == 3
    assert flow.ambiguities == []
    for traj in flow.trajectories:
        assert len(traj) == 4
        zs = [z for _, z in traj]
        assert all(b < a for b, a in zip(zs[:-1], zs[1:]))  # drift upward
    assert [len(t.zeros) for t in flow.tables] == [3, 3, 3, 3]
    # b = 0 slice reproduces the plain scan
    base = xi_zeros(30.0)
    for (b0, z0), zr in zip((t[0] for t in flow.trajectories), base.zeros):
        assert b0 == 0.0 and abs(z0 - zr.z) < 1e-12


def test_xi_flow_validation():
    with pytest.raises(InvalidSpec):
        xi_flow([0.5], 30.0)
    with pytest.raises(InvalidSpec):
        xi_flow([0.5, 0.5], 30.0)
    with pytest.raises(InvalidSpec):
        xi_flow([0.0, 0.5], 55.0)


def test_xi_table_wire_format():
    table = xi_zeros(30.0)
    text = zero_table_to_csv(table)
    assert text.startswith("b,k,z_k,residual,derivative\r\n")
    back = zero_table_from_csv(text)
    assert [zr.z for zr in back] == [zr.z for zr in table.zeros]
