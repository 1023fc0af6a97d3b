"""Completed-zeta transform built from the theta-series weight F.

F(u) = sum_{n>=1} (4 n^4 pi^2 e^{9u/2} - 6 n^2 pi e^{5u/2}) e^{-n^2 pi e^{2u}}
is even and positive but neither property is obvious from the series, so
both are verified numerically rather than assumed.  Its Fourier transform
with Gaussian damping,

    xi_eval(z, b) = int exp(izu - bu^2) F(u) du,

matches the classical completed zeta function xi(1/2 + iz) at b = 0; the
normalization constant between the two is measured, not assumed, and is
pinned by a regression test.  An independent oracle route goes through the
Dirichlet eta series (zeta_critical_line) and the Gamma factor, sharing no
code with the F path.

Zero location reuses the ztransform scan/polish/verify machinery by
plugging F in as the weight: evenness lets the scan and the boundary
walk work with F(|u|), which is legitimate only because the evenness
check runs on directly computed negative-u values first.  xi_eval itself
never assumes evenness.

For u < 0 the series loses accuracy to cancellation: the true value decays
doubly exponentially while individual terms stay O(1), so the computed
value carries absolute noise near eps * sum|terms|.  Every consumer of
negative-u values accounts for that floor; the documented working range
is u >= -3, where the hard cap on the term count never binds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InvalidSpec,
    NonConvergence,
    RangeExceeded,
    TruncationCapExceeded,
)
from .numerics import ddouble as dd
from .numerics.ddouble import DD, DDComplex
from .numerics.quadrature import (
    NATIVE,
    PrecisionConfig,
    QuadratureConfig,
    integrate_adaptive,
)
from .numerics.specfun import gamma_complex
from .ztransform import (
    FlowResult,
    Rect,
    ZeroTable,
    count_zeros_rect,
    flow_zeros,
    verify_reality,
)

__all__ = [
    "XiConfig",
    "F_eval",
    "F_eval_err",
    "xi_eval",
    "xi_eval_err",
    "xi_zeros",
    "xi_flow",
    "xi_rect_count",
    "zeta_eta",
    "zeta_critical_line",
    "xi_from_zeta",
]

_EPS = float(np.finfo(float).eps)
_DD_EPS = 2.0**-104
_PI = math.pi
_PI2 = math.pi * math.pi
_U_FLOOR = -3.0
_N_CAP = 512
# bound on the first neglected series term (the dd paths tighten it by
# 2^-53 so both precisions truncate consistently)
_TERM_TAIL_TOL = 1e-18
_U_MAX = 2.0  # integration window edge, where F has decayed past any use


# ---------- configuration ----------


@dataclass(frozen=True)
class XiConfig:
    """Quadrature and precision for the F-based evaluators."""

    qc: QuadratureConfig = field(default_factory=QuadratureConfig)
    pc: PrecisionConfig = NATIVE

    def __post_init__(self):
        # discarded tail: F decays like exp(-2 pi e^{2u} u) past _U_MAX, so
        # one e-fold length bounds int_{_U_MAX}^inf F by F(_U_MAX) * efold
        efold = 1.0 / (2.0 * _PI * math.exp(2.0 * _U_MAX) - 4.5)
        if _f_scalar(_U_MAX, _term_count(_U_MAX, _TERM_TAIL_TOL)) \
                * efold >= self.qc.abs_tol / 10.0:
            raise InvalidSpec(
                "abs_tol is below the truncated tail of F past u = "
                f"{_U_MAX:g}")


# ---------- the series weight F ----------


def _term_count(u: float, tol: float) -> int:
    """Terms needed so the bound 4 n^4 pi^2 e^{9u/2} e^{-n^2 pi e^{2u}}
    falls below tol; raises once the hard cap binds (u < -3 in practice).
    """
    a = _PI * math.exp(2.0 * u)
    c = 4.0 * _PI2 * math.exp(4.5 * u)
    # the bound rises until n^2 = 2/a, then decays; start past the crest
    n = max(1, int(math.ceil(math.sqrt(2.0 / a))))
    while n <= _N_CAP:
        if c * n**4 * math.exp(-a * n * n) < tol:
            return n
        n += 1
    raise TruncationCapExceeded(
        f"series cap {_N_CAP} binds at u = {u:g} before the term bound "
        f"reaches {tol:g}; working range is u >= {_U_FLOOR:g}")


def _f_scalar(u: float, n_terms: int) -> float:
    e45 = math.exp(4.5 * u)
    e25 = math.exp(2.5 * u)
    e2 = math.exp(2.0 * u)
    return math.fsum(
        (4.0 * _PI2 * k**4 * e45 - 6.0 * _PI * k * k * e25)
        * math.exp(-_PI * k * k * e2)
        for k in range(1, n_terms + 1))


def _f_abs_sum(u: float, n_terms: int) -> float:
    """Sum of absolute term magnitudes; eps times this bounds the noise
    left by cancellation at negative u (at u >= 0 every term is positive,
    so it simply matches F)."""
    e45 = math.exp(4.5 * u)
    e25 = math.exp(2.5 * u)
    e2 = math.exp(2.0 * u)
    return math.fsum(
        (4.0 * _PI2 * k**4 * e45 + 6.0 * _PI * k * k * e25)
        * math.exp(-_PI * k * k * e2)
        for k in range(1, n_terms + 1))


def _f_array(u: np.ndarray, n_terms: int) -> np.ndarray:
    u = np.asarray(u, float)
    with np.errstate(under="ignore"):
        e45 = np.exp(4.5 * u)
        e25 = np.exp(2.5 * u)
        e2 = np.exp(2.0 * u)
        total = np.zeros_like(u)
        for k in range(1, n_terms + 1):
            total += (4.0 * _PI2 * k**4 * e45 - 6.0 * _PI * k * k * e25) \
                * np.exp(-_PI * k * k * e2)
    return total


def _f_dd(u: DD, n_terms: int) -> DD:
    e45 = dd.exp(u * 4.5)
    e25 = dd.exp(u * 2.5)
    e2 = dd.exp(u * 2.0)
    zero = np.zeros_like(np.asarray(u.hi, float))
    total = DD(zero.copy(), zero.copy())
    for k in range(1, n_terms + 1):
        c4 = dd.PI * dd.PI * (4.0 * k**4)
        c6 = dd.PI * (6.0 * k * k)
        damp = dd.exp(e2 * (dd.PI * (-(k * k))))
        total = total + (e45 * c4 - e25 * c6) * damp
    return total


def F_eval(u: float) -> float:
    """The series weight F(u); working range u >= -3."""
    val, _ = F_eval_err(u)
    return val


def F_eval_err(u: float) -> tuple[float, float]:
    """F(u) with an absolute noise bound (cancellation floor at u < 0)."""
    u = float(u)
    if not math.isfinite(u):
        raise InvalidSpec("u must be finite")
    if u < _U_FLOOR:
        raise TruncationCapExceeded(
            f"u = {u:g} is below the working floor {_U_FLOOR:g}")
    n = _term_count(u, _TERM_TAIL_TOL)
    val = _f_scalar(u, n)
    err = _EPS * _f_abs_sum(u, n) + _TERM_TAIL_TOL
    return val, err


# ---------- the damped transform ----------


_WINDOW = (-min(-_U_FLOOR, _U_MAX), _U_MAX)


def xi_eval(z: complex, b: float = 0.0, cfg: XiConfig | None = None) -> complex:
    """int exp(izu - bu^2) F(u) du over the working window.

    F is computed directly at negative u (no evenness assumption), so this
    route stays independent of the reflected evaluator used by the zero
    scan.  Real z yields a real value; the imaginary residue is checked
    against the error bound, then discarded.
    """
    val, _ = xi_eval_err(z, b, cfg)
    return val


def xi_eval_err(z: complex, b: float = 0.0,
                cfg: XiConfig | None = None) -> tuple[complex, float]:
    """xi_eval plus the absolute error bound the checks run against."""
    cfg = cfg or XiConfig()
    z = complex(z)
    if not (b >= 0.0 and math.isfinite(b)):
        raise InvalidSpec("b must be finite and nonnegative")
    lo, hi = _WINDOW
    n = _term_count(lo, _TERM_TAIL_TOL)
    n_dd = _term_count(lo, _TERM_TAIL_TOL * 2.0**-53)

    def f(u):
        with np.errstate(under="ignore"):
            return _f_array(u, n) * np.exp(1j * z * u - b * u * u)

    def f_dd(u: DD) -> DDComplex:
        amp = _f_dd(u, n_dd)
        if b:
            amp = amp * dd.exp(u.sqr() * (-b))
        if z.imag:
            amp = amp * dd.exp(u * (-z.imag))
        zero = DD(np.zeros_like(np.asarray(u.hi, float)),
                  np.zeros_like(np.asarray(u.hi, float)))
        return dd.exp_i(u * z.real) * DDComplex(amp, zero)

    res = integrate_adaptive(
        f, lo, hi, qc=cfg.qc, pc=cfg.pc, f_dd=f_dd,
        max_panel_width=math.pi / (2.0 * max(1.0, abs(z.real))))
    eps = _DD_EPS if res.mode == "extended" else _EPS
    # cancellation floor: pointwise series noise peaks at the left edge
    # and integrates against |e^{izu}| <= e^{|Im z| max|u|}
    noise = 4.0 * eps * _f_abs_sum(lo, n) * (hi - lo) \
        * math.exp(abs(z.imag) * max(-lo, hi))
    err = res.error + eps * res.abs_integral + noise
    value = res.value
    if z.imag == 0.0:
        if abs(value.imag) > max(1e-8 * res.abs_integral, 50.0 * err):
            raise NonConvergence(
                f"imaginary residue {value.imag:.3e} at real z = {z.real:g}")
        value = complex(value.real, 0.0)
    return value, err


# ---------- scan plumbing: F as the transform weight ----------


@dataclass(frozen=True)
class _XiSource:
    """Duck-typed stand-in for ZSpec: F(|u|) e^{-bu^2} as the weight.

    The reflection is justified by the separately tested evenness of F;
    it keeps the cancellation noise of direct negative-u sums out of the
    scan, whose own floor is then the honest eps * integral(F).
    """

    b: float
    cfg: XiConfig

    def __post_init__(self):
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise InvalidSpec("b must be finite and nonnegative")

    def weights(self):
        n = _term_count(0.0, _TERM_TAIL_TOL)
        n_dd = _term_count(0.0, _TERM_TAIL_TOL * 2.0**-53)
        b = self.b

        def g(u):
            with np.errstate(under="ignore"):
                w = _f_array(np.abs(np.asarray(u, float)), n)
                if b:
                    w = w * np.exp(-b * np.asarray(u, float) ** 2)
            return w

        def g_dd(u: DD) -> DD:
            w = _f_dd(abs(u), n_dd)
            if b:
                w = w * dd.exp(u.sqr() * (-b))
            return w

        return g, g_dd

    def radius(self, im_z: float, pc: PrecisionConfig) -> float:
        # F decays doubly exponentially, so the window never widens with
        # Im z at the rectangle heights used here
        return _U_MAX

    def with_b(self, b: float) -> "_XiSource":
        return _XiSource(b, self.cfg)


_Z_MAX_CAP = 50.0  # precision budget of the scan floor


def xi_zeros(z_max: float, cfg: XiConfig | None = None,
             b: float = 0.0) -> ZeroTable:
    """Real zeros of xi_eval(., b) on [0, z_max], winding-verified.

    Runs the shared scan/polish pipeline with F as the weight, then
    counts zeros on [0, x] x [-2, 2] by the boundary argument for the
    largest resolvable x; the comparison lands in the table notes, and a
    mismatch is reported, never silently dropped.
    """
    cfg = cfg or XiConfig()
    if not (0.0 < z_max <= _Z_MAX_CAP):
        raise InvalidSpec(f"z_max must lie in (0, {_Z_MAX_CAP:g}]")
    src = _XiSource(float(b), cfg)
    rep = verify_reality(src, z_max, delta=2.0, qc=cfg.qc, pc=cfg.pc)
    table = rep.table
    verdict = "match" if rep.passed else "MISMATCH"
    table.notes.append(
        f"winding count on [{rep.window[0]:g}, {rep.window[1]:.8g}] x "
        f"[-2, 2]: {rep.n_rect} vs {rep.n_real} real zero(s) ({verdict})")
    if rep.tail_note:
        table.notes.append(rep.tail_note)
    return table


def xi_rect_count(rect: Rect, cfg: XiConfig | None = None,
                  b: float = 0.0) -> int:
    """Zero count of xi_eval(., b) inside a rectangle by winding number."""
    cfg = cfg or XiConfig()
    return count_zeros_rect(_XiSource(float(b), cfg), rect,
                            qc=cfg.qc, pc=cfg.pc)


def xi_flow(b_grid, z_max: float, cfg: XiConfig | None = None) -> FlowResult:
    """Trajectories of the real zeros along an increasing damping grid.

    Same contract as ztransform.flow_zeros; exploratory output, no law
    about the trajectories is asserted here.
    """
    cfg = cfg or XiConfig()
    if not (0.0 < z_max <= _Z_MAX_CAP):
        raise InvalidSpec(f"z_max must lie in (0, {_Z_MAX_CAP:g}]")
    return flow_zeros(_XiSource(0.0, cfg), b_grid, z_max, pc=cfg.pc)


# ---------- independent oracle: eta series and the Gamma factor ----------


def zeta_eta(s: complex) -> complex:
    """zeta(s) for Re s > 0, s != 1, via the alternating eta series.

    The head is summed directly past the oscillation build-up (about
    2.4 |Im s| terms); the tail is accelerated by the Euler transform,
    whose averaged differences stay O(|head terms|), so the route is
    cancellation-free and shares nothing with the F-series path.
    """
    s = complex(s)
    if s.real <= 0.0:
        raise DomainError("eta route requires Re s > 0")
    if s == 1.0:
        raise DomainError("zeta pole at s = 1")
    n_head = max(32, int(math.ceil(2.4 * abs(s.imag))))
    n_euler = 40
    head = 0j
    sign = 1.0
    for k in range(1, n_head + 1):
        head += sign * k ** (-s)
        sign = -sign
    # Euler transform of sum_{j>=0} (-1)^j (n_head+1+j)^{-s}
    arr = [(n_head + 1 + j) ** (-s) for j in range(n_euler)]
    tail = 0j
    scale = 0.5
    for _ in range(n_euler):
        tail += arr[0] * scale
        scale *= 0.5
        arr = [arr[j] - arr[j + 1] for j in range(len(arr) - 1)]
    eta = head + (-1.0) ** n_head * tail
    return eta / (1.0 - 2.0 ** (1.0 - s))


_T_MAX = 60.0


def zeta_critical_line(t: float) -> complex:
    """zeta(1/2 + it) for |t| <= 60, relative error about 1e-12."""
    t = float(t)
    if abs(t) > _T_MAX:
        raise RangeExceeded(f"|t| = {abs(t):g} exceeds the eta-series "
                            f"budget {_T_MAX:g}")
    return zeta_eta(complex(0.5, t))


def xi_from_zeta(z: float) -> complex:
    """Reference value s(s-1)/2 pi^{-s/2} Gamma(s/2) zeta(s), s = 1/2 + iz.

    Real z only; this is the oracle the F route is measured against, so it
    deliberately avoids every ingredient of F_eval.
    """
    z = float(z)
    s = complex(0.5, z)
    zeta = zeta_critical_line(z)
    pref = 0.5 * s * (s - 1.0)
    val = pref * cmath.exp(-0.5 * s * math.log(math.pi)) \
        * gamma_complex(0.5 * s) * zeta
    return complex(val)
