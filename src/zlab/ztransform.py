"""Damped Fourier transforms of the induced measure and their real zeros.

For an admissible measure rho and damping b >= 0 this evaluates

    Z_b(z) = int e^{i z u - b u^2} rho(u) du,

an even entire function of z, real on the real axis because rho is even.
Three routes are provided and kept deliberately independent so they can
cross-check each other: adaptive quadrature (any spec), the moment series
sum (-1)^j z^{2j} m_{2j} / (2j)! (any spec, moderate z), and a closed
hypergeometric form for the quartic-weight member (b = 0 only).

Zero machinery: a vectorized composite-rule scan locates sign changes on
[0, z_max], classifies sub-noise stretches honestly instead of inventing
zeros in decayed tails, then bisects and Newton-polishes each credible
candidate with full adaptive evaluations.  A rectangle count walks the
boundary argument, and verify_reality compares the two on the largest
window the arithmetic can actually resolve.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryTooCloseToZero,
    InvalidSpec,
    NonConvergence,
    NonIntegerResult,
    PrecisionExhausted,
    SeriesDivergence,
    StepTooCoarseWarning,
)
from .numerics import ddouble as dd
from .numerics.ddouble import DD, DDComplex
from .numerics.quadrature import (
    NATIVE,
    PrecisionConfig,
    QuadratureConfig,
    integrate_adaptive,
)
from .numerics.specfun import hyper0f2
from .rho import RhoSpec, density, density_dd, gue_spec, support_radius
from .rho import moments as rho_moments

_EPS = float(np.finfo(float).eps)
_DD_EPS = 2.0**-104


@dataclass(frozen=True)
class ZSpec:
    """Measure plus Gaussian damping weight e^{-b u^2}.

    The evaluators and the zero machinery below reach the measure only
    through weights()/radius()/with_b() and the b attribute, so any other
    even weight with the same surface (see the xi module) plugs in.
    """

    spec: RhoSpec
    b: float = 0.0

    def __post_init__(self):
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise InvalidSpec("b must be finite and nonnegative")

    def weights(self):
        spec, b = self.spec, self.b

        def g(u):
            w = density(spec, u)
            if b:
                with np.errstate(under="ignore"):
                    w = w * np.exp(-b * np.asarray(u, float) ** 2)
            return w

        def g_dd(u: DD) -> DD:
            w = density_dd(spec, u)
            if b:
                w = w * dd.exp(u.sqr() * (-b))
            return w

        return g, g_dd

    def radius(self, im_z: float, pc: PrecisionConfig) -> float:
        # wide enough for the extended-precision floor: escalation reuses
        # the panel set chosen here, so a native-grade truncation would cap
        # the accuracy of escalated results near e-120 tails
        return support_radius(self.spec, -120.0, b=self.b,
                              extra_linear=abs(im_z))

    def with_b(self, b: float) -> "ZSpec":
        return ZSpec(self.spec, b)


@dataclass
class ZValue:
    z: complex
    value: complex
    error: float
    method: str
    mode: str
    escalated: bool = False
    value_dd: DDComplex | None = field(default=None, repr=False)

    @property
    def real(self) -> float:
        return self.value.real


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidSpec("rectangle must have positive width and height")


@dataclass(frozen=True)
class Zero:
    index: int
    z: float
    residual: float
    derivative: float


@dataclass
class ZeroTable:
    b: float
    z_max: float
    step: float
    mode: str
    zeros: list[Zero]
    noise_regions: list[tuple[float, float]]
    notes: list[str]


@dataclass
class RealityReport:
    passed: bool
    window: tuple[float, float]
    n_real: int
    n_rect: int
    delta: float
    table: ZeroTable
    tail_note: str


@dataclass
class FlowResult:
    b_values: list[float]
    # each trajectory is a list of (b, z) samples for one tracked zero
    trajectories: list[list[tuple[float, float]]]
    ambiguities: list[str]
    tables: list[ZeroTable]


# ---------- route 1: adaptive quadrature ----------


def eval_quadrature(
    zspec: ZSpec,
    z: complex,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> ZValue:
    """Z_b(z) by adaptive panels over the full two-sided support."""
    qc = qc or QuadratureConfig()
    z = complex(z)
    g, g_dd = zspec.weights()
    U = qc.truncation_radius or zspec.radius(z.imag, pc)

    def f(u):
        return np.exp(1j * z * u) * g(u)

    zr = DD(z.real, 0.0)
    zi = DD(z.imag, 0.0)

    def f_dd(u: DD) -> DDComplex:
        amp = g_dd(u)
        if z.imag:
            amp = amp * dd.exp(u * (-z.imag))
        zero = DD(np.zeros_like(np.asarray(u.hi, float)),
                  np.zeros_like(np.asarray(u.hi, float)))
        return dd.exp_i(u * z.real) * DDComplex(amp, zero)

    res = integrate_adaptive(
        f, -U, U, qc=qc, pc=pc, f_dd=f_dd,
        max_panel_width=math.pi / (2.0 * max(1.0, abs(z.real))))
    floor = (_DD_EPS if (res.mode == "extended") else _EPS) * res.abs_integral
    err = res.error + floor
    value = res.value
    if z.imag == 0.0:
        # real damping of an even real measure: the transform is real
        if abs(value.imag) > max(1e-10 * res.abs_integral, 50.0 * err):
            raise NonConvergence(
                f"imaginary residue {value.imag:.3e} at real z = {z.real:g}")
        value = complex(value.real, 0.0)
    return ZValue(z=z, value=value, error=err, method="quadrature",
                  mode=res.mode, escalated=res.escalated,
                  value_dd=res.value_dd)


# ---------- route 2: moment series ----------


_MAX_MOMENT_TABLES = 64


@functools.lru_cache(maxsize=_MAX_MOMENT_TABLES)
def _cached_moments(spec: RhoSpec, b: float, k: int, qc: QuadratureConfig):
    return rho_moments(spec, k, b=b, qc=qc, pc=PrecisionConfig("extended"))


def _sum_series(z: float, mo, extended: bool):
    """Alternating moment series in one mode.

    Returns (value, error, status): status 'converged' when terms fell to
    the arithmetic floor, 'truncated' when the moments ran out while the
    terms were already decaying (error then includes the tail estimate),
    'short' when more moments are required.
    """
    eps = _DD_EPS if extended else _EPS
    floor = 1e-36 if extended else 1e-20
    zz = DD.from_product(z, z) if extended else z * z
    term = DD(1.0, 0.0) if extended else 1.0  # z^{2j} / (2j)!
    total = DD(0.0, 0.0) if extended else 0.0
    max_term = 0.0
    mag = prev = math.inf
    below = 0
    for j in range(0, (len(mo) - 1) // 2 + 1):
        t = term * (mo.values_dd[2 * j] if extended else mo.values[2 * j])
        if j % 2 == 1:
            t = -t
        total = total + t
        prev = mag
        mag = abs(t.hi) if extended else abs(t)
        max_term = max(max_term, mag)
        if mag <= floor * max_term + 1e-320:
            below += 1
            if below >= 3:
                value = total.to_float() if extended else total
                return value, eps * max_term, "converged"
        else:
            below = 0
        term = term * zz / float((2 * j + 1) * (2 * j + 2))
    value = total.to_float() if extended else total
    err = eps * max_term + 10.0 * mag
    # decaying tail: the next terms are bounded by a small multiple of the
    # last one, so the sum is usable with an honest truncation error
    if mag < prev and mag <= 1e-15 * max(abs(value), eps * max_term):
        return value, err, "truncated"
    return value, err, "short"


def eval_series(
    zspec: ZSpec,
    z: float,
    k_max: int | None = None,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> ZValue:
    """Z_b(z) = sum_j (-1)^j z^{2j} m_{2j} / (2j)! from even moments.

    Moments are always integrated in extended precision (and cached per
    spec, b, count and quadrature config); the summation runs in the
    requested mode.  SeriesDivergence
    reports fatal cancellation at the requested precision rather than
    returning noise; NonConvergence means the moment budget ran out while
    terms were still large, which is the series route's honest domain
    boundary at large z.
    """
    z = float(z)
    qc = qc or QuadratureConfig()
    extended = pc.mode == "extended"
    ks = [k_max] if k_max is not None else [80, 160]
    value = err = None
    for k in ks:
        mo = _cached_moments(zspec.spec, zspec.b, k, qc)
        value, err, status = _sum_series(z, mo, extended)
        if status in ("converged", "truncated"):
            break
    else:
        raise NonConvergence(
            f"moment series still has large terms with {ks[-1]} moments "
            f"at z = {z:g}")
    if abs(value) <= err:
        raise SeriesDivergence(
            f"series cancellation fatal at z = {z:g} in "
            f"{'extended' if extended else 'native'} mode: "
            f"value {value:.3e}, noise {err:.3e}")
    return ZValue(z=z, value=complex(value, 0.0), error=err,
                  method="series",
                  mode="extended" if extended else "native")


# ---------- route 3: hypergeometric closed form (quartic weight) ----------

_SADDLE_RATE = 0.2976  # fitted decay of ln|Z| against z^{4/3}


def gue_envelope(z: float) -> float:
    """Amplitude envelope of the quartic-weight transform on the real axis."""
    return math.exp(-_SADDLE_RATE * abs(z) ** (4.0 / 3.0))


def eval_gue_hypergeom(z: float, pc: PrecisionConfig = NATIVE) -> ZValue:
    """Closed form for the quartic weight e^{-u^4/2} at b = 0.

    Z(z) = 2^{1/4} H(2^{1/4} z) with
    H(zeta) = [2 sqrt(2) pi F(1/2, 3/4; x) - zeta^2 G(3/4)^2 F(5/4, 3/2; x)]
              / (4 G(3/4)),  x = zeta^4 / 256.

    Both 0F2 pieces are positive and huge for large x while their
    combination is exponentially small; the error estimate tracks the
    pieces, and PrecisionExhausted fires when it swamps the local
    amplitude envelope (so no digits of the answer survive).
    """
    z = float(z)
    extended = pc.mode == "extended"
    if extended:
        zeta = DD(z, 0.0) * dd.sqrt(dd.SQRT2)  # 2^{1/4} z
        x = dd.powi(zeta, 4) * DD(1.0 / 256.0, 0.0)
        f1 = hyper0f2(0.5, 0.75, x, pc=pc, rel_tol=1e-34)
        f2 = hyper0f2(1.25, 1.5, x, pc=pc, rel_tol=1e-34)
        c1 = dd.PI * dd.SQRT2.scale2(2.0)  # 2 sqrt(2) pi
        g34 = dd.GAMMA_3_4
        p1 = c1 * f1
        p2 = zeta.sqr() * g34.sqr() * f2
        h = (p1 - p2) / (g34.scale2(4.0))
        val_dd = h * dd.sqrt(dd.SQRT2)
        value = val_dd.to_float()
        piece = (abs(p1.hi) + abs(p2.hi)) / (4.0 * g34.hi) * 2.0**0.25
        err = _DD_EPS * piece
    else:
        zeta = z * 2.0**0.25
        x = zeta**4 / 256.0
        f1 = hyper0f2(0.5, 0.75, x)
        f2 = hyper0f2(1.25, 1.5, x)
        g34 = dd.GAMMA_3_4.hi
        p1 = 2.0 * math.sqrt(2.0) * math.pi * f1
        p2 = zeta * zeta * g34 * g34 * f2
        value = (p1 - p2) / (4.0 * g34) * 2.0**0.25
        piece = (abs(p1) + abs(p2)) / (4.0 * g34) * 2.0**0.25
        err = _EPS * piece
        val_dd = None
    env = gue_envelope(z) * 2.0  # prefactor headroom
    if err > 0.3 * env:
        raise PrecisionExhausted(
            f"hypergeometric cancellation at z = {z:g}: noise {err:.3e} "
            f"vs amplitude envelope {env:.3e} in {pc.mode} mode")
    return ZValue(z=z, value=complex(value, 0.0), error=err,
                  method="hypergeom",
                  mode="extended" if extended else "native",
                  value_dd=DDComplex(val_dd, DD(0.0, 0.0)) if extended else None)


# ---------- composite scan rule ----------


class _ScanRule:
    """Fixed composite Gauss rule on [-U, U] shared by every scan z.

    Panel width is capped at pi / (2 z_max) so the most oscillatory
    integrand on the scan is still resolved; the order-16 versus order-32
    difference provides a per-z error estimate.
    """

    def __init__(self, zspec: ZSpec, z_max: float, pc: PrecisionConfig):
        from .numerics.quadrature import gauss_nodes

        g, g_dd = zspec.weights()
        U = zspec.radius(0.0, pc)
        width = min(math.pi / (2.0 * max(1.0, z_max)), U / 8.0)
        n_panels = int(math.ceil(2.0 * U / width))
        edges = np.linspace(-U, U, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs16, ws16 = gauss_nodes(16)
        xs32, ws32 = gauss_nodes(32)
        self.u16 = (mid[:, None] + half[:, None] * xs16[None, :]).ravel()
        self.w16 = (half[:, None] * ws16[None, :]).ravel() * g(self.u16)
        self.u32 = (mid[:, None] + half[:, None] * xs32[None, :]).ravel()
        self.w32 = (half[:, None] * ws32[None, :]).ravel() * g(self.u32)
        self.abs_integral = float(np.sum(np.abs(self.w32)))
        self.U = U
        # extended mode rebuilds the rule with dd abscissae and weights:
        # float64 node positions perturb the rule by ~ z * eps * absint,
        # which would otherwise cap the scan window far above the dd floor
        self.extended = pc.mode == "extended"
        if self.extended:
            from .numerics.quadrature import gauss_nodes_dd

            def build(order):
                xd, wd = gauss_nodes_dd(order)
                x_t = DD(np.tile(xd.hi, n_panels), np.tile(xd.lo, n_panels))
                w_t = DD(np.tile(wd.hi, n_panels), np.tile(wd.lo, n_panels))
                # midpoints and half-widths in dd so adjacent panels tile
                # the interval exactly; float rounding here would leave
                # edge gaps that integrate to a low-frequency bias far
                # above the dd floor
                lo_t = np.repeat(edges[:-1], order)
                hi_t = np.repeat(edges[1:], order)
                mid_dd = (DD(lo_t, np.zeros_like(lo_t)) + hi_t).scale2(0.5)
                half_dd = (DD(hi_t, np.zeros_like(hi_t)) - lo_t).scale2(0.5)
                u_dd = x_t * half_dd + mid_dd
                return u_dd, w_t * half_dd * g_dd(u_dd)

            self.u16_dd, self.w16_dd = build(16)
            self.u32_dd, self.w32_dd = build(32)

    def _dd_value(self, z: float, u_dd: DD, w_dd: DD) -> float:
        # even weights on symmetric nodes: the sine part cancels exactly,
        # so the real scan only needs cos(z u)
        return dd.reduce_sum(w_dd * dd.cos(u_dd * z)).to_float()

    def eval_grid(self, zs: np.ndarray):
        """values (order 32), error estimates (|16 - 32|), both real parts."""
        n = zs.size
        v16 = np.empty(n)
        v32 = np.empty(n)
        im32 = np.zeros(n)
        if self.extended:
            for i, z in enumerate(zs):
                v16[i] = self._dd_value(float(z), self.u16_dd, self.w16_dd)
                v32[i] = self._dd_value(float(z), self.u32_dd, self.w32_dd)
            err = np.abs(v16 - v32) + _DD_EPS * self.abs_integral
            return v32, err
        chunk = max(1, int(4_000_000 // max(1, self.u32.size)))
        for s in range(0, n, chunk):
            zc = zs[s:s + chunk]
            e16 = np.exp(1j * np.outer(zc, self.u16))
            v16[s:s + chunk] = (e16 @ self.w16).real
            e32 = np.exp(1j * np.outer(zc, self.u32))
            acc = e32 @ self.w32
            v32[s:s + chunk] = acc.real
            im32[s:s + chunk] = acc.imag
        err = np.abs(v16 - v32) + _EPS * self.abs_integral + np.abs(im32)
        return v32, err

    def eval_one(self, z: float) -> float:
        if self.extended:
            return self._dd_value(z, self.u32_dd, self.w32_dd)
        return float((np.exp(1j * z * self.u32) @ self.w32).real)


def _spacing_estimate(zspec: ZSpec, pc: PrecisionConfig) -> float:
    # transforms of measures spread over [-U, U] have zeros no denser than
    # about pi / U
    U = zspec.radius(0.0, pc)
    return math.pi / U


# ---------- real-zero scan ----------


def find_real_zeros(
    zspec: ZSpec,
    z_max: float,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
    step: float | None = None,
) -> ZeroTable:
    """Locate the real zeros of Z_b on [0, z_max].

    Sign changes whose flanking magnitudes sit below ten times the local
    error estimate are recorded as noise regions, not zeros; candidates
    above the floor are bisected on the composite rule and polished with
    adaptive Newton steps, then accepted only if the final residual is
    within a hundred times the evaluation error.
    """
    if not (0.0 < z_max < math.inf):
        raise InvalidSpec("z_max must be finite and positive")
    if step is not None and not (0.0 < step < math.inf):
        raise InvalidSpec("step must be finite and positive")
    qc = qc or QuadratureConfig()
    spacing = _spacing_estimate(zspec, pc)
    h = spacing / 6.0 if step is None else step
    rule = _ScanRule(zspec, z_max, pc)
    zs = np.arange(0.0, z_max + h, h)
    zs = zs[zs <= z_max + 1e-12]
    if zs[-1] < z_max:
        # close the last partial step so a zero in it is still bracketed
        zs = np.append(zs, z_max)
    vals, errs = rule.eval_grid(zs)

    # local amplitude envelope over a one-spacing window
    W = max(3, int(math.ceil(spacing / h)))
    absv = np.abs(vals)
    env = np.array([absv[max(0, i - W):i + W + 1].max() for i in range(zs.size)])

    notes: list[str] = []
    noise_mask = env < 10.0 * errs
    noise_regions: list[tuple[float, float]] = []
    i = 0
    while i < zs.size:
        if noise_mask[i]:
            j = i
            while j + 1 < zs.size and noise_mask[j + 1]:
                j += 1
            noise_regions.append((float(zs[i]), float(zs[j])))
            i = j + 1
        else:
            i += 1

    mode = "extended" if pc.mode == "extended" else "native"
    zeros: list[Zero] = []
    rejected = 0
    for i in range(zs.size - 1):
        if not vals[i] * vals[i + 1] < 0.0:
            continue
        if noise_mask[i] or noise_mask[i + 1]:
            continue  # inside a recorded noise region
        lo, hi = float(zs[i]), float(zs[i + 1])
        flo = vals[i]
        for _ in range(40):
            midp = 0.5 * (lo + hi)
            fm = rule.eval_one(midp)
            if flo * fm <= 0.0:
                hi = midp
            else:
                lo = midp
                flo = fm
        root = 0.5 * (lo + hi)
        # adaptive Newton polish in the requested mode
        for _ in range(2):
            v = eval_quadrature(zspec, root, qc=qc, pc=pc)
            dv = _deriv_quadrature(zspec, root, qc=qc, pc=pc)
            if dv == 0.0:
                break
            root -= v.real / dv
        if zeros and abs(root - zeros[-1].z) < 0.5 * h:
            continue  # Newton drifted back into the previous cell
        final = eval_quadrature(zspec, root, qc=qc, pc=pc)
        dfinal = _deriv_quadrature(zspec, root, qc=qc, pc=pc)
        # a float root cannot witness a residual below |Z'| * ulp(z_k), so
        # that term joins the quadrature error in the acceptance threshold
        tol_res = 1e2 * (final.error
                         + abs(dfinal) * _EPS * max(1.0, abs(root)))
        if abs(final.real) <= tol_res:
            zeros.append(Zero(index=len(zeros), z=root,
                              residual=abs(final.real), derivative=dfinal))
        else:
            rejected += 1
    if rejected:
        notes.append(f"{rejected} candidate(s) failed the residual check")
    if len(zeros) >= 2:
        gaps = np.diff([zr.z for zr in zeros])
        if gaps.min() < 4.0 * h:
            warnings.warn(
                f"zero spacing {gaps.min():.3g} is close to the scan step "
                f"{h:.3g}; rerun with a smaller step",
                StepTooCoarseWarning)
    return ZeroTable(b=zspec.b, z_max=z_max, step=h, mode=mode,
                     zeros=zeros, noise_regions=noise_regions, notes=notes)


def _deriv_quadrature(zspec, z: float, qc=None, pc=NATIVE) -> float:
    qc = qc or QuadratureConfig()
    g, g_dd = zspec.weights()
    U = qc.truncation_radius or zspec.radius(0.0, pc)

    def f(u):
        return 1j * u * np.exp(1j * z * u) * g(u)

    def f_dd(u: DD) -> DDComplex:
        amp = g_dd(u)
        zero = DD(np.zeros_like(np.asarray(u.hi, float)),
                  np.zeros_like(np.asarray(u.hi, float)))
        return dd.exp_i(u * z) * DDComplex(zero, amp * u)

    res = integrate_adaptive(f, -U, U, qc=qc, pc=pc, f_dd=f_dd,
                             max_panel_width=math.pi / (2.0 * max(1.0, abs(z))))
    return res.value.real


# ---------- rectangle count by boundary argument ----------


def walk_winding(zfun, rect: Rect, spacing: float,
                 max_points: int = 20000) -> int:
    """Winding number of an analytic function around a rectangle boundary.

    zfun(p) must return (value, error_bound) at the complex point p.  The
    walk keeps every argument increment below pi/2 by inserting midpoints;
    a boundary point whose magnitude is within ten times its error bound
    raises BoundaryTooCloseToZero, and a non-integer winding raises
    NonIntegerResult.  Shared by the transform machinery here and by any
    other even entire function with a pointwise evaluator.
    """
    corners = [complex(rect.x0, rect.y0), complex(rect.x1, rect.y0),
               complex(rect.x1, rect.y1), complex(rect.x0, rect.y1),
               complex(rect.x0, rect.y0)]
    pts: list[complex] = []
    for a, bp in zip(corners[:-1], corners[1:]):
        seg_len = abs(bp - a)
        # three points per expected zero spacing; midpoint insertion below
        # refines wherever the argument still turns faster than pi/2
        n = max(8, int(math.ceil(3.0 * seg_len / spacing)))
        for k in range(n):
            pts.append(a + (bp - a) * (k / n))
    pts.append(corners[0])

    cache: dict[complex, complex] = {}

    def zval(p: complex) -> complex:
        if p not in cache:
            value, err = zfun(p)
            if abs(value) < 10.0 * err:
                raise BoundaryTooCloseToZero(
                    f"|Z({p:g})| = {abs(value):.3e} is within 10x the "
                    f"evaluation error {err:.3e}")
            cache[p] = value
        return cache[p]

    total = 0.0
    stack = list(zip(pts[:-1], pts[1:]))
    processed = 0
    while stack:
        a, bp = stack.pop()
        processed += 1
        if processed > max_points:
            raise NonConvergence("boundary refinement budget exhausted")
        dphi = math.remainder(np.angle(zval(bp)) - np.angle(zval(a)),
                              2.0 * math.pi)
        if abs(dphi) >= 0.5 * math.pi and abs(bp - a) > 1e-12:
            m = 0.5 * (a + bp)
            stack.append((a, m))
            stack.append((m, bp))
            continue
        total += dphi
    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 0.1:
        raise NonIntegerResult(
            f"winding {winding:.4f} is not within 0.1 of an integer")
    return int(nearest)


def count_zeros_rect(
    zspec: ZSpec,
    rect: Rect,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
    max_points: int = 20000,
) -> int:
    """Winding number of Z_b around the rectangle boundary."""
    qc = qc or QuadratureConfig()
    spacing = _spacing_estimate(zspec, pc)
    # the walk only consumes arguments of Z, so escalation would buy
    # nothing but runtime; window selection in verify_reality uses the
    # same non-escalating errors, keeping the two mutually consistent
    pc_walk = PrecisionConfig(pc.mode, escalate_threshold=0.0)

    def zfun(p: complex):
        res = eval_quadrature(zspec, p, qc=qc, pc=pc_walk)
        return res.value, res.error

    return walk_winding(zfun, rect, spacing, max_points=max_points)


# ---------- reality verification ----------


def verify_reality(
    zspec: ZSpec,
    z_max: float,
    delta: float = 0.5,
    x_min: float = 0.0,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> RealityReport:
    """Compare the real-axis zero count against the rectangle count on
    [0, x_res] x [-delta, delta], with x_res the largest extent where the
    boundary values still dominate their error estimates.

    When the transform decays below the arithmetic floor before z_max, the
    unverifiable tail is reported as such; the scan must also find nothing
    credible there, so 'no zeros' in the report window remains an honest
    statement rather than a claim about invisible territory.
    """
    qc = qc or QuadratureConfig()
    table = find_real_zeros(zspec, z_max, qc=qc, pc=pc)
    spacing = _spacing_estimate(zspec, pc)
    # probe with the boundary walk's own precision (no escalation) so the
    # selected window is exactly the region the walk can resolve
    pc_walk = PrecisionConfig(pc.mode, escalate_threshold=0.0)

    def edge_ok(x: float) -> bool:
        res = eval_quadrature(zspec, complex(x, delta), qc=qc, pc=pc_walk)
        return abs(res.value) > 30.0 * res.error

    # probe the top edge from z_max inward for the last resolvable x
    n_probe = 40
    xs = np.linspace(z_max, max(z_max / n_probe, 1e-3), n_probe)
    x_res = 0.0
    for x in xs:
        if edge_ok(float(x)):
            x_res = float(x)
            break
    if x_res == 0.0:
        raise PrecisionExhausted(
            f"no boundary point on [0, {z_max:g}] x {{{delta:g}i}} is "
            f"resolvable in {pc.mode} mode")

    n_rect = None
    for shift in (0.0, -0.25 * spacing, -0.5 * spacing, -0.75 * spacing):
        x_try = min(x_res + shift, z_max)
        if x_try <= x_min:
            continue
        try:
            n_rect = count_zeros_rect(
                zspec, Rect(x_min, x_try, -delta, delta), qc=qc, pc=pc)
            x_res = x_try
            break
        except BoundaryTooCloseToZero:
            continue
    if n_rect is None:
        raise BoundaryTooCloseToZero(
            "could not place a rectangle edge away from zeros")

    in_window = [zr for zr in table.zeros if x_min < zr.z <= x_res]
    passed = n_rect == len(in_window)
    if x_res < z_max - 1e-9:
        tail = (f"window [{x_res:.6g}, {z_max:g}] is below the {pc.mode} "
                f"noise floor and cannot be verified by winding counts")
        credible_tail = [zr for zr in table.zeros if zr.z > x_res]
        if credible_tail:
            tail += f"; scan still reports {len(credible_tail)} zero(s) there"
        else:
            tail += "; the scan reports no credible zeros there"
    else:
        tail = ""
    return RealityReport(passed=passed, window=(x_min, x_res),
                         n_real=len(in_window), n_rect=n_rect, delta=delta,
                         table=table, tail_note=tail)


# ---------- zero flow in b ----------


def flow_zeros(
    zspec: ZSpec,
    b_values,
    z_max: float,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> FlowResult:
    """Track each real zero along an increasing damping schedule.

    Matching is nearest-neighbor with radius max(0.6, 4 * delta_b); a
    contested match is recorded as an ambiguity, never silently resolved.
    """
    bs = [float(x) for x in b_values]
    if len(bs) < 2 or any(b2 <= b1 for b1, b2 in zip(bs[:-1], bs[1:])):
        raise InvalidSpec("b_values must be strictly increasing, length >= 2")
    tables = [find_real_zeros(zspec.with_b(b), z_max, qc=qc, pc=pc)
              for b in bs]
    trajectories: list[list[tuple[float, float]]] = [
        [(bs[0], zr.z)] for zr in tables[0].zeros]
    open_traj = list(range(len(trajectories)))
    ambiguities: list[str] = []
    for i in range(1, len(bs)):
        radius = max(0.6, 4.0 * (bs[i] - bs[i - 1]))
        prev_pos = {t: trajectories[t][-1][1] for t in open_traj}
        claimed: dict[int, int] = {}
        # greedy by distance: smallest gaps claim first
        pairs = sorted(
            (abs(zr.z - prev_pos[t]), t, k)
            for t in open_traj for k, zr in enumerate(tables[i].zeros)
            if abs(zr.z - prev_pos[t]) <= radius)
        matched = set()
        for dist, t, k in pairs:
            if t in matched:
                continue
            if k in claimed:
                ambiguities.append(
                    f"b={bs[i]:g}: zero at {tables[i].zeros[k].z:.6g} "
                    f"claimed by two trajectories (gap {dist:.3g})")
                continue
            claimed[k] = t
            matched.add(t)
            trajectories[t].append((bs[i], tables[i].zeros[k].z))
        open_traj = [t for t in open_traj if t in matched]
        for k, zr in enumerate(tables[i].zeros):
            if k not in claimed:  # a zero entering the window
                trajectories.append([(bs[i], zr.z)])
                open_traj.append(len(trajectories) - 1)
    return FlowResult(b_values=bs, trajectories=trajectories,
                      ambiguities=ambiguities, tables=tables)


# ---------- zero table wire formats ----------


def zero_table_to_csv(table: ZeroTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(["b", "k", "z_k", "residual", "derivative"])
    for zr in table.zeros:
        w.writerow([repr(table.b), zr.index, repr(zr.z),
                    repr(zr.residual), repr(zr.derivative)])
    return buf.getvalue()


def zero_table_from_csv(text: str) -> list[Zero]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["b", "k", "z_k", "residual", "derivative"]:
        raise InvalidSpec("zero table CSV must carry the standard header")
    return [Zero(index=int(r[1]), z=float(r[2]), residual=float(r[3]),
                 derivative=float(r[4])) for r in rows[1:] if r]


def zero_table_to_json(table: ZeroTable) -> dict:
    return {
        "b": table.b,
        "z_max": table.z_max,
        "step": table.step,
        "mode": table.mode,
        "zeros": [{"k": zr.index, "z": zr.z, "residual": zr.residual,
                   "derivative": zr.derivative} for zr in table.zeros],
        "noise_regions": [list(r) for r in table.noise_regions],
        "notes": list(table.notes),
    }
