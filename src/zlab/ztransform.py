"""Damped Fourier transforms of the induced measure and their real zeros.

For an admissible measure rho and damping b >= 0 this evaluates

    Z_b(z) = int e^{i z u - b u^2} rho(u) du,

an even entire function of z, real on the real axis because rho is even.
Three routes are provided and kept deliberately independent so they can
cross-check each other: adaptive quadrature (any spec), the moment series
sum (-1)^j z^{2j} m_{2j} / (2j)! (any spec, moderate z), and a closed
hypergeometric form for the quartic-weight member (b = 0 only).

Zero machinery: a trapezoid-rule scan on a power-of-two u grid (one rule
per precision mode, evaluated over the z grid in whole-array chunks)
locates sign changes on [0, z_max], classifies sub-noise stretches
honestly instead of inventing zeros in decayed tails, then polishes each
credible candidate by a cell-guarded Halley iteration on the same rule in
double-double, all candidates together, one rule pass per step.  A
rectangle count walks the boundary argument, sharing no evaluator with the
scan, and verify_reality compares the two on the largest resolvable
window.  The walk and the top-edge probes that pick
that window evaluate Z by one fixed rule per rectangle
(numerics.evenrule):
composite Gauss-Legendre panels of order 16 and 32 on [0, U], the even
weight folded onto u >= 0 so that points sharing Im z share one cosh/sinh
row and Z(conj z) = conj Z(z) is exact, the weight evaluated once, and
each generation of boundary points taken in one batch through
eval_quadrature.  A point whose order-16/32 estimate fails the adaptive
stopping test falls back to adaptive quadrature alone, in the walk's own
mode with escalation off.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from dataclasses import dataclass

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
from .numerics.evenrule import EvenTransformRule
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
_MAX_GRID = 1 << 20  # most nodes in a scan rule's u grid
# most z points x rule nodes in one scan, per mode, refused before the z
# grid exists: a table just under the cap took about 4 s native and 1.5 s
# extended on a shared 2-vCPU host
_MAX_SCAN_WORK = {"native": 1 << 27, "extended": 1 << 21}
_POLISH_STEPS = 12  # most rule evaluations in one zero's polish
_CHUNK = 1 << 16  # z x node terms per scan-grid pass, either mode


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
    rule: EvenTransformRule | None = None,
) -> ZValue:
    """Z_b(z) by quadrature.

    Without a rule, z is one point, integrated by adaptive panels over the
    full two-sided support.  With a rule built for zspec by _boundary_rule,
    z is an array of points evaluated together on the rule's fixed panels,
    in the rule's own mode and tolerances, and the ZValue holds arrays.
    """
    if rule is not None:
        values, errors = rule(z)
        return ZValue(z=z, value=values, error=errors, method="boundary rule",
                      mode="extended" if rule.extended else "native")
    qc = qc or QuadratureConfig()
    z = complex(z)
    g, g_dd = zspec.weights()
    U = zspec.radius(z.imag, pc)

    def f(u):
        return np.exp(1j * z * u) * g(u)

    def f_dd(u: DD) -> DDComplex:
        amp = g_dd(u)
        if z.imag:
            amp = amp * dd.exp(u * (-z.imag))
        zero = DD(np.zeros_like(np.asarray(u.hi, float)),
                  np.zeros_like(np.asarray(u.hi, float)))
        return dd.exp_i(u * z.real) * DDComplex(amp, zero)

    res = integrate_adaptive(
        f, -U, U, qc=qc, pc=pc, f_dd=f_dd,
        max_panel_width=0.5 * math.pi / max(1.0, abs(z.real)))
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
                  mode=res.mode, escalated=res.escalated)


# ---------- route 2: moment series ----------


_MAX_MOMENT_TABLES = 64
_SERIES_MOMENTS = (80, 160)  # moment counts tried in turn by eval_series


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
    ks = _SERIES_MOMENTS
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
            f"{pc.mode} mode: value {value:.3e}, noise {err:.3e}")
    return ZValue(z=z, value=complex(value, 0.0), error=err,
                  method="series", mode=pc.mode)


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
    if pc.mode == "extended":
        zeta = DD(z, 0.0) * dd.sqrt(dd.SQRT2)  # 2^{1/4} z
        x = dd.powi(zeta, 4) * DD(1.0 / 256.0, 0.0)
        f1 = hyper0f2(0.5, 0.75, x, pc=pc, rel_tol=1e-34)
        f2 = hyper0f2(1.25, 1.5, x, pc=pc, rel_tol=1e-34)
        c1 = dd.PI * dd.SQRT2.scale2(2.0)  # 2 sqrt(2) pi
        g34 = dd.GAMMA_3_4
        p1 = c1 * f1
        p2 = zeta.sqr() * g34.sqr() * f2
        h = (p1 - p2) / (g34.scale2(4.0))
        value = (h * dd.sqrt(dd.SQRT2)).to_float()
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
    env = gue_envelope(z) * 2.0  # prefactor headroom
    if err > 0.3 * env:
        raise PrecisionExhausted(
            f"hypergeometric cancellation at z = {z:g}: noise {err:.3e} "
            f"vs amplitude envelope {env:.3e} in {pc.mode} mode")
    return ZValue(z=z, value=complex(value, 0.0), error=err,
                  method="hypergeom", mode=pc.mode)


# ---------- scan rule ----------


class _ScanRule:
    """Trapezoid rule on the half line u = k h, k = 0..ceil(U/h).

    The weights are even, analytic in a strip and Gaussian-decaying, so the
    rule converges geometrically; its error is the aliased transform
    sum_{j != 0} Z(z + 2 pi j / h) (Trefethen & Weideman, SIAM Rev. 2014).
    h is the power of two at or below min(pi / (4 z_max), U / 128), which
    puts the nearest alias of the step-2h rule 3 z_max past the window and
    past the transform's decay, and makes the nodes and the phase z u
    exact.  The grid and the polish share the rule; per z the error
    estimate is |T(h) - T(2h)| + eps * sum |w|, T(2h) over the even nodes.
    The grid passes a column of z against the row of nodes, _CHUNK terms
    at a time, in float64 or in double-double by mode, and the polish a
    column of roots the same way in double-double; dd.reduce_sum folds
    each row exactly as it folds a single z, so the grid's dd values equal
    the polish's bit for bit, and no root's values depend on the roots
    that share its pass.
    """

    def __init__(self, zspec: ZSpec, z_max: float, pc: PrecisionConfig):
        g, self._g_dd = zspec.weights()
        U = zspec.radius(0.0, pc)
        x = min(math.pi / (4.0 * max(1.0, z_max)), U / 128.0)
        # h > x / 2, so the rule has fewer than 2 U / x + 2 nodes
        if not 2.0 * U < x * (_MAX_GRID - 2):
            raise InvalidSpec(f"the scan rule would pass {_MAX_GRID} nodes")
        h = 2.0 ** math.floor(math.log2(x))
        self.u = h * np.arange(int(math.ceil(U / h)) + 1)
        # the even weight folded onto u >= 0: w_0 = h g(0), w_k = 2h g(u_k)
        self._scale = np.full(self.u.size, 2.0 * h)
        self._scale[0] = h
        self.w = self._scale * g(self.u)
        self.extended = pc.mode == "extended"
        self.abs_w = float(np.sum(np.abs(self.w)))
        self.floor = (_DD_EPS if self.extended else _EPS) * self.abs_w

    @functools.cached_property
    def _dd_nodes(self) -> tuple[DD, DD, DD, DD]:
        # (u, w, w u, w u^2) in dd; built on first use, so a native table
        # pays for them only when it has a candidate to polish
        u_dd = dd.from_array(self.u)
        w_dd = self._g_dd(u_dd).scale2(self._scale)
        return u_dd, w_dd, w_dd * self.u, w_dd * self.u**2

    def _native_terms(self, zc: np.ndarray) -> np.ndarray:
        # z u = p + e exactly, and cos(p + e) = cos p - e sin p to O(e^2)
        p, e = dd.two_prod(zc, self.u)
        return self.w * (np.cos(p) - e * np.sin(p))

    @staticmethod
    def _trapezoid(t: DD):
        """T(h) and T(h) - T(2h) from dd terms along the last axis."""
        full = dd.reduce_sum(t)
        half = dd.reduce_sum(DD(t.hi[..., ::2], t.lo[..., ::2])).scale2(2.0)
        return full.to_float(), (full - half).to_float()

    def eval_grid(self, zs: np.ndarray):
        """T(h) at each z and its error estimate |T(h) - T(2h)| + floor."""
        vals = np.empty(zs.size)
        diffs = np.empty(zs.size)
        chunk = max(1, _CHUNK // self.u.size)
        for s in range(0, zs.size, chunk):
            zc = zs[s:s + chunk, None]
            if self.extended:
                u_dd, w_dd, _, _ = self._dd_nodes
                full, diff = self._trapezoid(w_dd * dd.cos(u_dd * zc))
            else:
                t = self._native_terms(zc)
                full = t.sum(axis=1)
                diff = full - 2.0 * t[:, ::2].sum(axis=1)
            vals[s:s + chunk], diffs[s:s + chunk] = full, diff
        return vals, np.abs(diffs) + self.floor

    def eval_polish(self, zs: np.ndarray):
        """T, T' = -sum w u sin(u z), T'' = -sum w u^2 cos(u z) and the dd
        error estimate of T at each z, from dd sincos passes of _CHUNK
        terms whatever the mode."""
        u_dd, w_dd, wu_dd, wu2_dd = self._dd_nodes
        out = np.empty((4, zs.size))
        chunk = max(1, _CHUNK // self.u.size)
        for s in range(0, zs.size, chunk):
            sn, c = dd.sincos(u_dd * zs[s:s + chunk, None])
            value, diff = self._trapezoid(w_dd * c)
            out[:, s:s + chunk] = (
                value, -dd.reduce_sum(wu_dd * sn).to_float(),
                -dd.reduce_sum(wu2_dd * c).to_float(),
                np.abs(diff) + _DD_EPS * self.abs_w)
        return out


def _window_max(x: np.ndarray, W: int) -> np.ndarray:
    """max of x[i - W : i + W + 1] at each i, for x >= 0 (van Herk /
    Gil-Werman): with blocks of 2W + 1 over x padded by W zeros, each
    window is a suffix of one block and a prefix of the next, so prefix
    and suffix maxima give every window in O(len(x))."""
    K = 2 * W + 1
    p = np.zeros(-(-(x.size + 2 * W) // K) * K)
    p[W:W + x.size] = x
    blocks = p.reshape(-1, K)
    pre = np.maximum.accumulate(blocks, axis=1).ravel()
    suf = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suf[:x.size], pre[K - 1:K - 1 + x.size])


def _spacing_estimate(zspec: ZSpec, pc: PrecisionConfig) -> float:
    # transforms of measures spread over [-U, U] have zeros no denser than
    # about pi / U
    U = zspec.radius(0.0, pc)
    return math.pi / U


# ---------- real-zero scan ----------


def find_real_zeros(
    zspec: ZSpec,
    z_max: float,
    pc: PrecisionConfig = NATIVE,
    step: float | None = None,
) -> ZeroTable:
    """Locate the real zeros of Z_b on [0, z_max].

    Sign changes whose flanking magnitudes sit below ten times the local
    error estimate are recorded as noise regions, not zeros.  Each
    candidate above the floor is polished by Halley steps on the scan rule
    in double-double from the secant point of its grid cell; a step that
    leaves the cell's bracket falls back to its midpoint, so every root
    stays in its own cell.  The candidates are held as arrays, and each
    Halley generation is one eval_polish call on the roots still moving.
    A root is accepted only if the final residual is within a hundred
    times the rule's error estimate.
    """
    if not (0.0 < z_max < math.inf):
        raise InvalidSpec("z_max must be finite and positive")
    if step is not None and not (0.0 < step < math.inf):
        raise InvalidSpec("step must be finite and positive")
    spacing = _spacing_estimate(zspec, pc)
    h = spacing / 6.0 if step is None else step
    rule = _ScanRule(zspec, z_max, pc)
    work = (z_max / h + 2.0) * rule.u.size
    if not work <= _MAX_SCAN_WORK[pc.mode]:
        raise InvalidSpec(f"the scan would take {work:.3g} z points x rule "
                          f"nodes, past {_MAX_SCAN_WORK[pc.mode]}")
    zs = np.arange(0.0, z_max + h, h)
    zs = zs[zs <= z_max + 1e-12]
    if zs[-1] < z_max:
        # close the last partial step so a zero in it is still bracketed
        zs = np.append(zs, z_max)
    vals, errs = rule.eval_grid(zs)

    # local amplitude envelope over a one-spacing window
    W = max(3, int(math.ceil(spacing / h)))
    env = _window_max(np.abs(vals), W)

    notes: list[str] = []
    noise_mask = env < 10.0 * errs
    edges = np.diff(np.pad(noise_mask, 1).astype(np.int8))
    noise_regions = [(float(zs[i]), float(zs[j - 1])) for i, j in
                     zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]

    # sign changes with neither end inside a recorded noise region, each
    # polished from the secant point of its cell, all live ones together
    i = np.flatnonzero((vals[:-1] * vals[1:] < 0.0)
                       & ~noise_mask[:-1] & ~noise_mask[1:])
    lo, hi, v0 = zs[i], zs[i + 1], vals[i]
    root = lo - v0 * (hi - lo) / (vals[i + 1] - v0)
    final, dfinal, noise = np.empty((3, i.size))
    live = np.arange(i.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(_POLISH_STEPS):
            if not live.size:
                break
            r = root[live]
            f, d, d2, err = rule.eval_polish(r)
            final[live], dfinal[live] = f, d
            # a float root cannot witness a residual below |Z'| * ulp(z_k),
            # so that term joins the rule's error in the root's resolution
            nz = err + np.abs(d) * _EPS * np.maximum(1.0, np.abs(r))
            noise[live] = nz
            denom = 2.0 * d * d - f * d2
            dz = np.where(denom != 0.0, 2.0 * f * d / denom, math.inf)
            if k == _POLISH_STEPS - 1:
                break
            go = ~(np.abs(dz * d) <= nz)
            live, f, r, dz = live[go], f[go], r[go], dz[go]
            left = f * v0[live] > 0.0
            lo[live[left]] = r[left]
            hi[live[~left]] = r[~left]
            r = r - dz
            inside = (lo[live] < r) & (r < hi[live])
            root[live] = np.where(inside, r, 0.5 * (lo[live] + hi[live]))
    ok = np.abs(final) <= 1e2 * noise
    zeros = [Zero(index=n, z=float(z), residual=float(abs(v)),
                  derivative=float(d)) for n, (z, v, d)
             in enumerate(zip(root[ok], final[ok], dfinal[ok]))]
    rejected = int(i.size - ok.sum())
    if rejected:
        notes.append(f"{rejected} candidate(s) failed the residual check")
    if len(zeros) >= 2:
        gaps = np.diff([zr.z for zr in zeros])
        if gaps.min() < 4.0 * h:
            warnings.warn(
                f"zero spacing {gaps.min():.3g} is close to the scan step "
                f"{h:.3g}; rerun with a smaller step",
                StepTooCoarseWarning)
    return ZeroTable(b=zspec.b, z_max=z_max, step=h, mode=pc.mode,
                     zeros=zeros, noise_regions=noise_regions, notes=notes)


# ---------- rectangle count by boundary argument ----------


def _boundary_rule(zspec: ZSpec, x_max: float, y_max: float,
                   qc: QuadratureConfig, pc: PrecisionConfig):
    """points -> (values, errors) for the boundary points of a rectangle
    with |Re z| <= x_max and |Im z| <= y_max: each batch goes through
    eval_quadrature on one rule, truncated at zspec's radius for y_max.  A
    point the rule cannot resolve goes alone through adaptive quadrature in
    the same mode with escalation off, so a native value is never silently
    replaced by an extended one and its error stays at the native floor."""
    pc_alone = PrecisionConfig(pc.mode, escalate_threshold=0.0)

    def fallback(z: complex) -> tuple[complex, float]:
        res = eval_quadrature(zspec, z, qc=qc, pc=pc_alone)
        return res.value, res.error

    rule = EvenTransformRule(zspec.weights(), zspec.radius(y_max, pc), x_max,
                             qc, pc, fallback)

    def zfun(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        res = eval_quadrature(zspec, points, rule=rule)
        return res.value, res.error

    return zfun


def walk_winding(zfun, rect: Rect, spacing: float,
                 max_points: int = 20000) -> int:
    """Winding number of an analytic function around a rectangle boundary.

    zfun(points) must return (values, error_bounds) as arrays at an array
    of complex points; the walk calls it once per generation.  The first
    generation is three points per expected zero spacing on each edge.
    Every segment whose argument turns by pi/2 or more is halved, and the
    midpoints of one generation are evaluated together, so a segment is
    judged only between evaluated points.  At most max_points segments
    are judged in all.  A boundary point whose magnitude is within ten
    times its error bound raises BoundaryTooCloseToZero, a segment no
    longer than 1e-12 that still turns by pi/2 or more raises
    NonConvergence, and a winding farther than 0.1 from an integer raises
    NonIntegerResult.  Shared by the transform machinery here and by any
    other even entire function with a batched evaluator; count_zeros_rect
    passes the rectangle's one fixed panel rule on the folded even weight,
    which evaluates only Im z >= 0, conjugates the rest and sends a point
    it cannot resolve to adaptive quadrature alone.
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

    def zval(p: np.ndarray) -> np.ndarray:
        values, errors = zfun(p)
        bad = np.flatnonzero(np.abs(values) < 10.0 * errors)
        if bad.size:
            i = bad[0]
            raise BoundaryTooCloseToZero(
                f"|Z({p[i]:g})| = {abs(values[i]):.3e} is within 10x the "
                f"evaluation error {errors[i]:.3e}")
        return values

    a = np.array(pts)
    b = np.roll(a, -1)  # the last segment closes at the first corner
    processed = a.size
    if processed > max_points:
        raise NonConvergence("boundary refinement budget exhausted")
    fa = zval(a)
    fb = np.roll(fa, -1)
    total = 0.0
    while True:
        dphi = np.array([math.remainder(d, 2.0 * math.pi)
                         for d in np.angle(fb) - np.angle(fa)])
        turn = np.abs(dphi) >= 0.5 * math.pi
        total += math.fsum(dphi[~turn])
        if not turn.any():
            break
        a, b, fa, fb, dphi = a[turn], b[turn], fa[turn], fb[turn], dphi[turn]
        short = np.flatnonzero(~(np.abs(b - a) > 1e-12))
        if short.size:
            i = short[0]
            raise NonConvergence(
                f"argument still turns {abs(dphi[i]):.3g} rad on the "
                f"segment {a[i]:g} -> {b[i]:g}")
        processed += 2 * a.size
        if processed > max_points:
            raise NonConvergence("boundary refinement budget exhausted")
        m = 0.5 * (a + b)
        fm = zval(m)
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
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
    """Winding number of Z_b around the rectangle boundary, every point
    evaluated by the rectangle's one boundary rule."""
    zfun = _boundary_rule(zspec, max(abs(rect.x0), abs(rect.x1)),
                          max(abs(rect.y0), abs(rect.y1)),
                          qc or QuadratureConfig(), pc)
    return walk_winding(zfun, rect, _spacing_estimate(zspec, pc),
                        max_points=max_points)


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
    if not (0.0 < delta < math.inf):
        raise InvalidSpec("delta must be finite and positive")
    if not (0.0 <= x_min < z_max):
        raise InvalidSpec("x_min must satisfy 0 <= x_min < z_max")
    qc = qc or QuadratureConfig()
    table = find_real_zeros(zspec, z_max, pc=pc)
    spacing = _spacing_estimate(zspec, pc)

    # probe the top edge from z_max inward for the last resolvable x, in
    # one batch on the boundary walk's kind of rule, so the selected
    # window is exactly the region the walk can resolve
    n_probe = 40
    xs = np.linspace(z_max, max(z_max / n_probe, 1e-3), n_probe)
    values, errors = _boundary_rule(zspec, z_max, delta, qc, pc)(
        xs + 1j * delta)
    resolved = np.flatnonzero(np.abs(values) > 30.0 * errors)
    if not resolved.size:
        raise PrecisionExhausted(
            f"no boundary point on [0, {z_max:g}] x {{{delta:g}i}} is "
            f"resolvable in {pc.mode} mode")
    x_res = float(xs[resolved[0]])

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
    pc: PrecisionConfig = NATIVE,
) -> FlowResult:
    """Track each real zero along an increasing damping schedule.

    Matching is nearest-neighbor with radius max(0.6, 4 * delta_b); a
    contested match is recorded as an ambiguity, never silently resolved.
    """
    bs = [float(x) for x in b_values]
    if len(bs) < 2 or any(b2 <= b1 for b1, b2 in zip(bs[:-1], bs[1:])):
        raise InvalidSpec("b_values must be strictly increasing, length >= 2")
    tables = [find_real_zeros(zspec.with_b(b), z_max, pc=pc) for b in bs]
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

ZERO_TABLE_HEADER = ["b", "k", "z_k", "residual", "derivative"]


def zero_table_to_csv(table: ZeroTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(ZERO_TABLE_HEADER)
    for zr in table.zeros:
        w.writerow([repr(table.b), zr.index, repr(zr.z),
                    repr(zr.residual), repr(zr.derivative)])
    return buf.getvalue()


def zero_table_from_csv(text: str) -> list[Zero]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ZERO_TABLE_HEADER:
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
