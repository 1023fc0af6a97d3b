"""Adaptive composite Gauss-Legendre quadrature with precision escalation.

Each panel is integrated at order 16 and 32; a panel whose discrepancy
exceeds its width's share of the tolerance is halved, up to 12 halvings
of an initial panel; a run stops with NonConvergence as soon as the
panels at that cap alone hold more error than the tolerance.  The panels
of a run live in parallel arrays (lo, hi, depth, error, int|f| and
value), so a refinement round is one mask, one batched integrand call on
the new halves and one stable sort by lo.  The native path evaluates
integrands vectorized in float64 and accumulates with exact summation;
the extended path reruns the same machinery in
double-double arithmetic, with nodes and weights Newton-polished in-repo
from float64 seeds.  Everything is deterministic: identical inputs give
bit-identical results for a fixed precision mode.

Escalation: when a native run shows cancellation ratio |I| / int|f| below
the configured threshold, the run is redone in extended mode: full
double-double when the caller supplied a dd-capable integrand, otherwise
double-double accumulation of natively evaluated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import InvalidSpec, NonConvergence, NonFinite
from . import ddouble as dd
from .ddouble import DD, DDComplex

_MAX_PANELS = 20000  # most panels in one run, initial or refined
_PANEL_ORDER = 16  # Gauss order n of the n/2n pair compared on each panel
_MAX_REFINEMENTS = 12  # most halvings of one initial panel

# ---------- configuration records ----------


@dataclass(frozen=True)
class QuadratureConfig:
    """Error tolerances for one integration run: refinement stops once the
    summed panel error is below max(abs_tol, rel_tol * |I|)."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise InvalidSpec("tolerances must be finite and positive")


@dataclass(frozen=True)
class PrecisionConfig:
    """Arithmetic mode: float64 or in-repo double-double."""

    mode: str = "native"
    # native results whose cancellation ratio |I| / int|f| falls below this
    # are recomputed in extended precision; 0 disables escalation entirely
    escalate_threshold: float = 1e-8

    def __post_init__(self):
        if self.mode not in ("native", "extended"):
            raise InvalidSpec("mode must be 'native' or 'extended'")
        if not (0.0 <= self.escalate_threshold < 1.0):
            raise InvalidSpec("escalate_threshold must lie in [0, 1)")


NATIVE = PrecisionConfig()
EXTENDED = PrecisionConfig(mode="extended")


@dataclass
class IntegralResult:
    value: complex
    error: float
    abs_integral: float
    evaluations: int
    panels: int
    escalated: bool
    cancellation_ratio: float
    mode: str
    value_dd: DDComplex | None = field(default=None, repr=False)

    @property
    def real(self) -> float:
        return self.value.real


# ---------- Gauss-Legendre nodes ----------

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_NODE_CACHE_DD: dict[int, tuple[DD, DD]] = {}


def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 nodes/weights on [-1, 1]."""
    if order not in _NODE_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _NODE_CACHE[order] = (x, w)
    return _NODE_CACHE[order]


def _legendre_dd(order: int, x: DD) -> tuple[DD, DD]:
    """(P_n(x), P_n'(x)) by the three-term recurrence in double-double."""
    ones = np.ones_like(np.asarray(x.hi, dtype=float))
    p_prev = DD(ones, np.zeros_like(ones))
    p = x
    for k in range(1, order):
        p_next = (x * p * (2 * k + 1) - p_prev * k) / float(k + 1)
        p_prev, p = p, p_next
    # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
    dp = (x * p - p_prev) * order / (x.sqr() - 1.0)
    return p, dp


def gauss_nodes_dd(order: int) -> tuple[DD, DD]:
    """Double-double nodes/weights, Newton-polished from the float64 seed."""
    if order not in _NODE_CACHE_DD:
        x0, _ = gauss_nodes(order)
        x = dd.from_array(x0)
        for _ in range(3):
            p, dp = _legendre_dd(order, x)
            x = x - p / dp
        _, dp = _legendre_dd(order, x)
        w = 2.0 / ((1.0 - x.sqr()) * dp.sqr())
        _NODE_CACHE_DD[order] = (x, w)
    return _NODE_CACHE_DD[order]


# ---------- panel evaluation ----------


def panel_edges(a: float, b: float,
                max_panel_width: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of equal panels on [a, b]: at least 4, none wider than
    max_panel_width, and more than _MAX_PANELS refused before allocation."""
    width = b - a
    count = 4
    if max_panel_width is not None and max_panel_width > 0:
        wanted = width / max_panel_width
        if not wanted <= _MAX_PANELS:
            raise InvalidSpec(f"{wanted:.3g} initial panels would pass the "
                              f"cap of {_MAX_PANELS}")
        count = max(count, int(math.ceil(wanted)))
    edges = np.linspace(a, b, count + 1)
    return edges[:-1], edges[1:]


def _eval_panels_native(f, lo, hi):
    """Order-n and order-2n rules on the panels [lo, hi]: returns the
    order-2n values, their distance from the order-n values, int|f| per
    panel and the evaluation count."""
    xn, wn = gauss_nodes(_PANEL_ORDER)
    x2, w2 = gauss_nodes(2 * _PANEL_ORDER)
    mid = (lo + hi) * 0.5
    half = (hi - lo) * 0.5
    un = mid[:, None] + half[:, None] * xn[None, :]
    u2 = mid[:, None] + half[:, None] * x2[None, :]
    fn = np.asarray(f(un.ravel())).reshape(un.shape)
    f2 = np.asarray(f(u2.ravel())).reshape(u2.shape)
    if not (np.all(np.isfinite(fn)) and np.all(np.isfinite(f2))):
        raise NonFinite("integrand produced a non-finite value")
    vn = (fn @ wn) * half
    v2 = (f2 @ w2) * half
    ai = (np.abs(f2) @ w2) * half
    # hypot, not np.abs: numpy's complex abs loop can differ from the
    # scalar abs in the last bit
    d = v2 - vn
    return v2, np.hypot(d.real, d.imag), ai, un.size + u2.size


def _as_ddcomplex(fv) -> DDComplex:
    if isinstance(fv, DDComplex):
        return fv
    z = np.zeros_like(np.asarray(fv.hi, dtype=float))
    return DDComplex(fv, DD(z, z.copy()))


def _wrap_native_as_dd(f) -> Callable:
    """Lift a float64 integrand to the dd calling convention (values stay
    native; only the downstream accumulation gains precision)."""
    def g(u: DD):
        fv = np.asarray(f(u.hi + u.lo))
        if np.iscomplexobj(fv):
            zr = np.zeros_like(fv.real)
            return DDComplex(DD(fv.real.copy(), zr), DD(fv.imag.copy(), zr.copy()))
        z = np.zeros_like(fv)
        return DDComplex(DD(fv, z), DD(z.copy(), z.copy()))
    return g


def _eval_panels_dd(f_dd, lo, hi):
    """Double-double analogue of _eval_panels_native; the values come back
    as four rows: re.hi, re.lo, im.hi and im.lo."""
    xn, wn = gauss_nodes_dd(_PANEL_ORDER)
    x2, w2 = gauss_nodes_dd(2 * _PANEL_ORDER)
    zero = np.zeros((lo.size, 1))
    lo_dd, hi_dd = DD(lo[:, None], zero), DD(hi[:, None], zero)
    mid = (lo_dd + hi_dd).scale2(0.5)
    half = (hi_dd - lo_dd).scale2(0.5)
    half_flat = DD(half.hi[:, 0], half.lo[:, 0])
    count = 0
    rules = []
    for x, w in ((xn, wn), (x2, w2)):
        u = half * DD(x.hi[None, :], x.lo[None, :]) + mid
        fv = _as_ddcomplex(f_dd(u))
        if not (np.all(np.isfinite(fv.re.hi)) and np.all(np.isfinite(fv.im.hi))):
            raise NonFinite("integrand produced a non-finite value")
        re = dd.reduce_sum(fv.re * w) * half_flat
        im = dd.reduce_sum(fv.im * w) * half_flat
        rules.append((re, im, fv))
        count += lo.size * np.asarray(x.hi).size
    (re_n, im_n, _), (re_2, im_2, fv2) = rules
    mag = dd.sqrt(fv2.re.sqr() + fv2.im.sqr())
    absint = dd.reduce_sum(mag * w2) * half_flat
    dre = (re_2.hi - re_n.hi) + (re_2.lo - re_n.lo)
    dim = (im_2.hi - im_n.hi) + (im_2.lo - im_n.lo)
    return (np.stack([re_2.hi, re_2.lo, im_2.hi, im_2.lo]), np.hypot(dre, dim),
            absint.hi + absint.lo, count)


# ---------- driver ----------


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    qc: QuadratureConfig = QuadratureConfig(),
    pc: PrecisionConfig = NATIVE,
    *,
    f_dd: Callable | None = None,
    max_panel_width: float | None = None,
) -> IntegralResult:
    """Integrate f over [a, b]; f must accept float64 ndarrays.

    f_dd, when given, is the same integrand over array-valued DD arguments
    (returning DD or DDComplex); it powers extended mode and escalation.
    max_panel_width caps initial panel width, e.g. pi/(2R) for an e^{izu}
    factor with |Re z| = R so every half-oscillation sees a full panel.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidSpec("integration endpoints must be finite")
    if a == b:
        return IntegralResult(0j, 0.0, 0.0, 0, 0, False, 1.0, pc.mode)
    if a > b:
        r = integrate_adaptive(f, b, a, qc, pc, f_dd=f_dd, max_panel_width=max_panel_width)
        r.value = -r.value
        if r.value_dd is not None:
            r.value_dd = -r.value_dd
        return r

    use_dd = pc.mode == "extended"
    if use_dd:
        g_dd = f_dd if f_dd is not None else _wrap_native_as_dd(f)
        evaluator = lambda lo, hi: _eval_panels_dd(g_dd, lo, hi)  # noqa: E731
    else:
        evaluator = lambda lo, hi: _eval_panels_native(f, lo, hi)  # noqa: E731

    # panel i is [lo[i], hi[i]], kept sorted by lo; vals holds complex
    # values in native runs and rows re.hi, re.lo, im.hi, im.lo in extended
    lo, hi = panel_edges(a, b, max_panel_width)
    depth = np.zeros(lo.size, dtype=int)
    vals, err, absint, evaluations = evaluator(lo, hi)
    total_width = b - a

    mode_eps = 2.0 ** -104 if use_dd else float(np.finfo(float).eps)
    while True:
        if use_dd:
            value = complex(math.fsum(vals[0]) + math.fsum(vals[1]),
                            math.fsum(vals[2]) + math.fsum(vals[3]))
        else:
            value = complex(math.fsum(vals.real), math.fsum(vals.imag))
        total_err = math.fsum(err)
        tol = max(qc.abs_tol, qc.rel_tol * abs(value))
        # the arithmetic floor: no refinement can push the error of a sum
        # of rounded panel values below eps * int |f|; the 64 covers the
        # accumulation noise of the order-2n Gauss dot products themselves
        target = max(tol, 64.0 * mode_eps * math.fsum(absint))
        if total_err <= target:
            break
        can_split = depth < _MAX_REFINEMENTS
        # panels at the depth cap keep their error for good, so once it
        # alone passes the target no later round can stop
        capped_err = math.fsum(err[~can_split])
        if capped_err > target:
            raise NonConvergence(
                f"quadrature error {capped_err:.3e} of panels at the depth "
                f"cap is above tolerance {target:.3e}")
        split = (err > tol * (hi - lo) / total_width) & can_split
        if not split.any():
            # no panel is over its share: halve the worst open one (the
            # first of equals)
            split[np.argmax(np.where(can_split, err, -np.inf))] = True
        if lo.size > _MAX_PANELS:
            raise NonConvergence("panel count exploded; integrand likely too rough")
        mid = (lo[split] + hi[split]) * 0.5
        new_lo = np.column_stack([lo[split], mid]).ravel()
        new_hi = np.column_stack([mid, hi[split]]).ravel()
        new_vals, new_err, new_absint, count = evaluator(new_lo, new_hi)
        evaluations += count
        keep = ~split
        lo = np.concatenate([lo[keep], new_lo])
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        hi = np.concatenate([hi[keep], new_hi])[order]
        depth = np.concatenate([depth[keep], np.repeat(depth[split] + 1, 2)])[order]
        err = np.concatenate([err[keep], new_err])[order]
        absint = np.concatenate([absint[keep], new_absint])[order]
        vals = np.concatenate([vals[..., keep], new_vals], axis=-1)[..., order]

    abs_integral = math.fsum(absint)
    ratio = abs(value) / abs_integral if abs_integral > 0 else 1.0

    if not use_dd and ratio < pc.escalate_threshold:
        result = integrate_adaptive(f, a, b, qc,
                                    PrecisionConfig("extended", pc.escalate_threshold),
                                    f_dd=f_dd, max_panel_width=max_panel_width)
        result.escalated = True
        return result

    value_dd = None
    if use_dd:
        re = dd.reduce_sum(DD(vals[0], vals[1]))
        im = dd.reduce_sum(DD(vals[2], vals[3]))
        value_dd = DDComplex(re, im)
        value = complex(float(re), float(im))

    return IntegralResult(value, math.fsum(err), abs_integral, evaluations,
                          lo.size, False, ratio, pc.mode, value_dd)
