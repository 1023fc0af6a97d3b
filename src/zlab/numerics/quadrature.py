"""Adaptive composite Gauss-Legendre quadrature with precision escalation.

Panels are compared at order n and 2n; a panel whose discrepancy exceeds its
share of the budget is halved, up to a depth cap.  The native path evaluates
integrands vectorized in float64 and accumulates with exact summation; the
extended path reruns the same machinery in double-double arithmetic, with
nodes and weights Newton-polished in-repo from float64 seeds.  Everything is
deterministic: identical inputs give bit-identical results for a fixed
precision mode.

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

# ---------- configuration records ----------


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for one integration run.

    truncation_radius: half-width callers use when clipping infinite
    domains; None means the caller probes the integrand envelope itself.
    """

    truncation_radius: float | None = None
    panel_order: int = 16
    max_refinements: int = 12
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (4 <= self.panel_order <= 64):
            raise InvalidSpec("panel_order must lie in [4, 64]")
        if self.max_refinements < 0:
            raise InvalidSpec("max_refinements must be nonnegative")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise InvalidSpec("tolerances must be finite and positive")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise InvalidSpec("truncation_radius must be positive when given")


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


# ---------- panel bookkeeping ----------


class _Panel:
    __slots__ = ("lo", "hi", "depth", "value", "err", "absint")

    def __init__(self, lo: float, hi: float, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.value = None   # complex in native runs, DDComplex in extended
        self.err = 0.0
        self.absint = 0.0


def _initial_panels(a: float, b: float, max_panel_width: float | None) -> list[_Panel]:
    width = b - a
    count = 4
    if max_panel_width is not None and max_panel_width > 0:
        count = max(count, int(math.ceil(width / max_panel_width)))
    edges = np.linspace(a, b, count + 1)
    return [_Panel(float(edges[i]), float(edges[i + 1]), 0) for i in range(count)]


def _eval_panels_native(f, panels, order) -> int:
    """Fill value/err/absint on each panel; returns evaluation count."""
    xn, wn = gauss_nodes(order)
    x2, w2 = gauss_nodes(2 * order)
    mid = np.array([(p.lo + p.hi) * 0.5 for p in panels])
    half = np.array([(p.hi - p.lo) * 0.5 for p in panels])
    un = mid[:, None] + half[:, None] * xn[None, :]
    u2 = mid[:, None] + half[:, None] * x2[None, :]
    fn = np.asarray(f(un.ravel())).reshape(un.shape)
    f2 = np.asarray(f(u2.ravel())).reshape(u2.shape)
    if not (np.all(np.isfinite(fn)) and np.all(np.isfinite(f2))):
        raise NonFinite("integrand produced a non-finite value")
    vn = (fn @ wn) * half
    v2 = (f2 @ w2) * half
    ai = (np.abs(f2) @ w2) * half
    for i, p in enumerate(panels):
        p.value = complex(v2[i])
        p.err = float(abs(v2[i] - vn[i]))
        p.absint = float(ai[i])
    return un.size + u2.size


def _dd_axis_sum(mat: DD) -> DD:
    """Fold an array DD along its last axis by pairwise halving."""
    cur = mat
    n = np.asarray(cur.hi).shape[-1]
    while n > 1:
        k = n // 2
        head = DD(cur.hi[..., :k], cur.lo[..., :k]) + DD(cur.hi[..., k:2 * k], cur.lo[..., k:2 * k])
        if n % 2:
            cur = DD(np.concatenate([head.hi, cur.hi[..., -1:]], axis=-1),
                     np.concatenate([head.lo, cur.lo[..., -1:]], axis=-1))
            n = k + 1
        else:
            cur = head
            n = k
    return DD(cur.hi[..., 0], cur.lo[..., 0])


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


def _eval_panels_dd(f_dd, panels, order) -> int:
    """Double-double analogue of _eval_panels_native, batched over panels."""
    xn, wn = gauss_nodes_dd(order)
    x2, w2 = gauss_nodes_dd(2 * order)
    lo = np.array([[p.lo] for p in panels])
    hi = np.array([[p.hi] for p in panels])
    mid = (DD(lo, np.zeros_like(lo)) + DD(hi, np.zeros_like(hi))).scale2(0.5)
    half = (DD(hi, np.zeros_like(hi)) - DD(lo, np.zeros_like(lo))).scale2(0.5)
    half_flat = DD(half.hi[:, 0], half.lo[:, 0])
    count = 0
    rules = []
    for x, w in ((xn, wn), (x2, w2)):
        u = half * DD(x.hi[None, :], x.lo[None, :]) + mid
        fv = _as_ddcomplex(f_dd(u))
        if not (np.all(np.isfinite(fv.re.hi)) and np.all(np.isfinite(fv.im.hi))):
            raise NonFinite("integrand produced a non-finite value")
        re = _dd_axis_sum(fv.re * w) * half_flat
        im = _dd_axis_sum(fv.im * w) * half_flat
        rules.append((re, im, fv))
        count += len(panels) * np.asarray(x.hi).size
    (re_n, im_n, _), (re_2, im_2, fv2) = rules
    mag = dd.sqrt(fv2.re.sqr() + fv2.im.sqr())
    absint = _dd_axis_sum(mag * w2) * half_flat
    for i, p in enumerate(panels):
        p.value = DDComplex(DD(float(re_2.hi[i]), float(re_2.lo[i])),
                            DD(float(im_2.hi[i]), float(im_2.lo[i])))
        dre = float(re_2.hi[i] - re_n.hi[i]) + float(re_2.lo[i] - re_n.lo[i])
        dim = float(im_2.hi[i] - im_n.hi[i]) + float(im_2.lo[i] - im_n.lo[i])
        p.err = abs(complex(dre, dim))
        p.absint = float(absint.hi[i] + absint.lo[i])
    return count


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
        evaluator = lambda ps: _eval_panels_dd(g_dd, ps, qc.panel_order)  # noqa: E731
    else:
        evaluator = lambda ps: _eval_panels_native(f, ps, qc.panel_order)  # noqa: E731

    panels = _initial_panels(a, b, max_panel_width)
    evaluations = evaluator(panels)
    total_width = b - a

    def current_value() -> complex:
        if use_dd:
            re = math.fsum(p.value.re.hi for p in panels) + math.fsum(p.value.re.lo for p in panels)
            im = math.fsum(p.value.im.hi for p in panels) + math.fsum(p.value.im.lo for p in panels)
            return complex(re, im)
        return complex(math.fsum(p.value.real for p in panels),
                       math.fsum(p.value.imag for p in panels))

    mode_eps = 2.0 ** -104 if use_dd else float(np.finfo(float).eps)
    while True:
        value = current_value()
        total_err = math.fsum(p.err for p in panels)
        tol = max(qc.abs_tol, qc.rel_tol * abs(value))
        # the arithmetic floor: no refinement can push the error of a sum
        # of rounded panel values below eps * int |f|; the 64 covers the
        # accumulation noise of the order-2n Gauss dot products themselves
        if total_err <= max(tol, 64.0 * mode_eps * math.fsum(p.absint for p in panels)):
            break
        to_split = [p for p in panels if p.err > tol * (p.hi - p.lo) / total_width
                    and p.depth < qc.max_refinements]
        if not to_split:
            candidates = [p for p in panels if p.depth < qc.max_refinements]
            if not candidates:
                raise NonConvergence(
                    f"quadrature error {total_err:.3e} above tolerance {tol:.3e} at depth cap")
            to_split = [max(candidates, key=lambda p: p.err)]
        if len(panels) > 20000:
            raise NonConvergence("panel count exploded; integrand likely too rough")
        split_ids = {id(p) for p in to_split}
        fresh = []
        for p in to_split:
            m = (p.lo + p.hi) * 0.5
            fresh.append(_Panel(p.lo, m, p.depth + 1))
            fresh.append(_Panel(m, p.hi, p.depth + 1))
        evaluations += evaluator(fresh)
        panels = sorted([p for p in panels if id(p) not in split_ids] + fresh,
                        key=lambda p: p.lo)

    abs_integral = math.fsum(p.absint for p in panels)
    ratio = abs(value) / abs_integral if abs_integral > 0 else 1.0

    if not use_dd and ratio < pc.escalate_threshold:
        result = integrate_adaptive(f, a, b, qc,
                                    PrecisionConfig("extended", pc.escalate_threshold),
                                    f_dd=f_dd, max_panel_width=max_panel_width)
        result.escalated = True
        return result

    value_dd = None
    if use_dd:
        re = dd.reduce_sum(DD(np.array([p.value.re.hi for p in panels]),
                              np.array([p.value.re.lo for p in panels])))
        im = dd.reduce_sum(DD(np.array([p.value.im.hi for p in panels]),
                              np.array([p.value.im.lo for p in panels])))
        value_dd = DDComplex(re, im)
        value = complex(float(re), float(im))

    err_total = math.fsum(p.err for p in panels)
    return IntegralResult(value, err_total, abs_integral, evaluations, len(panels),
                          False, ratio, pc.mode, value_dd)
