"""A fixed Gauss-Legendre rule for the transform of an even weight.

EvenTransformRule evaluates Z(z) = int e^{izu} g(u) du for an even, real
weight g at batches of complex points on one set of panels, with an
order-16/32 error estimate per point.  The transform layer uses it for the
boundary points of a winding walk and its edge probes, where thousands of
points share one rectangle.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NonFinite
from . import ddouble as dd
from .ddouble import DD
from .quadrature import (
    PrecisionConfig,
    QuadratureConfig,
    gauss_nodes,
    gauss_nodes_dd,
    panel_edges,
)

_EPS = float(np.finfo(float).eps)
_DD_EPS = 2.0**-104
_ORDERS = (16, 32)  # the Gauss orders compared on each panel
# most terms in one array of the rule: 64 kB, under glibc's 128 kB mmap
# threshold, so freeing one does not raise that threshold
_CHUNK = 1 << 13


class EvenTransformRule:
    """One fixed rule for Z(z) = int e^{izu} g(u) du, g even and real, at
    batches of complex points with |Re z| <= x_max.

    Composite Gauss-Legendre panels of order 16 and 32 on [0, U], with U
    the caller's truncation radius, n equal panels and none wider than
    pi / (2 max(1, x_max)), so every half-oscillation of e^{ixu} sees a
    full panel.  The weight is evaluated once per rule.  Its evenness
    folds the transform onto u >= 0:

        Z(x + iy) = int_0^U 2 g(u) [cosh(yu) cos(xu) - i sinh(yu) sin(xu)] du,

    so points that share Im z share one cosh/sinh row, and Z(conj z) =
    conj Z(z) holds exactly: only points with Im z >= 0 are evaluated.
    Node j of panel p sits at u = m_p + o_j, both parts held to
    double-double, and e^{ixu} = e^{ix m_p} e^{ix o_j}: per point the
    rule takes one phase per panel and one per node offset, and each
    panel sum is a contraction of a row with the offset phases.  A
    point's error is sum over panels |T32 - T16| + eps int|f|, with
    int|f| = int_0^U 2 g(u) cosh(yu) du: the estimate and floor of the
    transform layer's adaptive route.  A point whose estimate fails
    integrate_adaptive's stopping test goes alone through the caller's
    fallback(z) -> (value, error).  Extended mode runs the same panels in
    double-double (dd.exp and dd.sincos).  No array of terms holds more
    than _CHUNK of them.
    """

    def __init__(self, weights, U: float, x_max: float,
                 qc: QuadratureConfig, pc: PrecisionConfig, fallback):
        self._qc, self._fallback = qc, fallback
        self.extended = pc.mode == "extended"
        self._eps = _DD_EPS if self.extended else _EPS
        n = panel_edges(0.0, U, 0.5 * math.pi / max(1.0, x_max))[0].size
        width = U / n
        # the order-16 nodes, then the order-32 nodes, on [-1, 1]
        if self.extended:
            t, w = zip(*(gauss_nodes_dd(k) for k in _ORDERS))
            t, w = (DD(np.concatenate([v.hi for v in a]),
                       np.concatenate([v.lo for v in a])) for a in (t, w))
        else:
            t, w = (dd.from_array(np.concatenate(a)) for a in
                    zip(*(gauss_nodes(k) for k in _ORDERS)))
        self._offsets = t * (0.5 * width)
        w = w * (0.5 * width)
        g, g_dd = weights
        # (panel midpoints, nodes, 2 g w) in blocks of whole panels
        step = min(n, _CHUNK // t.hi.size)
        self._blocks = []
        for q in range(0, n, step):
            mids = DD.from_product(np.arange(q, min(q + step, n)) + 0.5,
                                   width)
            u = DD(mids.hi[:, None], mids.lo[:, None]) + self._offsets
            if self.extended:
                gw = (g_dd(u) * w).scale2(2.0)
            else:
                gw = 2.0 * g(u.hi) * w.hi
            self._blocks.append((mids, u, gw))
        # points per pass: (point, panel) and (point, offset) phase arrays
        self._per_pass = max(1, _CHUNK // max(step, t.hi.size))

    def __call__(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Z and its error bound at each point of zs."""
        zs = np.asarray(zs, complex)
        lower = zs.imag < 0.0
        upper, inverse = np.unique(np.where(lower, zs.conj(), zs),
                                   return_inverse=True)
        value, est, absint = self._sums(upper)
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(absint))):
            raise NonFinite("integrand produced a non-finite value")
        error = est + self._eps * absint
        # integrate_adaptive's stopping test on the rule's estimate
        target = np.maximum(np.maximum(self._qc.abs_tol,
                                       self._qc.rel_tol * np.abs(value)),
                            64.0 * self._eps * absint)
        for i in np.flatnonzero(~(est <= target)):
            value[i], error[i] = self._fallback(upper[i])
        value, error = value[inverse], error[inverse]
        return np.where(lower, value.conj(), value), error

    def _sums(self, zs: np.ndarray):
        """Z, sum |T32 - T16| and int|f| at points with Im z >= 0."""
        value = np.empty(zs.size, complex)
        est = np.empty(zs.size)
        absint = np.empty(zs.size)
        ys, group = np.unique(zs.imag, return_inverse=True)
        for k, y in enumerate(ys):
            idx = np.flatnonzero(group == k)
            rows = [(mids, *self._rows(mids, u, gw, float(y)))
                    for mids, u, gw in self._blocks]
            absint[idx] = sum(a for *_, a in rows)
            for s in range(0, idx.size, self._per_pass):
                i = idx[s:s + self._per_pass]
                value[i], est[i] = self._pass(rows, zs.real[i])
        return value, est, absint

    def _rows(self, mids: DD, u: DD, gw, y: float):
        """2 g w cosh(yu) and 2 g w sinh(yu) of a block, and its share of
        int|f|."""
        n = _ORDERS[0]
        if self.extended:
            # e^{+-yu} = e^{+-y m_p} e^{+-y o_j}: a product of positives,
            # with one dd.exp per panel and per offset instead of per node
            def exp_row(t: float) -> DD:
                a, b = dd.exp(mids * t), dd.exp(self._offsets * t)
                return DD(a.hi[:, None], a.lo[:, None]) * b

            ep, em = exp_row(y), exp_row(-y)
            c, s = gw * (ep + em).scale2(0.5), gw * (ep - em).scale2(0.5)
            return c, s, float(np.sum(c.hi[:, n:]))
        with np.errstate(over="ignore", invalid="ignore"):
            c, s = gw * np.cosh(y * u.hi), gw * np.sinh(y * u.hi)
        return c, s, float(np.sum(c[:, n:]))

    def _cis(self, x: np.ndarray, a: DD):
        """(cos, sin) of the phases x a, the product taken to double-double
        so the phase is exact to eps, not to eps |x a|."""
        if self.extended:
            s, c = dd.sincos(a * x)
            return c, s
        p, e = dd.two_prod(x, a.hi)
        e = e + x * a.lo
        cos, sin = np.cos(p), np.sin(p)
        return cos - e * sin, sin + e * cos

    def _pass(self, rows, xs: np.ndarray):
        """Z and sum |T32 - T16| at the points xs + iy of one row set."""
        x = xs[:, None]
        c, s = self._cis(x, self._offsets)
        est = np.zeros(xs.size)
        re = im = 0.0
        for mids, rc, rs, _ in rows:
            cm, sm = self._cis(x, mids)
            parts = []
            for j in (slice(0, _ORDERS[0]), slice(_ORDERS[0], None)):
                # cos(x u) = cm c - sm s and sin(x u) = sm c + cm s
                ac, as_, bc, bs = (self._dot(r, v, j) for r in (rc, rs)
                                   for v in (c, s))
                parts.append((cm * ac - sm * as_, -(sm * bc + cm * bs)))
            (re16, im16), (re32, im32) = parts
            if self.extended:
                est += np.hypot((re32.hi - re16.hi) + (re32.lo - re16.lo),
                                (im32.hi - im16.hi) + (im32.lo - im16.lo)
                                ).sum(axis=-1)
                re, im = re + dd.reduce_sum(re32), im + dd.reduce_sum(im32)
            else:
                est += np.hypot(re32 - re16, im32 - im16).sum(axis=-1)
                re, im = re + re32.sum(axis=-1), im + im32.sum(axis=-1)
        if self.extended:
            re, im = re.to_float(), im.to_float()
        return re + 1j * im, est

    def _dot(self, row, v, j: slice):
        """sum over the nodes j of row[p, j] v[i, j], as an (i, p) array.

        Each sum runs in a fixed order (einsum's own loop, not BLAS, whose
        kernels change with the batch shape), so a point's value does not
        depend on the batch it was evaluated in.  The extended products
        are formed _CHUNK at a time.
        """
        if self.extended:
            r = DD(row.hi[None, :, j], row.lo[None, :, j])
            step = max(1, _CHUNK // r.hi.size)
            out = [dd.reduce_sum(r * DD(v.hi[a:a + step, None, j],
                                        v.lo[a:a + step, None, j]))
                   for a in range(0, v.hi.shape[0], step)]
            return DD(np.concatenate([o.hi for o in out]),
                      np.concatenate([o.lo for o in out]))
        return np.einsum("ij,pj->ip", v[:, j], row[:, j])
