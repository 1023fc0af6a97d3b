"""Densities on the line obtained by inverting characteristic functions,
and sign checks on the minors of their translation kernels K(x, y) = f(x-y).

A characteristic function from the product class corresponds to the law of
omega + sum_j (d_j - Y_j) + sqrt(2 d) N with Y_j exponential of scale d_j
and N standard normal.  With d > 0 the density is recovered by oscillatory
quadrature of (1/2pi) int e^{-i t a} p(t) dt; with d = 0 it is written in
closed form as a hypoexponential density reflected to its support
(-inf, omega + sum d_j].

Minor checks evaluate det[f(x_i - y_j)] over ordered grid subsets with the
determinant accumulated in double-double, so a reported near-zero minor
reflects the data, not elimination noise.  A scan checks every minor of
its grid, or refuses past _MAX_MINORS before evaluating f; it indexes the
minors out of one table of f as (k, r, r) stacks of at most _CHUNK entries
for det_dd.
Collocated-column limits of the same minors (derivative minors) use exact
spectral or termwise derivatives when the source provides them and
Richardson-checked central differences otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonIntegrableTransform, NonSmoothPoint
from .numerics import ddouble as dd
from .numerics.ddouble import DD, DDComplex
from .numerics.quadrature import (
    NATIVE,
    PrecisionConfig,
    QuadratureConfig,
    integrate_adaptive,
)
from .schoenberg import SchoenbergParams, eval_p

TWO_PI = 2.0 * math.pi
_CHUNK = 1 << 16  # matrix entries per batched determinant pass

# Density evaluations per command (grid_size^2 in tp-check, N in pf-eval):
# 9801 {"d":0.5} quadratures, grid size 99, took 24 s on a 2-vCPU Xeon.
MAX_DENSITY_EVALS = 10_000
# Initial quadrature panels of one SchoenbergDensity.eval with d > 0, about
# 4T max(1, |a|)/pi per value a: pf-eval of {"d":0.5} on --a-grid
# 1700:1770:5 (97 700 panels) took 22 s on a 2-vCPU Xeon.
_MAX_DENSITY_PANELS = 100_000
# Minors per scan, C(grid_size, order)^2, since a scan checks every one:
# order 5 on a 13-point grid (1 656 369 minors, about 166 000 a second)
# took 10 s on a 2-vCPU Xeon.
_MAX_MINORS = 2_000_000


# ---------- hypoexponential term lists ----------
#
# A term (c, p, lam) stands for c * s^p * e^{-lam s} on s >= 0.  Convolving
# with a fresh exponential density lam_new e^{-lam_new s} maps each term to
# a short list of terms, exactly; repeated rates take the polynomial branch.


def _convolve_exponential(terms: dict, lam: float) -> dict:
    out: dict = {}

    def add(key, val):
        out[key] = out.get(key, 0.0) + val

    for (p, mu), c in terms.items():
        if mu == lam:
            add((p + 1, lam), lam * c / (p + 1))
            continue
        alpha = lam - mu
        # int_0^s x^p e^{alpha x} dx expanded by parts; the x = 0 boundary
        # contributes a pure e^{-lam s} term
        for q in range(p + 1):
            coef = ((-1.0) ** (p - q)) * math.factorial(p) / math.factorial(q)
            add((q, mu), lam * c * coef * alpha ** -(p - q + 1))
        add((0, lam), lam * c * ((-1.0) ** (p + 1)) * math.factorial(p)
            * alpha ** -(p + 1))
    return out


def _hypoexp_terms(scales: tuple[float, ...]) -> list[tuple[float, int, float]]:
    """Density of sum of independent exponentials with the given scales,
    as a term list over s >= 0.  Scales must be positive."""
    lam0 = 1.0 / scales[0]
    terms = {(0, lam0): lam0}
    for s in scales[1:]:
        terms = _convolve_exponential(terms, 1.0 / s)
    return [(c, p, mu) for (p, mu), c in sorted(terms.items())]


def _eval_terms(terms, s):
    scalar = np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.zeros_like(s_arr)
    pos = s_arr >= 0.0
    sp = s_arr[pos]
    with np.errstate(under="ignore"):
        acc = np.zeros_like(sp)
        for c, p, mu in terms:
            acc = acc + c * sp**p * np.exp(-mu * sp)
    out[pos] = acc
    return float(out[0]) if scalar else out


def _diff_terms(terms):
    """Termwise derivative of a term list (valid on s > 0)."""
    out: dict = {}
    for c, p, mu in terms:
        if p:
            out[(p - 1, mu)] = out.get((p - 1, mu), 0.0) + c * p
        out[(p, mu)] = out.get((p, mu), 0.0) - c * mu
    return [(c, p, mu) for (p, mu), c in sorted(out.items())]


# ---------- density sources ----------


class SchoenbergDensity:
    """f(a) = (1/2pi) int e^{-ita} p(t) dt for a product-class p.

    d > 0: adaptive oscillatory quadrature (Gaussian factor truncates the
    t-range).  d = 0: exact closed form from the convolution structure;
    requires at least one nonzero coefficient (k = 0 is a point mass) and
    coefficients of a single sign.
    """

    def __init__(self, params: SchoenbergParams):
        self.params = params
        self.mean = params.omega
        self.edge = params.omega + params.coeff_sum  # support edge when d = 0
        nonzero = tuple(c for c in params.coeffs if c != 0.0)
        self._mirror = False
        self._terms = None
        if params.d == 0.0:
            if not nonzero:
                raise NonIntegrableTransform(
                    "d = 0 with no exponential factors is a point mass")
            if all(c > 0.0 for c in nonzero):
                self._terms = _hypoexp_terms(nonzero)
            elif all(c < 0.0 for c in nonzero):
                # mirror symmetry: negate coefficients and reflect a
                self._terms = _hypoexp_terms(tuple(-c for c in nonzero))
                self._mirror = True
            else:
                raise InvalidSpec(
                    "d = 0 with mixed-sign coefficients is not supported")

    @property
    def std(self) -> float:
        return math.sqrt(2.0 * self.params.d
                         + sum(c * c for c in self.params.coeffs))

    def suggest_window(self) -> tuple[float, float]:
        lo = self.mean - 4.0 * self.std
        hi = self.mean + 4.0 * self.std
        if self.params.d == 0.0:
            if self._mirror:
                lo = max(lo, self.edge)  # support is [edge, inf)
            else:
                hi = min(hi, self.edge)  # support is (-inf, edge]
        return (lo, hi)

    def _closed_form(self, a, order: int = 0):
        terms = self._terms
        for _ in range(order):
            terms = _diff_terms(terms)
        if self._mirror:
            # f(a) = h(a - edge') with edge' = omega + sum c_j (negative sum)
            s = np.asarray(a, dtype=float) - self.edge
            sign = 1.0
        else:
            s = self.edge - np.asarray(a, dtype=float)
            sign = (-1.0) ** order
        val = _eval_terms(terms, s if np.ndim(a) else float(s))
        return sign * val

    def _quad_radius(self, eps: float = 1e-16) -> float:
        # |p(t)| <= e^{-d t^2}; solve e^{-d T^2} * T = eps
        d = self.params.d
        T = math.sqrt(-math.log(eps) / d)
        for _ in range(20):
            T = math.sqrt((-math.log(eps) + math.log(1.0 + T)) / d)
        return T

    def eval(self, a, qc: QuadratureConfig | None = None,
             pc: PrecisionConfig = NATIVE, order: int = 0):
        """f(a) (or its order-th derivative) at scalar or array a."""
        if self._terms is not None:
            out = self._closed_form(a, order)
            return out if np.ndim(a) else float(out)
        qc = qc or QuadratureConfig()
        T = self._quad_radius()
        scalar = np.ndim(a) == 0
        a_arr = np.atleast_1d(np.asarray(a, dtype=float))
        panels = 4.0 * T / math.pi * np.maximum(1.0, np.abs(a_arr)).sum()
        if not panels <= _MAX_DENSITY_PANELS:
            raise InvalidSpec(f"{panels:.3g} initial quadrature panels are "
                              f"past the cap of {_MAX_DENSITY_PANELS}")
        params = self.params
        out = np.empty(a_arr.shape, dtype=float)
        for i, ai in enumerate(a_arr):
            def f(t, _a=ai):
                return np.exp(-1j * t * _a) * eval_p(params, t + 0j) \
                    * ((-1j * t) ** order if order else 1.0)

            def f_dd(t, _a=ai, _o=order):
                val = _p_dd(params, t)
                ph = dd.exp_i(t * (-_a))
                val = val * ph
                for _ in range(_o):
                    val = val * DDComplex(DD(np.zeros_like(t.hi), np.zeros_like(t.hi)),
                                          -t)
                return val

            res = integrate_adaptive(
                f, -T, T, qc=qc, pc=pc, f_dd=f_dd,
                max_panel_width=math.pi / (2.0 * max(1.0, abs(ai))))
            out[i] = res.value.real / TWO_PI
        return out if not scalar else float(out[0])


def _p_dd(params: SchoenbergParams, t: DD) -> DDComplex:
    """Product-class characteristic function on real dd arguments."""
    zeros = np.zeros_like(np.asarray(t.hi, dtype=float))
    w = dd.exp(-(t.sqr() * params.d))
    out = dd.exp_i(t * params.omega) * DDComplex(w, DD(zeros, zeros.copy()))
    for c in params.coeffs:
        if c == 0.0:
            continue
        ct = t * c
        denom = DDComplex(DD(np.ones_like(zeros), zeros.copy()), ct)
        out = out * dd.exp_i(ct) / denom
    return out


class CallableDensity:
    """Wrap a vectorized callable f(a); used for controls and user data."""

    def __init__(self, fn, window: tuple[float, float] | None = None,
                 name: str = "callable"):
        self.fn = fn
        self.window = window
        self.name = name

    def suggest_window(self):
        if self.window is None:
            raise InvalidSpec("callable density needs an explicit window")
        return self.window

    def eval(self, a, qc=None, pc=NATIVE, order: int = 0):
        if order:
            raise InvalidSpec("callable densities expose no derivatives")
        out = self.fn(np.asarray(a, dtype=float))
        return out if np.ndim(a) else float(out)


class TabulatedDensity:
    """Density known on a sorted grid; linear or natural-cubic interpolation,
    zero outside the tabulated range."""

    def __init__(self, grid, values, interp: str = "cubic"):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 4:
            raise InvalidSpec("need matching 1-d arrays with >= 4 points")
        if not np.all(np.diff(grid) > 0):
            raise InvalidSpec("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise InvalidSpec("density values must be finite")
        if interp not in ("linear", "cubic"):
            raise InvalidSpec("interp must be 'linear' or 'cubic'")
        self.grid = grid
        self.values = values
        self.interp = interp
        if interp == "cubic":
            self._m = _natural_cubic_moments(grid, values)

    def suggest_window(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def eval(self, a, qc=None, pc=NATIVE, order: int = 0):
        if order:
            raise InvalidSpec("tabulated densities expose no derivatives")
        a_arr = np.asarray(a, dtype=float)
        if self.interp == "linear":
            out = np.interp(a_arr, self.grid, self.values, left=0.0, right=0.0)
        else:
            out = _natural_cubic_eval(self.grid, self.values, self._m, a_arr)
        return out if np.ndim(a) else float(out)


def _natural_cubic_moments(x, y):
    """Second derivatives of the natural cubic spline (Thomas algorithm)."""
    n = x.size
    h = np.diff(x)
    a = np.zeros(n)
    b = np.ones(n)
    c = np.zeros(n)
    r = np.zeros(n)
    a[1:-1] = h[:-1]
    b[1:-1] = 2.0 * (h[:-1] + h[1:])
    c[1:-1] = h[1:]
    r[1:-1] = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    # forward sweep
    for i in range(1, n):
        w = a[i] / b[i - 1]
        b[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    m = np.zeros(n)
    m[-1] = r[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        m[i] = (r[i] - c[i] * m[i + 1]) / b[i]
    return m


def _natural_cubic_eval(x, y, m, q):
    q_arr = np.atleast_1d(q)
    out = np.zeros(q_arr.shape, dtype=float)
    inside = (q_arr >= x[0]) & (q_arr <= x[-1])
    qi = q_arr[inside]
    idx = np.clip(np.searchsorted(x, qi) - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    t = qi - x[idx]
    out[inside] = (
        y[idx]
        + t * ((y[idx + 1] - y[idx]) / h - h * (2.0 * m[idx] + m[idx + 1]) / 6.0)
        + t * t * m[idx] / 2.0
        + t * t * t * (m[idx + 1] - m[idx]) / (6.0 * h)
    )
    return out if np.ndim(q) else float(out[0])


# ---------- minors ----------


def det_dd(a: DD) -> DD:
    """Determinants of a (k, r, r) stack by LU with partial pivoting, in
    double-double; the scans pass stacks of at most _CHUNK entries.  Each
    lane runs the scalar recipe (first row of largest |hi| as pivot, one
    sign flip per swap, exactly 0 on an exactly zero pivot), so lanes never
    mix and each determinant is bit-identical to its matrix factored alone.
    """
    m = np.array([a.hi, a.lo], dtype=float)  # hi and lo planes, (2, k, r, r)
    lanes = np.arange(m.shape[1])
    det, sign, singular = DD(1.0, 0.0), 1.0, False
    with np.errstate(all="ignore"):  # singular lanes run on to inf and NaN
        for c in range(m.shape[2]):
            piv = c + np.argmax(np.abs(m[0, :, c:, c]), axis=1)
            row = m[:, lanes, piv]
            m[:, lanes, piv] = m[:, :, c]
            m[:, :, c] = row
            sign = np.where(piv != c, -sign, sign)
            p = DD(*m[:, :, c, c])
            singular = singular | ((p.hi == 0.0) & (p.lo == 0.0))
            det = det * p
            factor = DD(*m[:, :, c + 1:, c, None]) \
                / DD(*m[:, :, c, c, None, None])
            rest = DD(*m[:, :, c + 1:, c + 1:]) \
                - factor * DD(*m[:, :, None, c, c + 1:])
            m[:, :, c + 1:, c + 1:] = rest.hi, rest.lo
    det = dd.where(sign < 0.0, det * sign, det)
    return dd.where(singular, DD(0.0, 0.0), det)


@dataclass(frozen=True)
class TPReport:
    """Outcome of a minor scan: minimum normalized minor and its location."""

    order: int
    passed: bool
    min_minor: float
    min_minor_normalized: float
    argmin_x: tuple[float, ...]
    argmin_y: tuple[float, ...]
    minors_checked: int
    tol: float
    violations: int


def check_pf_minors(
    source,
    order: int = 2,
    window: tuple[float, float] | None = None,
    grid_size: int = 12,
    tol: float = 1e-10,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> TPReport:
    """Scan every order-r minor det[f(x_i - y_j)] over ordered grid subsets.

    A scan of more than _MAX_MINORS minors is refused before any density
    is evaluated.  Minors are normalized by the product of row maxima
    before the sign test, so scale cannot mask a violation.
    """
    if not 1 <= order <= 5:
        raise InvalidSpec("minor order must be in 1..5")
    if not 0.0 <= tol < math.inf:  # NaN would pass every `norm < -tol`
        raise InvalidSpec("tol must be finite and nonnegative")
    if grid_size < order:
        raise InvalidSpec("grid_size must be at least the minor order")
    if grid_size ** 2 > MAX_DENSITY_EVALS:
        raise InvalidSpec(f"{grid_size ** 2:.3g} density evaluations are "
                          f"past the cap of {MAX_DENSITY_EVALS}")
    n_sub = math.comb(grid_size, order)
    total = n_sub ** 2
    if total > _MAX_MINORS:
        raise InvalidSpec(f"C({grid_size}, {order})^2 = {total:.3g} minors "
                          f"are past the cap of {_MAX_MINORS:.3g}")
    lo, hi = window or source.suggest_window()
    if not hi > lo:
        raise InvalidSpec("window must have positive width")
    xs = np.linspace(lo, hi, grid_size)
    diffs = xs[:, None] - xs[None, :]
    fvals = source.eval(diffs.ravel(), qc=qc, pc=pc).reshape(diffs.shape)
    combos = np.array(list(itertools.combinations(range(grid_size), order)))

    min_norm, min_raw = math.inf, 0.0
    argx = argy = ()
    violations = 0
    step = _CHUNK // order ** 2
    for start in range(0, total, step):
        pair = np.arange(start, min(start + step, total))
        xi, yi = combos[pair // n_sub], combos[pair % n_sub]
        sub = fvals[xi[:, :, None], yi[:, None, :]]
        raw = det_dd(dd.from_array(sub)).to_float()
        scale = np.abs(sub).max(axis=2).prod(axis=1)  # in row order
        norm = np.divide(raw, scale, out=raw.copy(), where=scale > 0.0)
        violations += int(np.count_nonzero(norm < -tol))
        i = int(np.argmin(np.fmin(norm, np.inf)))  # NaN fails `<`, never wins
        if norm[i] < min_norm:
            min_norm, min_raw = float(norm[i]), float(raw[i])
            argx, argy = tuple(xs[xi[i]].tolist()), tuple(xs[yi[i]].tolist())
    return TPReport(
        order=order,
        passed=violations == 0,
        min_minor=min_raw,
        min_minor_normalized=min_norm if min_norm < math.inf else 0.0,
        argmin_x=argx,
        argmin_y=argy,
        minors_checked=total,
        tol=tol,
        violations=violations,
    )


@dataclass(frozen=True)
class DerivMinorReport:
    order: int
    passed: bool
    min_minor: float
    argmin_x: tuple[float, ...]
    y: float
    minors_checked: int
    tol: float
    method: str


def _fd_derivative(source, x, order, h, qc, pc):
    """Central differences of order h^2 for f^(order), with one Richardson
    halving used as a consistency check."""
    stencils = {
        0: ([0.0], [1.0], 1.0),
        1: ([-1.0, 1.0], [-0.5, 0.5], 1.0),
        2: ([-1.0, 0.0, 1.0], [1.0, -2.0, 1.0], 2.0),
        3: ([-2.0, -1.0, 1.0, 2.0], [-0.5, 1.0, -1.0, 0.5], 3.0),
        4: ([-2.0, -1.0, 0.0, 1.0, 2.0], [1.0, -4.0, 6.0, -4.0, 1.0], 4.0),
    }
    offs, wts, pw = stencils[order]

    def estimate(step):
        pts = np.asarray([x + o * step for o in offs])
        vals = source.eval(pts, qc=qc, pc=pc)
        return float(np.dot(wts, np.atleast_1d(vals))) / step**order if order \
            else float(np.atleast_1d(vals)[0])

    d1 = estimate(h)
    d2 = estimate(h / 2.0)
    # h^2 stencils: Richardson difference estimates the truncation error
    err = abs(d1 - d2) / 3.0
    best = (4.0 * d2 - d1) / 3.0
    return best, err


def check_derivative_minors(
    source,
    x_points,
    order: int = 2,
    y: float = 0.0,
    h: float = 1e-2,
    tol: float = 1e-8,
    smooth_tol: float = 1e-3,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> DerivMinorReport:
    """Collocated-column minors: (-1)^{r(r-1)/2} det[f^{(q)}(x_i - y)] over
    sorted x-subsets of size r = order, q = 0..r-1.

    Uses the source's exact derivatives when it has them; otherwise central
    differences, raising NonSmoothPoint when the Richardson halving check
    shows the derivative estimates are inconsistent (kink or jump inside
    the stencil).
    """
    if not 1 <= order <= 5:
        raise InvalidSpec("minor order must be in 1..5")
    if not 0.0 <= tol < math.inf:
        raise InvalidSpec("tol must be finite and nonnegative")
    xs = np.sort(np.asarray(x_points, dtype=float))
    if xs.size < order:
        raise InvalidSpec("need at least `order` x points")
    has_exact = isinstance(source, SchoenbergDensity)
    method = "exact" if has_exact else "central-differences"

    # derivative table D[i, q] = f^{(q)}(x_i - y)
    D = np.empty((xs.size, order))
    for i, xi in enumerate(xs):
        for q in range(order):
            if has_exact:
                D[i, q] = source.eval(xi - y, qc=qc, pc=pc, order=q)
            else:
                val, err = _fd_derivative(source, xi - y, q, h, qc, pc)
                scale = max(abs(val), 1e-12)
                if err > smooth_tol * scale + 1e-9:
                    raise NonSmoothPoint(
                        f"derivative {q} at {xi - y:g} is inconsistent "
                        f"under step halving (err {err:.2e})")
                D[i, q] = val

    sign = (-1.0) ** (order * (order - 1) // 2)
    min_minor = math.inf
    argx: tuple = ()
    violations = 0
    combos = itertools.combinations(range(xs.size), order)
    while chunk := list(itertools.islice(combos, _CHUNK // order ** 2)):
        idx = np.array(chunk)
        val = sign * det_dd(dd.from_array(D[idx])).to_float()
        violations += int(np.count_nonzero(val < -tol))
        i = int(np.argmin(np.fmin(val, np.inf)))
        if val[i] < min_minor:
            min_minor = float(val[i])
            argx = tuple(xs[idx[i]].tolist())
    return DerivMinorReport(
        order=order,
        passed=violations == 0,
        min_minor=min_minor,
        argmin_x=argx,
        y=y,
        minors_checked=math.comb(xs.size, order),
        tol=tol,
        method=method,
    )
