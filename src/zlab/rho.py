"""The positive measure whose Fourier-type transform the z layer evaluates.

For admissible parameters (all coefficients nonnegative, plus d > 0 or
omega + sum(coeffs) > 0) the density on the line is

    rho(u) = u^{2m} * e^{-omega u^2 - d u^4} * prod_j (1 + d_j u^2) e^{-d_j u^2},

an even, nonnegative, rapidly decaying function.  It satisfies the exact
algebraic identity rho(u) * p(-i u^2) = u^{2m} with p the characteristic
function built from the same parameters.

Everything here is evaluated in the direct product form above; exponents are
combined once (E = -(omega + sum d_j) u^2 - d u^4) so the only floating
hazards are graceful underflow to zero and, for violently negative omega,
an honest overflow report.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MomentConvexityWarning, NonConvergence, NonFinite
from .numerics import ddouble as dd
from .numerics.ddouble import DD
from .numerics.quadrature import (
    NATIVE,
    IntegralResult,
    PrecisionConfig,
    QuadratureConfig,
    integrate_adaptive,
)
from .schoenberg import SchoenbergParams, validate

_LOG_TINY = math.log(1e-300)


@dataclass(frozen=True)
class RhoSpec:
    """Admissible parameter set: rejects anything whose measure is not
    finite and nonnegative."""

    params: SchoenbergParams

    def __post_init__(self):
        report = validate(self.params)
        if not report.admissible:
            raise InvalidSpec("; ".join(report.messages))

    @property
    def quad_coeff(self) -> float:
        """Coefficient of -u^2 in the combined exponent."""
        return self.params.omega + self.params.coeff_sum


def gue_spec() -> RhoSpec:
    """The e^{-u^4/2} du member (quartic weight, no exponential factors)."""
    return RhoSpec(SchoenbergParams(omega=0.0, d=0.5, coeffs=(), m=0))


def density(spec: RhoSpec, u):
    """rho(u) for float scalars or ndarrays.  Underflow yields 0; overflow
    (possible only for strongly negative omega balanced by d > 0) raises."""
    p = spec.params
    u_arr = np.asarray(u, dtype=float)
    u2 = u_arr * u_arr
    expo = -spec.quad_coeff * u2 - p.d * (u2 * u2)
    if np.any(expo > 700.0):
        raise NonFinite("density exceeds float range (omega too negative)")
    poly = np.ones_like(u_arr)
    for c in p.coeffs:
        poly = poly * (1.0 + c * u2)
    with np.errstate(under="ignore"):
        out = poly * np.exp(expo)
        if p.m:
            out = out * u2**p.m
    if np.ndim(u) == 0:
        return float(out)
    return out


def density_dd(spec: RhoSpec, u) -> DD:
    """rho(u) in double-double; u may be a DD (scalar or array-backed)."""
    p = spec.params
    if not isinstance(u, DD):
        u = DD(np.asarray(u, dtype=float), 0.0)
    u2 = u.sqr()
    c2 = dd.reduce_sum(dd.from_array(np.array([p.omega, *p.coeffs])))
    expo = -(c2 * u2) - u2.sqr() * p.d
    poly = DD(1.0, 0.0)
    for c in p.coeffs:
        poly = poly * (u2 * c + 1.0)
    out = poly * dd.exp(expo)
    if p.m:
        out = out * dd.powi(u2, p.m)
    return out


def log_density(spec: RhoSpec, u):
    """log rho(u); -inf at u = 0 when m > 0.  Envelope probing only."""
    p = spec.params
    u_arr = np.asarray(u, dtype=float)
    u2 = u_arr * u_arr
    out = -spec.quad_coeff * u2 - p.d * (u2 * u2)
    for c in p.coeffs:
        out = out + np.log1p(c * u2)
    if p.m:
        with np.errstate(divide="ignore"):
            out = out + p.m * np.log(u2)
    if np.ndim(u) == 0:
        return float(out)
    return out


# pure in all its arguments; the scan, walk and probes ask for the same
# radii again and again
@functools.lru_cache(maxsize=1024)
def support_radius(
    spec: RhoSpec,
    log_tol: float = _LOG_TINY / 4,
    *,
    b: float = 0.0,
    extra_linear: float = 0.0,
    extra_log_pow: float = 0.0,
) -> float:
    """Smallest convenient U with the weighted envelope below log_tol at and
    beyond U, so truncating rho-type integrands to [-U, U] is safe.

    The envelope is log rho(u) - b u^2 + extra_linear * u
    + extra_log_pow * log u + log(1 + u); the last term budgets the tail
    length, extra_linear admits e^{|Im z| u} transform factors and
    extra_log_pow admits u^k moment factors.
    """

    def phi(u: float) -> float:
        v = log_density(spec, u) - b * u * u + extra_linear * u + math.log1p(u)
        if extra_log_pow:
            v += extra_log_pow * math.log(max(u, 1e-300))
        return v

    hi = 1.0
    lo = 0.0
    for _ in range(80):
        if phi(hi) <= log_tol and phi(2.0 * hi) <= log_tol:
            break
        lo = hi
        hi *= 2.0
    else:
        raise NonConvergence("no admissible truncation radius below 2^80")
    if lo == 0.0:
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= log_tol and phi(2.0 * mid) <= log_tol:
            hi = mid
        else:
            lo = mid
    return 1.05 * hi


def total_mass(
    spec: RhoSpec,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> IntegralResult:
    """Integrate rho over the line (two-sided; evenness is not assumed)."""
    qc = qc or QuadratureConfig()
    radius = support_radius(spec)
    return integrate_adaptive(
        lambda u: density(spec, u),
        -radius,
        radius,
        qc=qc,
        pc=pc,
        f_dd=lambda u: density_dd(spec, u),
    )


@dataclass(frozen=True)
class Moments:
    """Power moments of e^{-b u^2} rho(u); odd entries vanish by symmetry
    and are stored as exact zeros."""

    b: float
    values: tuple[float, ...]
    errors: tuple[float, ...]
    values_dd: tuple[DD, ...] | None = None

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


def moments(
    spec: RhoSpec,
    k_max: int,
    b: float = 0.0,
    qc: QuadratureConfig | None = None,
    pc: PrecisionConfig = NATIVE,
) -> Moments:
    """m_k = integral u^k e^{-b u^2} rho(u) du for k = 0..k_max.

    Even integrands over a symmetric interval: computed as twice the
    half-line integral.  A Cauchy-Schwarz check m_{k+2}^2 <= m_k m_{k+4}
    on the even ladder flags quadrature noise as a warning.
    """
    if k_max < 0:
        raise InvalidSpec("k_max must be nonnegative")
    if b < 0.0:
        raise InvalidSpec("b must be nonnegative")
    qc = qc or QuadratureConfig()
    radius = support_radius(spec, b=b, extra_log_pow=float(k_max))
    vals: list[float] = []
    errs: list[float] = []
    vals_dd: list[DD] = []
    extended = pc.mode == "extended"
    for k in range(k_max + 1):
        if k % 2 == 1:
            vals.append(0.0)
            errs.append(0.0)
            vals_dd.append(DD(0.0, 0.0))
            continue

        def f(u, _k=k):
            return u**_k * density(spec, u) * np.exp(-b * u * u)

        def f_dd(u, _k=k):
            w = density_dd(spec, u)
            if _k:
                w = w * dd.powi(u, _k)
            if b:
                w = w * dd.exp(u.sqr() * (-b))
            return w

        res = integrate_adaptive(f, 0.0, radius, qc=qc, pc=pc, f_dd=f_dd)
        vals.append(2.0 * res.real)
        errs.append(2.0 * res.error)
        if extended and res.value_dd is not None:
            vals_dd.append(res.value_dd.re.scale2(2.0))
        else:
            vals_dd.append(DD(2.0 * res.real, 0.0))
    for k in range(0, k_max - 3, 2):
        a, mid, c = vals[k], vals[k + 2], vals[k + 4]
        if a > 0.0 and c > 0.0 and mid * mid > a * c * (1.0 + 1e-8):
            warnings.warn(
                f"moment ladder fails convexity at k={k + 2}: "
                f"quadrature noise likely",
                MomentConvexityWarning,
            )
    return Moments(
        b=b,
        values=tuple(vals),
        errors=tuple(errs),
        values_dd=tuple(vals_dd) if extended else None,
    )
