"""Characteristic functions of the exponential-Gaussian product class.

A parameter set (omega, d, coeffs=(d_1..d_k), m) encodes

    p(t) = e^{i omega t} * e^{-d t^2} * prod_j e^{i d_j t} / (1 + i d_j t),

the characteristic function of a drifted Gaussian convolved with centered
one-sided exponentials of scales d_j.  d >= 0 is required; coefficient signs
are unrestricted here (a negative d_j flips its exponential to the other
side of the origin) and only the induced-measure layer insists on
nonnegativity.  The trailing integer m is carried for the measure layer,
which attaches a u^{2m} moment factor; p itself never uses it.

p extends meromorphically to complex t with simple poles at t = i/d_j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, NonFinite, PoleProximity

_EXP_CAP = 690.0  # exp argument above which float64 overflows
_POLE_EPS = 1e-8  # relative distance to a pole that eval_p refuses


@dataclass(frozen=True)
class SchoenbergParams:
    """Validated parameter tuple; immutable and JSON round-trippable."""

    omega: float = 0.0
    d: float = 0.0
    coeffs: tuple[float, ...] = ()
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not math.isfinite(self.omega):
            raise InvalidSpec("omega must be finite")
        if not (self.d >= 0.0 and math.isfinite(self.d)):
            raise InvalidSpec("d must be finite and nonnegative")
        if any(not math.isfinite(c) for c in self.coeffs):
            raise InvalidSpec("coefficients must be finite")
        if not isinstance(self.m, int) or self.m < 0:
            raise InvalidSpec("m must be a nonnegative integer")

    @property
    def coeff_sum(self) -> float:
        return math.fsum(self.coeffs)


@dataclass(frozen=True)
class ValidationReport:
    rho_finite: bool
    rho_nonnegative: bool
    messages: tuple[str, ...] = field(default=())

    @property
    def admissible(self) -> bool:
        return self.rho_finite and self.rho_nonnegative


def poles(params: SchoenbergParams) -> list[complex]:
    """Pole locations i/d_j, skipping zero coefficients (factor reduces to 1)."""
    return [complex(0.0, 1.0 / c) for c in params.coeffs if c != 0.0]


def validate(params: SchoenbergParams) -> ValidationReport:
    """Report whether the induced measure layer can accept these parameters.

    rho_finite: the density u^{2m} e^{-omega u^2 - d u^4} prod (1+d_j u^2)
    e^{-d_j u^2} is integrable, i.e. d > 0 or omega + sum d_j > 0.
    rho_nonnegative: every (1 + d_j u^2) stays nonnegative on the line,
    i.e. all d_j >= 0.
    """
    msgs: list[str] = []
    finite = params.d > 0.0 or (params.omega + params.coeff_sum) > 0.0
    if not finite:
        msgs.append("density is not integrable: d = 0 and omega + sum(coeffs) <= 0")
    nonneg = all(c >= 0.0 for c in params.coeffs)
    if not nonneg:
        msgs.append("negative coefficient flips 1 + d_j u^2 negative for large u")
    return ValidationReport(finite, nonneg, tuple(msgs))


def eval_p(params: SchoenbergParams, t):
    """Evaluate p at real or complex t (scalars or ndarrays).

    Raises PoleProximity within 1e-8 * max(1, |t|) of any pole and
    NonFinite when the Gaussian factor would overflow (possible only for
    complex t with |Im t| > |Re t| and d > 0) or the value is not finite
    (d > 0 and t so large that t^2 overflows).
    """
    t_arr = np.asarray(t, dtype=complex)
    for pole in poles(params):
        gap = np.abs(t_arr - pole)
        bad = gap <= _POLE_EPS * np.maximum(1.0, np.abs(t_arr))
        if np.any(bad):
            raise PoleProximity(f"t within {_POLE_EPS:g} of pole {pole}",
                                pole=pole)
    with np.errstate(over="ignore", invalid="ignore"):
        ex = 1j * params.omega * t_arr
        # without a Gaussian factor, t^2 may overflow where p is finite
        if params.d:
            ex = ex - params.d * (t_arr * t_arr)
        re_total = ex.real - params.coeff_sum * t_arr.imag
    if np.any(re_total > _EXP_CAP):
        raise NonFinite("characteristic function overflows at this argument")
    out = np.exp(ex)
    for c in params.coeffs:
        if c == 0.0:
            continue
        out = out * (np.exp(1j * c * t_arr) / (1.0 + 1j * c * t_arr))
    if not np.all(np.isfinite(out)):
        raise NonFinite("characteristic function is not finite at this "
                        "argument")
    if np.ndim(t) == 0:
        return complex(out)
    return out


# ---------- params JSON wire format ----------


def params_to_dict(params: SchoenbergParams) -> dict:
    return {"omega": params.omega, "d": params.d,
            "coeffs": list(params.coeffs), "m": params.m}


def params_from_dict(obj: dict) -> SchoenbergParams:
    if not isinstance(obj, dict):
        raise InvalidSpec("params must be a JSON object")
    unknown = set(obj) - {"omega", "d", "coeffs", "m"}
    if unknown:
        raise InvalidSpec(f"unknown params keys: {sorted(unknown)}")
    coeffs = obj.get("coeffs", [])
    if not isinstance(coeffs, list):
        raise InvalidSpec("coeffs must be a list of numbers")
    m = obj.get("m", 0)
    if isinstance(m, bool) or not isinstance(m, int):
        raise InvalidSpec("m must be an integer")
    try:
        return SchoenbergParams(
            omega=float(obj.get("omega", 0.0)),
            d=float(obj.get("d", 0.0)),
            coeffs=tuple(float(c) for c in coeffs),
            m=m,
        )
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed params: {exc}") from exc


def params_from_json(text: str) -> SchoenbergParams:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"params JSON does not parse: {exc}") from exc
    return params_from_dict(obj)
