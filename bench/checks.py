"""Independent correctness checks, run outside the timed region.

Each check reads what one CLI operation wrote (its stdout summary, result
envelope and payload files) and compares it against a route that does not
go through the code path being timed: closed forms, the extended-precision
hypergeometric form of the quartic weight, the moment series, the
Dirichlet-eta zeta oracle, numpy's LAPACK eigensolver, and the criterion 5,
6 and 7 thresholds of the acceptance suite.

A check returns a Verdict.  ``results`` counts the zeros or eigenvalues it
confirmed; ``vouched``/``requested`` give the window width the program
vouched for against the width asked for (None where no window applies).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zlab.errors import ZlabError
from zlab.numerics.quadrature import EXTENDED
from zlab.randmat import sample_gue
from zlab.rho import gue_spec
from zlab.xi import xi_eval_err, xi_from_zeta
from zlab.ztransform import ZSpec, eval_gue_hypergeom, eval_series


@dataclass
class OpResult:
    argv: list[str]
    outdir: Path
    code: int | None
    stdout: str
    stderr: str
    latency: float
    error: str | None = None


@dataclass
class Verdict:
    ok: bool
    results: int = 0
    vouched: float | None = None
    requested: float | None = None
    note: str = ""
    flagged: bool = False


def fail(note: str) -> Verdict:
    return Verdict(False, note=note)


def _status(res: OpResult, code: int = 0) -> Verdict | None:
    if res.error is not None:
        return fail(f"raised {res.error.strip().splitlines()[-1]}")
    if res.code != code:
        return fail(f"exit {res.code}, expected {code}: "
                    f"{res.stderr.strip()[-200:]}")
    return None


def envelope(res: OpResult) -> dict:
    last = res.stdout.strip().splitlines()[-1]
    if not last.startswith("envelope: "):
        raise ValueError(f"no envelope line in {last!r}")
    return json.loads(Path(last[len("envelope: "):]).read_text())


def payload_path(res: OpResult) -> Path:
    return res.outdir / envelope(res)["payload"]["path"]


def zero_table(res: OpResult) -> dict:
    """The cached JSON form of a z-zeros / xi-zeros table."""
    return json.loads(payload_path(res).with_suffix(".json").read_text())


def _noise_width(doc: dict) -> float:
    return math.fsum(hi - lo for lo, hi in doc["noise_regions"])


class Unresolved(Exception):
    """The reference value does not clear its own error bound."""


def _resolved(value: float, error: float) -> float:
    if not abs(value) > 4.0 * error:
        raise Unresolved
    return value


def _sign_change(f, z: float, delta: float) -> bool | None:
    """True/False when f changes sign across z +- delta; None when the
    reference route cannot resolve the sign there."""
    try:
        lo, hi = f(z - delta), f(z + delta)
    except (ZlabError, Unresolved):
        return None
    return lo * hi < 0.0


def single_factor_zero(c: float, b: float) -> float:
    """Closed form of the one real zero for coeffs (c,) at damping b."""
    a = c + b
    return math.sqrt(4.0 * a * a / c + 2.0 * a)


# ---------- reference routes, computed once per process ----------


def _quartic_hyp(z: float) -> float:
    v = eval_gue_hypergeom(z, pc=EXTENDED)
    return _resolved(v.value.real, v.error)


def _quartic_series(b: float, z: float) -> float:
    v = eval_series(ZSpec(gue_spec(), b), z, pc=EXTENDED)
    return _resolved(v.value.real, v.error)


def _xi_oracle(z: float) -> float:
    return xi_from_zeta(z).real


def _xi_direct(b: float, z: float) -> float:
    v, err = xi_eval_err(z, b)
    return _resolved(v.real, err)


def _grid_zeros(f, lo: float, hi: float, step: float) -> tuple[list, float]:
    """Sign-change midpoints of f on a grid, and the reach of the grid
    (the last point before f could not be resolved, else hi)."""
    zeros, prev, z = [], None, lo
    while z <= hi + 1e-12:
        try:
            v = f(z)
        except (ZlabError, Unresolved):
            return zeros, z - step
        if prev is not None and prev * v < 0.0:
            zeros.append(z - 0.5 * step)
        prev, z = v, z + step
    return zeros, hi


@functools.cache
def quartic_reference() -> tuple[tuple, float]:
    zs, reach = _grid_zeros(_quartic_hyp, 0.0, 50.0, 0.02)
    return tuple(zs), reach


@functools.cache
def xi_reference() -> tuple:
    zs, _ = _grid_zeros(_xi_oracle, 0.5, 50.0, 0.02)
    return tuple(zs)


def _match(found: list[float], ref: list[float], tol: float) -> bool:
    return len(found) == len(ref) and all(
        abs(a - b) <= tol for a, b in zip(sorted(found), sorted(ref)))


# ---------- certify ----------


def verify_draw(res: OpResult, coeffs, b: float, z_max: float) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    lo, hi = inl["window"]
    if not inl["passed"] or inl["n_real"] != inl["n_rect"]:
        return fail(f"scan {inl['n_real']} vs winding {inl['n_rect']}")
    if len(coeffs) == 1:
        z0 = single_factor_zero(coeffs[0], b)
        want = int(lo < z0 <= hi)
        if inl["n_real"] != want:
            return fail(f"{inl['n_real']} zeros on [{lo}, {hi}], closed "
                        f"form puts {want} there (z = {z0:.12g})")
    return Verdict(True, inl["n_real"], hi - lo, z_max)


def verify_anchor(res: OpResult, zeros: int, z_max: float,
                  full_window: bool) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    lo, hi = inl["window"]
    if not (inl["passed"] and inl["n_real"] == inl["n_rect"] == zeros):
        return fail(f"expected {zeros} zeros by scan and winding, got "
                    f"{inl['n_real']} / {inl['n_rect']}")
    if full_window and hi != z_max:
        return fail(f"window ends at {hi}, expected {z_max}")
    if hi < z_max and "no credible zeros" not in inl["tail_note"]:
        return fail(f"unverified tail not reported: {inl['tail_note']!r}")
    return Verdict(True, zeros, hi - lo, z_max)


def tp_draw(res: OpResult, order: int, grid: int) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    if not inl["passed"] or inl["violations"]:
        return fail(f"order-{order} minors violate: "
                    f"{inl['min_minor_normalized']:.3e}")
    if inl["minors_checked"] != math.comb(grid, order) ** 2:
        return fail(f"{inl['minors_checked']} minors checked")
    return Verdict(True)


def tp_control(res: OpResult) -> Verdict:
    bad = _status(res, code=3)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    if inl["passed"] or not inl["min_minor_normalized"] < -1e-6:
        return fail("bimodal control did not violate total positivity")
    return Verdict(True)


# ---------- tables ----------


def zeros_quartic(res: OpResult, z_max: float) -> Verdict:
    """Every zero the hypergeometric route reaches changes its sign, and
    the table matches that route's zero set up to the first noise region."""
    bad = _status(res)
    if bad:
        return bad
    doc = zero_table(res)
    zs = [zr["z"] for zr in doc["zeros"]]
    ref, reach = quartic_reference()
    noise_from = min((lo for lo, _ in doc["noise_regions"]), default=z_max)
    edge = min(reach, noise_from, z_max) - 0.05
    if not _match([z for z in zs if z <= edge],
                  [z for z in ref if z <= edge], 0.02):
        return fail(f"zeros below {edge:.3g} do not match the "
                    "hypergeometric route")
    confirmed = 0
    for z in zs:
        ok = _sign_change(_quartic_hyp, z, 1e-6 * max(1.0, z))
        if ok is False:
            return fail(f"no sign change of the hypergeometric form at {z}")
        confirmed += bool(ok)
    return Verdict(True, confirmed, z_max - _noise_width(doc), z_max)


def zeros_gauss(res: OpResult, z_max: float) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    doc = zero_table(res)
    if doc["zeros"]:
        return fail(f"{len(doc['zeros'])} zeros for a zero-free transform")
    return Verdict(True, 0, z_max - _noise_width(doc), z_max)


def zeros_single(res: OpResult, c: float, b: float, z_max: float) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    doc = zero_table(res)
    z0 = single_factor_zero(c, b)
    zs = [zr["z"] for zr in doc["zeros"]]
    if len(zs) != 1 or abs(zs[0] - z0) > 1e-10 * max(1.0, z0):
        return fail(f"zeros {zs}, closed form {z0!r}")
    return Verdict(True, 1, z_max - _noise_width(doc), z_max)


def cache_repeat(res: OpResult, original: OpResult, check) -> Verdict:
    """A verbatim repeat: served from the cache, same content hash, and the
    original's check still holds."""
    if not res.stdout.startswith("cache hit"):
        return fail("repeat was not served from the cache")
    if res.code == 0 and original.code == 0 and \
            envelope(res)["content_hash"] != envelope(original)["content_hash"]:
        return fail("cached result differs from the computed one")
    return check(res)


# ---------- flow ----------


def _trajectory_points(res: OpResult) -> list[tuple[int, float, float]]:
    rows = list(csv.reader(io.StringIO(payload_path(res).read_text())))
    return [(int(r[0]), float(r[1]), float(r[2])) for r in rows[1:] if r]


def flow_quartic(res: OpResult, b_grid, z_max: float) -> Verdict:
    """b = 0 zeros against the hypergeometric route (complete on the
    window); b > 0 zeros by sign changes of the extended moment series
    wherever the series converges."""
    bad = _status(res)
    if bad:
        return bad
    pts = _trajectory_points(res)
    ref, reach = quartic_reference()
    at0 = [z for _, b, z in pts if b == b_grid[0]]
    if reach >= z_max and not _match(at0, [z for z in ref if z <= z_max],
                                     0.02):
        return fail("b = 0 zeros do not match the hypergeometric route")
    confirmed = 0
    for _, b, z in pts:
        f = _quartic_hyp if b == 0.0 else functools.partial(_quartic_series, b)
        ok = _sign_change(f, z, 1e-6 * max(1.0, z))
        if ok is False:
            return fail(f"no reference sign change at b = {b}, z = {z}")
        confirmed += bool(ok)
    return Verdict(True, confirmed)


def flow_single(res: OpResult, c: float, b_grid, z_max: float) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    pts = _trajectory_points(res)
    want = [(b, single_factor_zero(c, b)) for b in b_grid]
    got = [(b, z) for _, b, z in pts]
    if len(got) != len(want) or any(
            gb != wb or abs(gz - wz) > 1e-9 * max(1.0, wz)
            for (gb, gz), (wb, wz) in zip(got, want)):
        return fail(f"trajectory {got}, closed form {want}")
    return Verdict(True, len(got))


def xi_zeros(res: OpResult, z_max: float) -> Verdict:
    """Every zero is confirmed by the eta-series oracle, and the table holds
    every oracle zero below z_max unless the program itself reports the
    winding-count mismatch, in which case it vouches for no window."""
    bad = _status(res)
    if bad:
        return bad
    doc = zero_table(res)
    zs = [zr["z"] for zr in doc["zeros"]]
    for z in zs:
        if _sign_change(_xi_oracle, z, 1e-6 * max(1.0, z)) is False:
            return fail(f"oracle does not change sign at {z}")
    ref = [z for z in xi_reference() if z <= z_max]
    if _match(zs, ref, 0.02):
        return Verdict(True, len(zs), z_max - _noise_width(doc), z_max)
    if len(zs) < len(ref) and any("MISMATCH" in n for n in doc["notes"]):
        return Verdict(True, len(zs), 0.0, z_max, flagged=True,
                       note=f"{len(zs)} of {len(ref)} oracle zeros; the "
                            "program reports the winding mismatch")
    return fail(f"{len(zs)} zeros vs {len(ref)} oracle zeros, unreported")


def xi_flow(res: OpResult, b_grid, z_max: float) -> Verdict:
    bad = _status(res)
    if bad:
        return bad
    pts = _trajectory_points(res)
    at0 = [z for _, b, z in pts if b == 0.0]
    if not _match(at0, [z for z in xi_reference() if z <= z_max], 0.02):
        return fail(f"b = 0 zeros {at0} do not match the oracle")
    confirmed = 0
    for _, b, z in pts:
        f = _xi_oracle if b == 0.0 else functools.partial(_xi_direct, b)
        ok = _sign_change(f, z, 1e-6 * max(1.0, z))
        if ok is False:
            return fail(f"no reference sign change at b = {b}, z = {z}")
        confirmed += bool(ok)
    return Verdict(True, confirmed)


# ---------- spectra ----------


def gue_sample(res: OpResult, n: int, samples: int, seed: int) -> Verdict:
    """Each spectrum against LAPACK on the regenerated matrix."""
    bad = _status(res)
    if bad:
        return bad
    rows = list(csv.reader(io.StringIO(payload_path(res).read_text())))[1:]
    lam = np.array([float(r[2]) for r in rows if r])
    if lam.size != n * samples:
        return fail(f"{lam.size} eigenvalues, expected {n * samples}")
    lam = lam.reshape(samples, n)
    for i in range(samples):
        a = sample_gue(n, seed, index=i).entries
        ref = np.linalg.eigvalsh(a)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        if np.max(np.abs(lam[i] - ref)) > tol:
            return fail(f"spectrum {i} differs from LAPACK by "
                        f"{np.max(np.abs(lam[i] - ref)):.3e}")
    return Verdict(True, lam.size)


def spacings(res: OpResult, reference: str) -> Verdict:
    """Criterion 7: KS below 0.05 against the surmise, above 0.15 against
    the Poisson control."""
    bad = _status(res)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    ks = inl["ks_distance"]
    if reference == "gue" and not ks < 0.05:
        return fail(f"KS {ks:.4f} against the Wigner surmise")
    if reference == "poisson" and not ks > 0.15:
        return fail(f"KS {ks:.4f} against the Poisson control")
    return Verdict(True)


def gue_char(res: OpResult, exact: float) -> Verdict:
    """Criterion 6: within 3 standard errors of the closed form."""
    bad = _status(res)
    if bad:
        return bad
    inl = envelope(res)["payload"]["inline"]
    emp = complex(*inl["empirical"])
    ref = complex(*inl["product_reference"])
    if abs(ref - exact) > 1e-12:
        return fail(f"product formula {ref} vs closed form {exact}")
    pull = abs(emp - exact) / inl["se"]
    if not pull < 3.0:
        return fail(f"pull {pull:.2f} standard errors")
    return Verdict(True)
