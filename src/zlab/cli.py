"""Command-line surface: one subcommand per library operation.

Every run writes a result envelope (JSON) into the output directory: the
command, its full scientific configuration, the package version, wall
time, the payload location, and a content hash over configuration plus
payload.  Deterministic commands reproduce the hash bit for bit under the
same version, so envelopes double as replay certificates.  stdout carries
a human summary only; machine-readable output lives in files.

Each subcommand accepts only the shared flags it reads (_COMMANDS), and
the config records exactly the flags a command reads, except output
location, --threads and --force: none of them may change a result.

Exit codes: 0 success, 1 argument or specification errors, among them a
size past its cap (tp-check checks every minor of its grid, and refuses a
grid with too many), 2 numerical failures, 3 a total-positivity violation
found by tp-check, 4 a reality
verification FAIL from z-verify or a scan/winding MISMATCH in an xi-zeros
table (fresh or cached).  A MISMATCH can be a non-real zero in the strip,
which the winding count sees and the real-axis scan cannot, not only a
numerical disagreement.

Zero tables (z-zeros, xi-zeros) are cached under <outputdir>/cache keyed
by the configuration hash; a hit skips recomputation unless --force.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .errors import DomainError, InvalidSpec, ZlabError
from .numerics.quadrature import NATIVE, PrecisionConfig, QuadratureConfig
from .pfreq import (
    MAX_DENSITY_EVALS,
    SchoenbergDensity,
    TabulatedDensity,
    check_pf_minors,
)
from .randmat import (
    HermitianMatrix,
    SpectralSample,
    compare_zero_spacings,
    empirical_char_fn,
    product_char_fn,
    sample_spectra,
    spacing_report_to_json,
    spacing_stats,
)
from .rho import RhoSpec, total_mass
from .schoenberg import eval_p, params_from_json, params_to_dict, validate
from .xi import XiConfig, xi_flow, xi_zeros
from .ztransform import (
    ZERO_TABLE_HEADER,
    ZeroTable,
    ZSpec,
    eval_quadrature,
    find_real_zeros,
    flow_zeros,
    verify_reality,
    zero_table_from_csv,
    zero_table_to_csv,
    zero_table_to_json,
)

_VERSION = f"zlab-{__version__}"
_SPECTRA_HEADER = ["sample", "k", "eigenvalue"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route that through
    # the documented code 1 instead
    def error(self, message):
        raise _UsageError(message)


# ---------- small parsers ----------


def _parse_complex(text: str) -> complex:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not 1 <= len(parts) <= 2:
        raise InvalidSpec(f"expected RE or RE,IM, got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise InvalidSpec(f"expected finite parts, got {text!r}")
    return complex(*parts)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    try:
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n >= 2 and hi > lo:
                return lo, hi, n
    except ValueError:
        pass
    raise InvalidSpec(f"expected LO:HI:N with N >= 2 and HI > LO, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidSpec(f"expected comma-separated numbers, got {text!r}")


def _load_params(text: str):
    """Inline JSON (starts with '{') or a path to a JSON file."""
    if text.lstrip().startswith("{"):
        return params_from_json(text)
    path = Path(text)
    if not path.is_file():
        raise InvalidSpec(f"params file not found: {text}")
    return params_from_json(path.read_text())


def _validated_spec(params) -> RhoSpec:
    rep = validate(params)
    if not (rep.rho_finite and rep.rho_nonnegative):
        raise InvalidSpec("; ".join(rep.messages) or
                          "parameters give no admissible density")
    return RhoSpec(params)


# ---------- envelope plumbing ----------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config)).hexdigest()


def _content_hash(config: dict, payload_bytes: bytes) -> str:
    return hashlib.sha256(_canonical(config) + b"\x00"
                          + payload_bytes).hexdigest()


def _write_envelope(outdir: Path, command: str, config: dict, payload: dict,
                    payload_bytes: bytes, wall: float) -> Path:
    content = _content_hash(config, payload_bytes)
    envelope = {
        "command": command,
        "config": config,
        "version": _VERSION,
        "wall_time_s": round(wall, 6),
        "payload": payload,
        "content_hash": f"sha256:{content}",
    }
    path = outdir / f"{command}-{content[:12]}.json"
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


class _Run(NamedTuple):
    """What a handler returns.

    config holds the command's own keys; main adds "command" and the keys
    of the shared flags the command reads.  payload is an inline dict, a
    (file prefix, CSV text) pair that main writes as
    <prefix>-<config hash>.csv, or, for the cached zero tables, the
    function that computes the ZeroTable on a cache miss.
    """

    config: dict
    payload: dict | tuple[str, str] | Callable[[], ZeroTable]
    summary: Sequence[str] = ()
    code: int = 0


def _zero_table_run(compute, key: str, outdir: Path,
                    force: bool) -> tuple[Path, str, list[str], int]:
    """The cached CSV, its text, the summary and the exit code of a zero
    table keyed by its config hash."""
    cache_dir = outdir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cache_dir / f"{key}.csv"
    json_path = cache_dir / f"{key}.json"
    if csv_path.is_file() and json_path.is_file() and not force:
        # bytes, not text: universal-newline reads would rewrite the CRLF
        # line endings and break hash reproducibility
        text = csv_path.read_bytes().decode()
        doc = json.loads(json_path.read_text())
        summary = [f"cache hit ({csv_path.name})"]
    else:
        table = compute()
        text = zero_table_to_csv(table)
        doc = zero_table_to_json(table)
        csv_path.write_bytes(text.encode())
        json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        summary = []
    zs = doc["zeros"]
    summary.append(f"{len(zs)} zero(s) on [0, {doc['z_max']:g}] "
                   f"(mode {doc['mode']}, step {doc['step']:.4g})")
    for zr in zs:
        summary.append(f"  z_{zr['k']} = {zr['z']:.12f}   "
                       f"residual {zr['residual']:.2e}")
    if doc["noise_regions"]:
        summary.append(f"noise regions: {doc['noise_regions']}")
    for note in doc["notes"]:
        summary.append(f"note: {note}")
    # xi-zeros records its scan vs winding verdict in the notes; read it
    # from the doc so a cache hit fails exactly as the fresh run did
    mismatch = any("(MISMATCH)" in note for note in doc["notes"])
    return csv_path, text, summary, 4 if mismatch else 0


# ---------- command handlers ----------
# Each takes the parsed arguments and the quadrature and precision configs
# built from the shared flags the command declares, and returns a _Run.


def _cmd_p_eval(args, qc, pc):
    params = _load_params(args.params)
    t = _parse_complex(args.t)
    value = eval_p(params, t)
    config = {"params": params_to_dict(params), "t": [t.real, t.imag]}
    inline = {"t": [t.real, t.imag], "p": [value.real, value.imag],
              "abs_p": abs(value)}
    summary = [f"p({t:g}) = {value.real:+.12e} {value.imag:+.12e}i"
               f"   |p| = {abs(value):.12e}"]
    return _Run(config, inline, summary)


def _cmd_pf_eval(args, qc, pc):
    params = _load_params(args.params)
    lo, hi, n = _parse_grid(args.a_grid)
    if n > MAX_DENSITY_EVALS:
        raise InvalidSpec(f"--a-grid needs {n} density evaluations, past "
                          f"the cap of {MAX_DENSITY_EVALS}")
    grid = np.linspace(lo, hi, n)
    vals = SchoenbergDensity(params).eval(grid, qc=qc, pc=pc)
    config = {"params": params_to_dict(params), "a_grid": [lo, hi, n]}
    text = _csv_text(["a", "f"], ((repr(float(a)), repr(float(v)))
                                  for a, v in zip(grid, vals)))
    summary = [f"f on [{lo:g}, {hi:g}] at {n} points: "
               f"min {vals.min():.6e}, max {vals.max():.6e}"]
    return _Run(config, ("pf", text), summary)


def _read_density_csv(path: str) -> TabulatedDensity:
    p = Path(path)
    if not p.is_file():
        raise InvalidSpec(f"density file not found: {path}")
    rows = list(csv.reader(io.StringIO(p.read_text())))
    if not rows or rows[0] != ["a", "f"]:
        raise InvalidSpec('density CSV must carry the header "a,f"')
    try:
        data = [(float(r[0]), float(r[1])) for r in rows[1:] if r]
    except (ValueError, IndexError):
        raise InvalidSpec("density rows must be two numbers a,f")
    return TabulatedDensity([a for a, _ in data], [f for _, f in data])


def _cmd_tp_check(args, qc, pc):
    if (args.params is None) == (args.density is None):
        raise InvalidSpec("tp-check needs exactly one of --params/--density")
    if args.params is not None:
        params = _load_params(args.params)
        source = SchoenbergDensity(params)
        source_desc = {"params": params_to_dict(params)}
    else:
        source = _read_density_csv(args.density)
        source_desc = {"density": Path(args.density).name}
    window = None
    grid_size = args.grid_size
    if args.grid is not None:
        lo, hi, grid_size = _parse_grid(args.grid)
        window = (lo, hi)
    rep = check_pf_minors(source, order=args.order, window=window,
                          grid_size=grid_size, tol=args.tol, qc=qc, pc=pc)
    config = {**source_desc, "order": args.order,
              "grid": list(window) if window else None,
              "grid_size": grid_size, "tol": args.tol}
    inline = {
        "order": rep.order, "passed": rep.passed,
        "min_minor": rep.min_minor,
        "min_minor_normalized": rep.min_minor_normalized,
        "argmin_x": list(rep.argmin_x), "argmin_y": list(rep.argmin_y),
        "minors_checked": rep.minors_checked, "tol": rep.tol,
        "violations": rep.violations,
    }
    verdict = "no violation" if rep.passed else "VIOLATION"
    summary = [f"order-{rep.order} minors: {verdict} "
               f"({rep.minors_checked} checked, "
               f"min normalized minor {rep.min_minor_normalized:.3e})"]
    return _Run(config, inline, summary, 0 if rep.passed else 3)


def _cmd_rho_mass(args, qc, pc):
    spec = _validated_spec(_load_params(args.params))
    res = total_mass(spec, qc=qc, pc=pc)
    inline = {"mass": res.value.real, "error": res.error,
              "mode": res.mode, "escalated": res.escalated}
    summary = [f"mass = {res.value.real:.15g} +/- {res.error:.2e} "
               f"({res.mode}{', escalated' if res.escalated else ''})"]
    return _Run({"params": params_to_dict(spec.params)}, inline, summary)


def _cmd_z_eval(args, qc, pc):
    spec = _validated_spec(_load_params(args.params))
    z = _parse_complex(args.z)
    res = eval_quadrature(ZSpec(spec, args.b), z, qc=qc, pc=pc)
    cancel = res.error / abs(res.value) if res.value != 0 else math.inf
    config = {"params": params_to_dict(spec.params), "b": args.b,
              "z": [z.real, z.imag]}
    inline = {"z": [z.real, z.imag],
              "value": [res.value.real, res.value.imag],
              "error": res.error, "mode": res.mode,
              "escalated": res.escalated, "error_over_value": cancel}
    summary = [f"Z_b({z:g}) = {res.value.real:+.15e} {res.value.imag:+.3e}i",
               f"error bound {res.error:.2e} "
               f"(error/|value| = {cancel:.2e}, mode {res.mode}"
               f"{', escalated' if res.escalated else ''})"]
    return _Run(config, inline, summary)


def _cmd_z_zeros(args, qc, pc):
    spec = _validated_spec(_load_params(args.params))
    config = {"params": params_to_dict(spec.params), "b": args.b,
              "z_max": args.zmax, "step": args.step}
    return _Run(config, lambda: find_real_zeros(
        ZSpec(spec, args.b), args.zmax, pc=pc, step=args.step))


def _cmd_z_verify(args, qc, pc):
    spec = _validated_spec(_load_params(args.params))
    rep = verify_reality(ZSpec(spec, args.b), args.zmax, delta=args.height,
                         x_min=args.x_min, qc=qc, pc=pc)
    config = {"params": params_to_dict(spec.params), "b": args.b,
              "z_max": args.zmax, "height": args.height,
              "x_min": args.x_min}
    inline = {"passed": rep.passed, "window": list(rep.window),
              "n_real": rep.n_real, "n_rect": rep.n_rect,
              "delta": rep.delta, "tail_note": rep.tail_note}
    verdict = "PASS" if rep.passed else "FAIL"
    summary = [f"{verdict}: {rep.n_real} real zero(s) vs winding count "
               f"{rep.n_rect} on [{rep.window[0]:g}, {rep.window[1]:.8g}] "
               f"x [-{rep.delta:g}, {rep.delta:g}]"]
    if rep.tail_note:
        summary.append(f"note: {rep.tail_note}")
    return _Run(config, inline, summary, 0 if rep.passed else 4)


def _flow_run(config: dict, prefix: str, flow) -> _Run:
    rows = [(t_id, repr(float(b)), repr(float(z)))
            for t_id, traj in enumerate(flow.trajectories) for b, z in traj]
    summary = [f"{len(flow.trajectories)} trajectory(ies) over "
               f"b = {flow.b_values}"]
    summary += [f"ambiguity: {a}" for a in flow.ambiguities]
    summary.append("zero count per b: "
                   f"{[len(t.zeros) for t in flow.tables]}")
    return _Run(config, (prefix, _csv_text(["traj", "b", "z"], rows)),
                summary)


def _cmd_z_flow(args, qc, pc):
    spec = _validated_spec(_load_params(args.params))
    bs = _parse_float_list(args.b_grid)
    flow = flow_zeros(ZSpec(spec, 0.0), bs, args.zmax, pc=pc)
    config = {"params": params_to_dict(spec.params), "b_grid": bs,
              "z_max": args.zmax}
    return _flow_run(config, "z-flow", flow)


def _cmd_gue_sample(args, qc, pc):
    if args.n < 1 or args.samples < 1:
        raise InvalidSpec("--n and --samples must be positive")
    config = {"n": args.n, "samples": args.samples, "seed": args.seed}
    rows = [(idx, k, repr(lam)) for idx, sample
            in enumerate(sample_spectra(args.n, args.samples, args.seed))
            for k, lam in enumerate(sample.eigenvalues)]
    summary = [f"{args.samples} spectra of size {args.n} (seed {args.seed})"]
    return _Run(config, ("spectra", _csv_text(_SPECTRA_HEADER, rows)),
                summary)


def _read_matrix_csv(path: str) -> HermitianMatrix:
    p = Path(path)
    if not p.is_file():
        raise InvalidSpec(f"matrix file not found: {path}")
    rows = list(csv.reader(io.StringIO(p.read_text())))
    if not rows or not rows[0] or rows[0][0] != "c0":
        raise InvalidSpec('matrix CSV must carry the header "c0,c1,..."')
    n = len(rows[0])
    if rows[0] != [f"c{j}" for j in range(n)]:
        raise InvalidSpec('matrix CSV must carry the header "c0,c1,..."')
    try:
        entries = [[complex(cell) for cell in row] for row in rows[1:] if row]
    except ValueError:
        raise InvalidSpec("matrix entries must parse as complex numbers")
    return HermitianMatrix(np.array(entries, dtype=complex))


def _cmd_gue_char(args, qc, pc):
    x = _read_matrix_csv(args.x_file)
    if x.n != args.n:
        raise InvalidSpec(f"--n {args.n} does not match the {x.n} x {x.n} "
                          "matrix file")
    # --threads changes nothing, but a value no host could run is refused;
    # four stay allowed on any host
    cap = max(4, os.cpu_count() or 1)
    if not 1 <= args.threads <= cap:
        raise InvalidSpec(f"--threads {args.threads} is outside 1..{cap} "
                          f"(os.cpu_count(), at least 4)")
    emp, se = empirical_char_fn(args.n, x, args.samples, args.seed)
    ref = product_char_fn(x)
    pull = abs(emp - ref) / se if se > 0.0 else 0.0
    config = {"n": args.n, "samples": args.samples, "seed": args.seed,
              "matrix": Path(args.x_file).name}
    inline = {"empirical": [emp.real, emp.imag], "se": se,
              "product_reference": [ref.real, ref.imag], "pull": pull}
    summary = [f"empirical = {emp.real:+.8f} {emp.imag:+.8f}i  (se {se:.2e})",
               f"product   = {ref.real:+.8f} {ref.imag:+.8f}i",
               f"pull = {pull:.2f} standard error(s)"]
    return _Run(config, inline, summary)


def _read_spacings_input(path: str):
    p = Path(path)
    if not p.is_file():
        raise InvalidSpec(f"input file not found: {path}")
    text = p.read_text()
    first = text.splitlines()[0].strip() if text.strip() else ""
    if first == ",".join(ZERO_TABLE_HEADER):
        zeros = zero_table_from_csv(text)
        # compare_zero_spacings reads only the zeros
        z_max = max((zr.z for zr in zeros), default=0.0)
        return ZeroTable(b=0.0, z_max=z_max, step=0.0, mode="native",
                         zeros=zeros, noise_regions=[], notes=[])
    if first == ",".join(_SPECTRA_HEADER):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        by_sample: dict[int, list[float]] = {}
        for r in rows:
            if r:
                by_sample.setdefault(int(r[0]), []).append(float(r[2]))
        return [SpectralSample(tuple(sorted(v))) for _, v in
                sorted(by_sample.items())]
    raise InvalidSpec("input must be a zeros CSV or a spectra CSV "
                      "(recognized by header)")


def _cmd_spacings(args, qc, pc):
    data = _read_spacings_input(args.input)
    reference = {"gue": "gue_surmise", "poisson": "poisson"}[args.reference]
    if isinstance(data, ZeroTable):
        rep = compare_zero_spacings(data, reference)
        kind = "zero gaps"
    else:
        rep = spacing_stats(data, bulk_fraction=args.bulk_fraction,
                            reference=reference)
        kind = f"eigenvalue spacings ({len(data)} spectra)"
    config = {"input": Path(args.input).name, "reference": reference,
              "bulk_fraction": args.bulk_fraction}
    summary = [f"{kind} vs {reference}: KS distance {rep.ks_distance:.4f} "
               f"({len(rep.spacings)} spacings)"]
    summary += [f"note: {n}" for n in rep.notes]
    return _Run(config, spacing_report_to_json(rep), summary)


def _cmd_xi_zeros(args, qc, pc):
    cfg = XiConfig(qc=qc, pc=pc)
    return _Run({"b": args.b, "z_max": args.zmax},
                lambda: xi_zeros(args.zmax, cfg=cfg, b=args.b))


def _cmd_xi_flow(args, qc, pc):
    bs = _parse_float_list(args.b_grid)
    flow = xi_flow(bs, args.zmax, cfg=XiConfig(pc=pc))
    return _flow_run({"b_grid": bs, "z_max": args.zmax}, "xi-flow", flow)


# ---------- the command table ----------

_SHARED_FLAGS = {
    "--outputdir": {"default": "zlab-out",
                    "help": "directory for envelopes and payload files"},
    "--precision": {"choices": ("native", "dd"), "default": "native"},
    "--abs-tol": {"type": float, "default": QuadratureConfig.abs_tol,
                  "help": "quadrature absolute tolerance"},
    "--rel-tol": {"type": float, "default": QuadratureConfig.rel_tol,
                  "help": "quadrature relative tolerance"},
    "--force": {"action": "store_true",
                "help": "recompute even on a cache hit"},
    "--threads": {"type": int, "default": 1,
                  "help": "checked against the CPU count; gue-char runs "
                          "on one thread"},
}
# adaptive quadrature, and the walk's and probes' stopping test; the zero
# tables scan, bracket and polish on their own trapezoid rule
_QUADRATURE = ("--precision", "--abs-tol", "--rel-tol")


class _Command(NamedTuple):
    handler: Callable[..., _Run]
    flags: tuple[str, ...]  # the shared flags it reads, besides --outputdir
    help: str


_COMMANDS = {
    "p-eval": _Command(_cmd_p_eval, (),
                       "characteristic function p(t) at one point"),
    "pf-eval": _Command(_cmd_pf_eval, _QUADRATURE,
                        "frequency density f on a grid, as CSV"),
    "tp-check": _Command(_cmd_tp_check, _QUADRATURE,
                         "total-positivity minor scan"),
    "rho-mass": _Command(_cmd_rho_mass, _QUADRATURE,
                         "total mass of the induced measure"),
    "z-eval": _Command(_cmd_z_eval, _QUADRATURE,
                       "transform value Z_b(z) at one point"),
    "z-zeros": _Command(_cmd_z_zeros, ("--precision", "--force"),
                        "real zeros of Z_b on [0, zmax] (cached)"),
    "z-verify": _Command(_cmd_z_verify, _QUADRATURE,
                         "reality check: scan count vs winding count"),
    "z-flow": _Command(_cmd_z_flow, ("--precision",),
                       "zero trajectories along a damping grid, as CSV"),
    "gue-sample": _Command(_cmd_gue_sample, (), "sample spectra, as CSV"),
    "gue-char": _Command(_cmd_gue_char, ("--threads",),
                         "empirical vs product characteristic function"),
    "spacings": _Command(_cmd_spacings, (),
                         "spacing statistics for spectra or zero tables"),
    "xi-zeros": _Command(_cmd_xi_zeros, (*_QUADRATURE, "--force"),
                         "zeros of the completed-zeta transform (cached)"),
    "xi-flow": _Command(_cmd_xi_flow, ("--precision",),
                        "completed-zeta zero trajectories, as CSV"),
}


# ---------- argument wiring ----------


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves a parser unchanged
    parser = _Parser(prog="zlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name):
        p = sub.add_parser(name, help=_COMMANDS[name].help)
        for flag in ("--outputdir", *_COMMANDS[name].flags):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = add("p-eval")
    p.add_argument("--params", required=True)
    p.add_argument("--t", required=True, metavar="RE[,IM]")

    p = add("pf-eval")
    p.add_argument("--params", required=True)
    p.add_argument("--a-grid", required=True, metavar="LO:HI:N")

    p = add("tp-check")
    p.add_argument("--params")
    p.add_argument("--density", metavar="CSV",
                   help='tabulated density with header "a,f"')
    p.add_argument("--grid", metavar="LO:HI:N",
                   help="window and grid size (default: suggested window)")
    p.add_argument("--grid-size", type=int, default=12)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("rho-mass")
    p.add_argument("--params", required=True)

    p = add("z-eval")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--z", required=True, metavar="RE[,IM]")

    p = add("z-zeros")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--step", type=float, default=None)

    p = add("z-verify")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--height", type=float, default=0.5,
                   help="rectangle half-height")
    p.add_argument("--x-min", type=float, default=0.0)

    p = add("z-flow")
    p.add_argument("--params", required=True)
    p.add_argument("--b-grid", required=True, metavar="B1,B2,...")
    p.add_argument("--zmax", type=float, required=True)

    p = add("gue-sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("gue-char")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--X", dest="x_file", required=True, metavar="CSV",
                   help='Hermitian matrix with header "c0,c1,..."')
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("spacings")
    p.add_argument("--input", required=True,
                   help="spectra CSV or zeros CSV (header-detected)")
    p.add_argument("--reference", choices=("gue", "poisson"), default="gue")
    p.add_argument("--bulk-fraction", type=float, default=0.5)

    p = add("xi-zeros")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)

    p = add("xi-flow")
    p.add_argument("--b-grid", required=True, metavar="B1,B2,...")
    p.add_argument("--zmax", type=float, required=True)

    return parser


def _shared_config(args) -> tuple[QuadratureConfig, PrecisionConfig, dict]:
    """The quadrature and precision configs, and the config keys, of the
    shared flags the command declares (the namespace holds no others)."""
    keys = {k: getattr(args, k) for k in ("precision", "abs_tol", "rel_tol")
            if k in args}
    qc = QuadratureConfig(**{k: v for k, v in keys.items()
                             if k != "precision"})
    pc = PrecisionConfig("extended") if keys.get("precision") == "dd" \
        else NATIVE
    return qc, pc, keys


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        qc, pc, shared = _shared_config(args)
        outdir = Path(args.outputdir)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        run = _COMMANDS[args.command].handler(args, qc, pc)
        config = {"command": args.command, **run.config, **shared}
        key = _config_hash(config)
        summary, code = list(run.summary), run.code
        if isinstance(run.payload, dict):
            payload = {"kind": "inline", "inline": run.payload}
            payload_bytes = _canonical(run.payload)
        else:
            if callable(run.payload):
                path, text, summary, code = _zero_table_run(
                    run.payload, key, outdir, args.force)
            else:
                prefix, text = run.payload
                path = outdir / f"{prefix}-{key[:12]}.csv"
                path.write_text(text)
            payload = {"kind": "csv",
                       "path": path.relative_to(outdir).as_posix()}
            payload_bytes = text.encode()
            summary.append(f"payload: {path}")
        wall = time.perf_counter() - t0
        env_path = _write_envelope(outdir, args.command, config, payload,
                                   payload_bytes, wall)
        for line in summary:
            print(line)
        print(f"envelope: {env_path}")
        return code
    except (InvalidSpec, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
