"""Command-line surface: one subcommand per library operation.

Every run writes a result envelope (JSON) into the output directory: the
command, its full scientific configuration, the package version, wall
time, the payload location, and a content hash over configuration plus
payload.  Deterministic commands reproduce the hash bit for bit under the
same version, so envelopes double as replay certificates.  stdout carries
a human summary only; machine-readable output lives in files.

The hash deliberately covers only inputs that can change results: output
location, thread count, and --force are excluded (thread count must not
alter any result, per the module concurrency contracts).

Exit codes: 0 success, 1 argument or specification errors, 2 numerical
failures, 3 a total-positivity violation found by tp-check, 4 a reality
verification FAIL from z-verify or a scan/winding MISMATCH in an xi-zeros
table (fresh or cached).

Zero tables (z-zeros, xi-zeros) are cached under <outputdir>/cache keyed
by the configuration hash; a hit skips recomputation unless --force.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, InvalidSpec, ZlabError
from .numerics.quadrature import NATIVE, PrecisionConfig, QuadratureConfig
from .pfreq import SchoenbergDensity, TabulatedDensity, check_pf_minors
from .randmat import (
    HermitianMatrix,
    SpectralSample,
    compare_zero_spacings,
    eigenvalues,
    empirical_char_fn,
    product_char_fn,
    sample_gue,
    spacing_report_to_json,
    spacing_stats,
)
from .rho import RhoSpec, total_mass
from .schoenberg import eval_p, params_from_dict, params_to_dict, validate
from .xi import XiConfig, xi_flow, xi_zeros
from .ztransform import (
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
_ZEROS_HEADER = ["b", "k", "z_k", "residual", "derivative"]
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
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InvalidSpec(f"expected RE or RE,IM, got {text!r}")


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
        raw = text
    else:
        path = Path(text)
        if not path.is_file():
            raise InvalidSpec(f"params file not found: {text}")
        raw = path.read_text()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"params JSON does not parse: {exc}")
    return params_from_dict(obj)


def _validated_spec(params) -> RhoSpec:
    rep = validate(params)
    if not (rep.rho_finite and rep.rho_nonnegative):
        raise InvalidSpec("; ".join(rep.messages) or
                          "parameters give no admissible density")
    return RhoSpec(params)


def _precision(args) -> PrecisionConfig:
    return PrecisionConfig("extended") if args.precision == "dd" else NATIVE


def _quadrature(args) -> QuadratureConfig:
    kw = {}
    if args.abs_tol is not None:
        kw["abs_tol"] = args.abs_tol
    if args.rel_tol is not None:
        kw["rel_tol"] = args.rel_tol
    return QuadratureConfig(**kw)


# ---------- envelope plumbing ----------


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _content_hash(config: dict, payload_bytes: bytes) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256()
    h.update(blob.encode())
    h.update(b"\x00")
    h.update(payload_bytes)
    return h.hexdigest()


def _write_envelope(outdir: Path, command: str, config: dict, payload: dict,
                    payload_bytes: bytes, wall: float) -> tuple[Path, str]:
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
    return path, content


def _inline_payload_bytes(inline: dict) -> bytes:
    return json.dumps(inline, sort_keys=True, separators=(",", ":")).encode()


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


# ---------- command handlers ----------
# Each returns (config, payload_descriptor, payload_bytes, summary_lines,
# exit_code); payload_descriptor lands in the envelope verbatim.


def _cmd_p_eval(args, qc, pc, outdir):
    params = _load_params(args.params)
    t = _parse_complex(args.t)
    value = eval_p(params, t)
    config = {"command": "p-eval", "params": params_to_dict(params),
              "t": [t.real, t.imag], "precision": args.precision}
    inline = {"t": [t.real, t.imag], "p": [value.real, value.imag],
              "abs_p": abs(value)}
    summary = [f"p({t:g}) = {value.real:+.12e} {value.imag:+.12e}i"
               f"   |p| = {abs(value):.12e}"]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0


def _cmd_pf_eval(args, qc, pc, outdir):
    params = _load_params(args.params)
    lo, hi, n = _parse_grid(args.a_grid)
    grid = np.linspace(lo, hi, n)
    dens = SchoenbergDensity(params)
    vals = dens.eval(grid, qc=qc, pc=pc)
    config = {"command": "pf-eval", "params": params_to_dict(params),
              "a_grid": [lo, hi, n], "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    text = _csv_text(["a", "f"], ((repr(float(a)), repr(float(v)))
                                  for a, v in zip(grid, vals)))
    name = f"pf-{_config_hash(config)[:12]}.csv"
    (outdir / name).write_text(text)
    summary = [f"f on [{lo:g}, {hi:g}] at {n} points: "
               f"min {vals.min():.6e}, max {vals.max():.6e}",
               f"values: {outdir / name}"]
    return config, {"kind": "csv", "path": name}, text.encode(), summary, 0


def _read_density_csv(path: str) -> TabulatedDensity:
    p = Path(path)
    if not p.is_file():
        raise InvalidSpec(f"density file not found: {path}")
    rows = list(csv.reader(io.StringIO(p.read_text())))
    if not rows or rows[0] != ["a", "f"]:
        raise InvalidSpec('density CSV must carry the header "a,f"')
    data = [(float(r[0]), float(r[1])) for r in rows[1:] if r]
    return TabulatedDensity([a for a, _ in data], [f for _, f in data])


def _cmd_tp_check(args, qc, pc, outdir):
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
                          grid_size=grid_size, tol=args.tol,
                          seed=args.seed, qc=qc, pc=pc)
    config = {"command": "tp-check", **source_desc, "order": args.order,
              "grid": list(window) if window else None,
              "grid_size": grid_size, "tol": args.tol, "seed": args.seed,
              "precision": args.precision}
    inline = {
        "order": rep.order, "passed": rep.passed,
        "min_minor": rep.min_minor,
        "min_minor_normalized": rep.min_minor_normalized,
        "argmin_x": list(rep.argmin_x), "argmin_y": list(rep.argmin_y),
        "minors_checked": rep.minors_checked, "tol": rep.tol,
        "exhaustive": rep.exhaustive, "violations": rep.violations,
    }
    verdict = "no violation" if rep.passed else "VIOLATION"
    summary = [f"order-{rep.order} minors: {verdict} "
               f"({rep.minors_checked} checked, "
               f"min normalized minor {rep.min_minor_normalized:.3e})"]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0 if rep.passed else 3


def _cmd_rho_mass(args, qc, pc, outdir):
    spec = _validated_spec(_load_params(args.params))
    res = total_mass(spec, qc=qc, pc=pc)
    config = {"command": "rho-mass",
              "params": params_to_dict(spec.params),
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    inline = {"mass": res.value.real, "error": res.error,
              "mode": res.mode, "escalated": res.escalated}
    summary = [f"mass = {res.value.real:.15g} +/- {res.error:.2e} "
               f"({res.mode}{', escalated' if res.escalated else ''})"]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0


def _cmd_z_eval(args, qc, pc, outdir):
    spec = _validated_spec(_load_params(args.params))
    z = _parse_complex(args.z)
    res = eval_quadrature(ZSpec(spec, args.b), z, qc=qc, pc=pc)
    cancel = res.error / abs(res.value) if res.value != 0 else math.inf
    config = {"command": "z-eval", "params": params_to_dict(spec.params),
              "b": args.b, "z": [z.real, z.imag],
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    inline = {"z": [z.real, z.imag],
              "value": [res.value.real, res.value.imag],
              "error": res.error, "mode": res.mode,
              "escalated": res.escalated, "error_over_value": cancel}
    summary = [f"Z_b({z:g}) = {res.value.real:+.15e} {res.value.imag:+.3e}i",
               f"error bound {res.error:.2e} "
               f"(error/|value| = {cancel:.2e}, mode {res.mode}"
               f"{', escalated' if res.escalated else ''})"]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0


def _zero_table_run(config: dict, compute, args, outdir: Path) -> tuple:
    """Shared cache-aware driver for z-zeros and xi-zeros."""
    key = _config_hash(config)
    cache_dir = outdir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cache_dir / f"{key}.csv"
    json_path = cache_dir / f"{key}.json"
    cached = csv_path.is_file() and json_path.is_file() and not args.force
    if cached:
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
    summary.append(f"table: {csv_path}")
    payload = {"kind": "csv", "path": f"cache/{csv_path.name}"}
    # xi-zeros records its scan vs winding verdict in the notes; read it
    # from the doc so a cache hit fails exactly as the fresh run did
    mismatch = any("(MISMATCH)" in note for note in doc["notes"])
    return config, payload, text.encode(), summary, 4 if mismatch else 0


def _cmd_z_zeros(args, qc, pc, outdir):
    spec = _validated_spec(_load_params(args.params))
    config = {"command": "z-zeros", "params": params_to_dict(spec.params),
              "b": args.b, "z_max": args.zmax, "step": args.step,
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}

    def compute():
        return find_real_zeros(ZSpec(spec, args.b), args.zmax, qc=qc, pc=pc,
                               step=args.step)

    return _zero_table_run(config, compute, args, outdir)


def _cmd_z_verify(args, qc, pc, outdir):
    spec = _validated_spec(_load_params(args.params))
    rep = verify_reality(ZSpec(spec, args.b), args.zmax, delta=args.height,
                         x_min=args.x_min, qc=qc, pc=pc)
    config = {"command": "z-verify", "params": params_to_dict(spec.params),
              "b": args.b, "z_max": args.zmax, "height": args.height,
              "x_min": args.x_min, "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    inline = {"passed": rep.passed, "window": list(rep.window),
              "n_real": rep.n_real, "n_rect": rep.n_rect,
              "delta": rep.delta, "tail_note": rep.tail_note}
    verdict = "PASS" if rep.passed else "FAIL"
    summary = [f"{verdict}: {rep.n_real} real zero(s) vs winding count "
               f"{rep.n_rect} on [{rep.window[0]:g}, {rep.window[1]:.8g}] "
               f"x [-{rep.delta:g}, {rep.delta:g}]"]
    if rep.tail_note:
        summary.append(f"note: {rep.tail_note}")
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0 if rep.passed else 4


def _flow_csv(flow) -> str:
    rows = []
    for t_id, traj in enumerate(flow.trajectories):
        for b, z in traj:
            rows.append((t_id, repr(float(b)), repr(float(z))))
    return _csv_text(["traj", "b", "z"], rows)


def _flow_summary(flow) -> list[str]:
    lines = [f"{len(flow.trajectories)} trajectory(ies) over "
             f"b = {flow.b_values}"]
    lines += [f"ambiguity: {a}" for a in flow.ambiguities]
    lines.append("zero count per b: "
                 f"{[len(t.zeros) for t in flow.tables]}")
    return lines


def _cmd_z_flow(args, qc, pc, outdir):
    spec = _validated_spec(_load_params(args.params))
    bs = _parse_float_list(args.b_grid)
    flow = flow_zeros(ZSpec(spec, 0.0), bs, args.zmax, qc=qc, pc=pc)
    config = {"command": "z-flow", "params": params_to_dict(spec.params),
              "b_grid": bs, "z_max": args.zmax,
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    text = _flow_csv(flow)
    name = f"z-flow-{_config_hash(config)[:12]}.csv"
    (outdir / name).write_text(text)
    summary = _flow_summary(flow) + [f"trajectories: {outdir / name}"]
    return config, {"kind": "csv", "path": name}, text.encode(), summary, 0


def _cmd_gue_sample(args, qc, pc, outdir):
    if args.n < 1 or args.samples < 1:
        raise InvalidSpec("--n and --samples must be positive")
    config = {"command": "gue-sample", "n": args.n,
              "samples": args.samples, "seed": args.seed}
    rows = []
    for idx in range(args.samples):
        sample = eigenvalues(sample_gue(args.n, args.seed, index=idx))
        rows.extend((idx, k, repr(lam))
                    for k, lam in enumerate(sample.eigenvalues))
    text = _csv_text(_SPECTRA_HEADER, rows)
    name = f"spectra-{_config_hash(config)[:12]}.csv"
    (outdir / name).write_text(text)
    summary = [f"{args.samples} spectra of size {args.n} (seed {args.seed})",
               f"spectra: {outdir / name}"]
    return config, {"kind": "csv", "path": name}, text.encode(), summary, 0


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


def _cmd_gue_char(args, qc, pc, outdir):
    x = _read_matrix_csv(args.x_file)
    if x.n != args.n:
        raise InvalidSpec(f"--n {args.n} does not match the {x.n} x {x.n} "
                          "matrix file")
    emp, se = empirical_char_fn(args.n, x, args.samples, args.seed,
                                threads=args.threads)
    ref = product_char_fn(x)
    pull = abs(emp - ref) / se if se > 0.0 else 0.0
    config = {"command": "gue-char", "n": args.n, "samples": args.samples,
              "seed": args.seed, "matrix": Path(args.x_file).name}
    inline = {"empirical": [emp.real, emp.imag], "se": se,
              "product_reference": [ref.real, ref.imag], "pull": pull}
    summary = [f"empirical = {emp.real:+.8f} {emp.imag:+.8f}i  (se {se:.2e})",
               f"product   = {ref.real:+.8f} {ref.imag:+.8f}i",
               f"pull = {pull:.2f} standard error(s)"]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0


def _read_spacings_input(path: str):
    p = Path(path)
    if not p.is_file():
        raise InvalidSpec(f"input file not found: {path}")
    text = p.read_text()
    first = text.splitlines()[0].strip() if text.strip() else ""
    if first == ",".join(_ZEROS_HEADER):
        zeros = zero_table_from_csv(text)
        rows = list(csv.reader(io.StringIO(text)))
        b = float(rows[1][0]) if len(rows) > 1 and rows[1] else 0.0
        z_max = max((zr.z for zr in zeros), default=0.0)
        return ZeroTable(b=b, z_max=z_max, step=0.0, mode="native",
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


def _cmd_spacings(args, qc, pc, outdir):
    data = _read_spacings_input(args.input)
    reference = {"gue": "gue_surmise", "poisson": "poisson"}[args.reference]
    if isinstance(data, ZeroTable):
        rep = compare_zero_spacings(data, reference)
        kind = "zero gaps"
    else:
        rep = spacing_stats(data, bulk_fraction=args.bulk_fraction,
                            reference=reference)
        kind = f"eigenvalue spacings ({len(data)} spectra)"
    config = {"command": "spacings", "input": Path(args.input).name,
              "reference": reference, "bulk_fraction": args.bulk_fraction}
    inline = spacing_report_to_json(rep)
    summary = [f"{kind} vs {reference}: KS distance {rep.ks_distance:.4f} "
               f"({len(rep.spacings)} spacings)"]
    summary += [f"note: {n}" for n in rep.notes]
    return config, {"kind": "inline", "inline": inline}, \
        _inline_payload_bytes(inline), summary, 0


def _cmd_xi_zeros(args, qc, pc, outdir):
    cfg = XiConfig(qc=qc, pc=pc)
    config = {"command": "xi-zeros", "b": args.b, "z_max": args.zmax,
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}

    def compute():
        return xi_zeros(args.zmax, cfg=cfg, b=args.b)

    return _zero_table_run(config, compute, args, outdir)


def _cmd_xi_flow(args, qc, pc, outdir):
    cfg = XiConfig(qc=qc, pc=pc)
    bs = _parse_float_list(args.b_grid)
    flow = xi_flow(bs, args.zmax, cfg=cfg)
    config = {"command": "xi-flow", "b_grid": bs, "z_max": args.zmax,
              "precision": args.precision,
              "abs_tol": qc.abs_tol, "rel_tol": qc.rel_tol}
    text = _flow_csv(flow)
    name = f"xi-flow-{_config_hash(config)[:12]}.csv"
    (outdir / name).write_text(text)
    summary = _flow_summary(flow) + [f"trajectories: {outdir / name}"]
    return config, {"kind": "csv", "path": name}, text.encode(), summary, 0


_HANDLERS = {
    "p-eval": _cmd_p_eval,
    "pf-eval": _cmd_pf_eval,
    "tp-check": _cmd_tp_check,
    "rho-mass": _cmd_rho_mass,
    "z-eval": _cmd_z_eval,
    "z-zeros": _cmd_z_zeros,
    "z-verify": _cmd_z_verify,
    "z-flow": _cmd_z_flow,
    "gue-sample": _cmd_gue_sample,
    "gue-char": _cmd_gue_char,
    "spacings": _cmd_spacings,
    "xi-zeros": _cmd_xi_zeros,
    "xi-flow": _cmd_xi_flow,
}


# ---------- argument wiring ----------


def _build_parser() -> _Parser:
    parser = _Parser(prog="zlab", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outputdir", default="zlab-out",
                        help="directory for envelopes and payload files")
    common.add_argument("--precision", choices=("native", "dd"),
                        default="native")
    common.add_argument("--abs-tol", type=float, default=None,
                        help="quadrature absolute tolerance override")
    common.add_argument("--rel-tol", type=float, default=None,
                        help="quadrature relative tolerance override")
    common.add_argument("--force", action="store_true",
                        help="recompute even on a cache hit")
    common.add_argument("--threads", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        return sub.add_parser(name, parents=[common], help=help_text,
                              **kwargs)

    p = add("p-eval", "characteristic function p(t) at one point")
    p.add_argument("--params", required=True)
    p.add_argument("--t", required=True, metavar="RE[,IM]")

    p = add("pf-eval", "frequency density f on a grid, as CSV")
    p.add_argument("--params", required=True)
    p.add_argument("--a-grid", required=True, metavar="LO:HI:N")

    p = add("tp-check", "total-positivity minor scan")
    p.add_argument("--params")
    p.add_argument("--density", metavar="CSV",
                   help='tabulated density with header "a,f"')
    p.add_argument("--grid", metavar="LO:HI:N",
                   help="window and grid size (default: suggested window)")
    p.add_argument("--grid-size", type=int, default=12)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0,
                   help="subsample seed when the scan is not exhaustive")

    p = add("rho-mass", "total mass of the induced measure")
    p.add_argument("--params", required=True)

    p = add("z-eval", "transform value Z_b(z) at one point")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--z", required=True, metavar="RE[,IM]")

    p = add("z-zeros", "real zeros of Z_b on [0, zmax] (cached)")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--step", type=float, default=None)

    p = add("z-verify", "reality check: scan count vs winding count")
    p.add_argument("--params", required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--height", type=float, default=0.5,
                   help="rectangle half-height")
    p.add_argument("--x-min", type=float, default=0.0)

    p = add("z-flow", "zero trajectories along a damping grid, as CSV")
    p.add_argument("--params", required=True)
    p.add_argument("--b-grid", required=True, metavar="B1,B2,...")
    p.add_argument("--zmax", type=float, required=True)

    p = add("gue-sample", "sample spectra, as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("gue-char", "empirical vs product characteristic function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--X", dest="x_file", required=True, metavar="CSV",
                   help='Hermitian matrix with header "c0,c1,..."')
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("spacings", "spacing statistics for spectra or zero tables")
    p.add_argument("--input", required=True,
                   help="spectra CSV or zeros CSV (header-detected)")
    p.add_argument("--reference", choices=("gue", "poisson"), default="gue")
    p.add_argument("--bulk-fraction", type=float, default=0.5)

    p = add("xi-zeros", "zeros of the completed-zeta transform (cached)")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--zmax", type=float, required=True)

    p = add("xi-flow", "completed-zeta zero trajectories, as CSV")
    p.add_argument("--b-grid", required=True, metavar="B1,B2,...")
    p.add_argument("--zmax", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        qc = _quadrature(args)
        pc = _precision(args)
        outdir = Path(args.outputdir)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        config, payload, payload_bytes, summary, code = \
            _HANDLERS[args.command](args, qc, pc, outdir)
        wall = time.perf_counter() - t0
        env_path, _ = _write_envelope(outdir, args.command, config, payload,
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
