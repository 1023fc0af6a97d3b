"""Seeded operation lists for the four workloads.

A workload is a sequence of rounds.  Every round issues the same kinds of
CLI operations in the same order (its anchors plus fresh seeded draws), so
a run made of whole rounds always has the same mix whatever the seed.
The draws of one slot in a round form a randomly shifted lattice
(``lattice``): each seed gives different parameters, but they cover the
parameter box evenly, so the cost of a round, and the order statistics of
its latencies, vary little between seeds.

The program only ever sees the generated argv (and the input files written
here at set-up); the seed stays on the benchmark's side.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

B_LEVELS = (0.0, 0.3, 1.0)  # the damping levels of acceptance criterion 4
GAUSS = '{"omega": 0.5}'
QUARTIC = '{"d": 0.5}'


@dataclass
class Op:
    argv: list[str]
    check: Callable
    kind: str
    repeat_of: int | None = None      # index of the op it repeats verbatim
    table_request: bool = False       # z-zeros / xi-zeros (cache-eligible)
    # index of an earlier op whose payload file replaces "{input}" in argv
    input_from: int | None = None


@dataclass
class Workload:
    name: str
    seed: int
    inputs: Path

    def round(self, r: int) -> list[Op]:
        return BUILDERS[self.name](self, r)

    def draws(self, slot: str, r: int, size: int) -> np.ndarray:
        """The slot's ``size`` draws of round r, rows in [0, 1)^3."""
        key = zlib.crc32(f"{self.name}/{slot}".encode())
        return lattice(np.random.default_rng([self.seed, key, r]), size)


# lattice generators: 1, 2 and 4 are coprime to every odd size, so each
# axis of a lattice of odd size takes every stratum exactly once
GENERATORS = (1, 2, 4)


def lattice(rng: np.random.Generator, size: int) -> np.ndarray:
    """Rank-1 lattice of ``size`` points with a random shift.

    Point i is frac(i * g / size + shift) with g = GENERATORS: for an odd
    size every axis puts one point in each of ``size`` equal strata, so the
    sorted values along an axis move by less than 1/size between seeds.
    The rows come sorted by the first axis, so whatever a builder assigns
    by row index (factor count, damping level) goes with the same stratum
    of the first parameter for every seed.
    """
    g = np.array(GENERATORS, dtype=float)
    i = np.arange(size, dtype=float)[:, None]
    pts = (i * g / size + rng.random(len(g))) % 1.0
    return pts[np.argsort(pts[:, 0], kind="stable")]


def _scales(u: np.ndarray, k: int) -> list[float]:
    # log-uniform scales in [0.5, 2]: an operation costs about 1/scale, so
    # equal shares of the log range give equal shares of the cost range,
    # and operations of one kind stay comparable in length (z-verify takes
    # 0.65 s at scale 2, 1.1 s at 0.7, 2.7 s at 0.2, 8.5 s at 0.05, and ends
    # in NonConvergence after 15.8 s at 0.02 with b = 0)
    return [round(0.5 * 4.0 ** float(x), 6) for x in u[:k]]


def _params(coeffs) -> str:
    return json.dumps({"coeffs": coeffs})


def threads() -> int:
    """Worker threads for gue-char: never more than the CPUs available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


# Latency percentiles are order statistics over a run's mix, so each
# round is built from three groups: a few cheap operations (cache hits,
# spacings, minors checks), a large middle group of one kind whose cost
# varies only with its lattice draws, and a few anchors that cost more
# than any of the middle group.  The cheap ones stay well under half of
# a round and the anchors well under ten, so op_p50_s and op_tail_s (ten
# samples above it) both fall inside the middle group, never on the
# border between two kinds.  A round takes 9-19 s on a shared 2-vCPU
# Xeon, depending on the neighbours' load.

# ---------- certify ----------

# criterion 5's 10-point grids and tolerance
TP_GRID = 10
CERTIFY_DRAWS = 5


def _tp(params: str, order: int) -> Op:
    return Op(["tp-check", "--params", params, "--order", str(order),
               "--grid-size", str(TP_GRID), "--tol", "1e-9"],
              functools.partial(checks.tp_draw, order=order, grid=TP_GRID),
              "tp.draw")


def _certify(w: Workload, r: int) -> list[Op]:
    """Criterion-4 reality checks: the winding walk, adaptive quadrature
    and support_radius carry the draws; the scan carries the Gaussian."""
    ops = [
        Op(["z-verify", "--params", GAUSS, "--zmax", "50", "--height", "5"],
           functools.partial(checks.verify_anchor, zeros=0, z_max=50.0,
                             full_window=False), "verify.gauss"),
        Op(["z-verify", "--params", QUARTIC, "--zmax", "20", "--height", "3"],
           functools.partial(checks.verify_anchor, zeros=9, z_max=20.0,
                             full_window=True), "verify.quartic"),
        Op(["tp-check", "--density", str(w.inputs / "bimodal.csv"),
            "--grid=-3.5:3.5:10", "--order", "2"],
           checks.tp_control, "tp.control"),
    ]
    # draws with 1, 2, 3, 1, 2 exponential factors, each verified at the
    # three damping levels and checked for total positivity at one order
    # (3, 2, 1, 3, 2, shifted by one each round): orders 1 and 2 take a
    # few hundredths of a second, so all three orders on every draw would
    # make the cheap group half of the round; order 3 costs about as much
    # as one z-verify and joins the middle group
    for i, u in enumerate(w.draws("draw", r, CERTIFY_DRAWS)):
        coeffs = _scales(u, 1 + i % 3)
        for b in B_LEVELS:
            ops.append(Op(["z-verify", "--params", _params(coeffs),
                           "--b", str(b), "--zmax", "20", "--height", "3"],
                          functools.partial(checks.verify_draw, coeffs=coeffs,
                                            b=b, z_max=20.0), "verify.draw"))
        ops.append(_tp(_params(coeffs), 3 - (i + r) % 3))
    return ops


# ---------- tables ----------

TABLE_DRAWS = 9


def _tables(w: Workload, r: int) -> list[Op]:
    """Zero tables: scan grid, dd kernels, bisection and polish; no walk.
    Three requests repeat an earlier argv and hit the CLI cache."""
    ops = [
        Op(["z-zeros", "--params", QUARTIC, "--zmax", "15",
            "--precision", "dd"],
           functools.partial(checks.zeros_quartic, z_max=15.0),
           "zeros.quartic.dd", table_request=True),
        Op(["z-zeros", "--params", GAUSS, "--zmax", "50"],
           functools.partial(checks.zeros_gauss, z_max=50.0),
           "zeros.gauss", table_request=True),
        Op(["z-zeros", "--params", QUARTIC, "--zmax", "50"],
           functools.partial(checks.zeros_quartic, z_max=50.0),
           "zeros.quartic", table_request=True),
    ]
    # single-factor tables in dd at b = 0.3 or 1 (at b = 0 their cost grows
    # like 1/scale^2: 5 s at scale 0.31); the zero lies below 4.9
    for j, u in enumerate(w.draws("dd", r, TABLE_DRAWS)):
        c = _scales(u, 1)[0]
        b = B_LEVELS[1 + j % 2]
        ops.append(Op(["z-zeros", "--params", _params([c]), "--b", str(b),
                       "--zmax", "5", "--precision", "dd"],
                      functools.partial(checks.zeros_single, c=c, b=b,
                                        z_max=5.0),
                      "zeros.single.dd", table_request=True))
    for i in (3, 1, 0):
        ops.append(Op(list(ops[i].argv), ops[i].check, "zeros.repeat",
                      repeat_of=i, table_request=True))
    return ops


# ---------- flow ----------

QUARTIC_B = "0,0.05,0.1,0.15,0.2"
SINGLE_B = "0,0.125,0.25,0.375,0.5"
XI_B = "0,0.01,0.02,0.03"
FLOW_DRAWS = 13


def _grid(text: str) -> list[float]:
    return [float(b) for b in text.split(",")]


def _flow(w: Workload, r: int) -> list[Op]:
    """Zero flow: a full rescan per b, native polish escalating to dd, and
    the theta-series weight of the completed zeta."""
    ops = [
        Op(["z-flow", "--params", QUARTIC, "--b-grid", QUARTIC_B,
            "--zmax", "20"],
           functools.partial(checks.flow_quartic, b_grid=_grid(QUARTIC_B),
                             z_max=20.0), "flow.quartic"),
        Op(["xi-zeros", "--zmax", "50"],
           functools.partial(checks.xi_zeros, z_max=50.0), "xi.zeros",
           table_request=True),
        Op(["xi-flow", "--b-grid", XI_B, "--zmax", "30"],
           functools.partial(checks.xi_flow, b_grid=_grid(XI_B), z_max=30.0),
           "xi.flow"),
    ]
    for u in w.draws("single", r, FLOW_DRAWS):
        c = _scales(u, 1)[0]
        ops.append(Op(["z-flow", "--params", _params([c]), "--b-grid",
                       SINGLE_B, "--zmax", "10"],
                      functools.partial(checks.flow_single, c=c,
                                        b_grid=_grid(SINGLE_B), z_max=10.0),
                      "flow.single"))
    return ops


# ---------- spectra ----------

N_SPECTRUM = 200
SPACINGS_SAMPLES = 30   # about 3000 bulk spacings: KS noise well under 0.05
SMALL_SAMPLES = 3       # about half as long as one gue-char run
SMALL_COUNT = 17
CHAR_SAMPLES = 2_000_000


def _sample(w: Workload, r: int, j: int, samples: int) -> Op:
    seed = (w.seed * 1000 + 20 * r + j) % (2 ** 31)
    return Op(["gue-sample", "--n", str(N_SPECTRUM), "--samples",
               str(samples), "--seed", str(seed)],
              functools.partial(checks.gue_sample, n=N_SPECTRUM,
                                samples=samples, seed=seed), "gue.sample")


def _spectra(w: Workload, r: int) -> list[Op]:
    """GUE sampling, the eigensolver and spacing statistics; no transform
    quadrature at all, so z-side changes predict no change here."""
    ops = [_sample(w, r, 0, SPACINGS_SAMPLES)]
    for ref in ("gue", "poisson"):
        ops.append(Op(["spacings", "--input", "{input}", "--reference", ref],
                      functools.partial(checks.spacings, reference=ref),
                      f"spacings.{ref}", input_from=0))
    seed = (w.seed * 1000 + r) % (2 ** 31)
    for name, exact in (("unit.csv", math.exp(-0.5)),
                        ("diag.csv", math.exp(-1.0))):
        ops.append(Op(["gue-char", "--n", "2", "--X", str(w.inputs / name),
                       "--samples", str(CHAR_SAMPLES), "--seed", str(seed),
                       "--threads", str(threads())],
                      functools.partial(checks.gue_char, exact=exact),
                      "gue.char"))
    ops += [_sample(w, r, j, SMALL_SAMPLES)
            for j in range(1, SMALL_COUNT + 1)]
    return ops


BUILDERS = {"certify": _certify, "tables": _tables, "flow": _flow,
            "spectra": _spectra}


def write_inputs(inputs: Path) -> None:
    """Input files the CLI reads: the criterion-5 bimodal control density
    and the criterion-6 test matrices."""
    inputs.mkdir(parents=True, exist_ok=True)
    grid = np.arange(-4.0, 4.01, 0.1)
    bumps = np.exp(-4 * (grid + 2) ** 2) + np.exp(-4 * (grid - 2) ** 2)
    with open(inputs / "bimodal.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["a", "f"])
        out.writerows([repr(float(a)), repr(float(f))]
                      for a, f in zip(grid, bumps))
    for name, rows in (("unit.csv", [[1, 0], [0, 0]]),
                       ("diag.csv", [[1, 0], [0, 1]])):
        with open(inputs / name, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["c0", "c1"])
            out.writerows([str(complex(x)) for x in row] for row in rows)


# small operations that fill lazy caches (Gauss nodes, dd nodes) before
# the first timed round
WARMUP = {
    "certify": [["z-verify", "--params", '{"coeffs": [1.0]}', "--zmax", "4",
                 "--height", "1"],
                ["tp-check", "--params", '{"coeffs": [1.0]}', "--order", "3",
                 "--grid-size", "4"]],
    "tables": [["z-zeros", "--params", '{"coeffs": [1.0]}', "--zmax", "3",
                "--precision", "dd"],
               ["z-zeros", "--params", '{"coeffs": [1.0]}', "--zmax", "3"]],
    "flow": [["z-flow", "--params", '{"coeffs": [1.0]}', "--b-grid", "0,0.5",
              "--zmax", "3"],
             ["xi-zeros", "--zmax", "15"]],
    "spectra": [["gue-sample", "--n", "20", "--samples", "2", "--seed", "1"]],
}
