"""Self-test of the benchmark's tracer.

    python3 bench/selftest.py

Runs a few small CLI operations with the tracer installed, then checks:

1. the self times of all layers add up to the operations' wall time, and
   the spans cover the layers the operations go through;
2. after ``uninstall`` no zlab module or class holds a wrapper, and every
   patched name is bound to its original function object again.

Exits 0 when both hold, 1 otherwise.
"""

import math
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OPS = [
    ["z-verify", "--params", '{"coeffs": [1.0]}', "--zmax", "8"],
    ["z-zeros", "--params", '{"coeffs": [1.0]}', "--zmax", "3",
     "--precision", "dd"],
    ["z-flow", "--params", '{"coeffs": [1.0]}', "--b-grid", "0,0.5",
     "--zmax", "4"],
    ["xi-zeros", "--zmax", "15"],
    ["tp-check", "--params", '{"coeffs": [1.0]}', "--order", "2"],
    ["gue-sample", "--n", "20", "--samples", "2", "--seed", "1"],
]
EXPECTED = {"cli", "ztransform.scan", "ztransform.eval", "ztransform.walk",
            "ztransform.verify", "ztransform.flow", "quadrature", "ddouble",
            "rho.support_radius", "weight.native", "weight.dd", "xi",
            "pfreq.minors", "randmat.sample", "randmat.eigen"}


def _bindings():
    """Every (owner, attribute) the tracer patches, with its current value."""
    found = {}
    for mod_name, names, _ in tracing.LAYERS:
        home = sys.modules[mod_name]
        for fn_name in names:
            original = getattr(home, fn_name)
            for name, mod in sys.modules.items():
                if name == "zlab" or name.startswith("zlab."):
                    for attr, value in vars(mod).items():
                        if value is original:
                            found[(name, attr)] = value
    for mod_name, cls_name in tracing.WEIGHT_OWNERS:
        cls = getattr(sys.modules[mod_name], cls_name)
        found[(f"{mod_name}.{cls_name}", "weights")] = vars(cls)["weights"]
    return found


def _current(key):
    owner, attr = key
    if owner in sys.modules:
        return vars(sys.modules[owner])[attr]
    mod_name, cls_name = owner.rsplit(".", 1)
    return vars(getattr(sys.modules[mod_name], cls_name))[attr]


def main() -> int:
    cli = run._import_zlab()
    before = _bindings()
    work = Path(tempfile.mkdtemp(dir=BENCH.parent, prefix=".bench_selftest"))
    tracer = tracing.Tracer()
    try:
        workloads.write_inputs(work / "inputs")
        tracer.install()
        try:
            results = [run.run_op(cli, argv, work / "out", tracer, i)
                       for i, argv in enumerate(OPS)]
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True

    bad = [r.argv for r in results if r.code != 0 or r.error]
    walls = [r.latency for r in results]
    gap = tracing.self_time_gap(tracer, walls)
    seen = {s[0] for s in tracer.spans}
    check1 = (not bad and gap <= 0.01 * math.fsum(walls) + 0.005
              and EXPECTED <= seen)
    print(f"{'PASS' if check1 else 'FAIL'}: self times sum to the traced "
          f"wall time ({math.fsum(tracer.self_times()):.4f} s vs "
          f"{math.fsum(walls):.4f} s, {len(tracer.spans)} spans); "
          f"failed ops {bad}; layers missing {sorted(EXPECTED - seen)}")
    ok &= check1

    leftover = tracing.leftover_wrappers()
    moved = [k for k, v in before.items() if _current(k) is not v]
    check2 = not leftover and not moved
    print(f"{'PASS' if check2 else 'FAIL'}: every zlab function object is "
          f"unwrapped ({len(before)} bindings; still wrapped {leftover}; "
          f"not restored {moved})")
    ok &= check2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
