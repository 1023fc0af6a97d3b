"""zlab benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 1

One client in one process drives zlab.cli.main(argv) in a closed loop: each
operation starts when the previous one has returned.  A run is made of
whole rounds of the workload's operation list (see workloads.py) and stops
at the round boundary nearest to --seconds of operation time, after at
least one round.  Every operation's output is checked against an
independent route after its round, outside the timed region.

A shared machine's speed drifts by up to 1.7x, in phases that last from
seconds to minutes, so longer runs do not average it out.  Before each
operation, outside its timer, a run therefore times a fixed calibration
kernel that uses no zlab code (calibrate), and --trace 0 reports times
and rates at the reference speed where that kernel takes CAL_REF_S: each
time is divided by the run's host factor, the median kernel time over
CAL_REF_S (a set-up probe's time by that probe's own factor), and each
rate multiplied by it.  The raw figures, the factor and every latency
are printed on the info: line.

--trace 0 prints the end_to_end metrics of BENCHMARK.json; --trace 1 runs
the first round untraced, again with every public zlab function wrapped
(tracing.py), and untraced once more, and prints the per_layer metrics
with the tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up clock: starts before numpy and zlab load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"
WORKLOADS = ("certify", "tables", "flow", "spectra")
SETUP_PROBES = 5
WALL_CAP_S = 120.0   # stop adding rounds past this, to end well inside 180 s
# the calibration kernel's time on a shared 2-vCPU Xeon host (typical)
CAL_REF_S = 0.02
CAL_PROBE_REPEATS = 9

# a single client: BLAS gets one thread, which is also never more than nproc
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def _fatal(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_zlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import zlab
        import zlab.cli
    except ImportError as exc:
        _fatal(f"cannot import zlab from {src}: {exc}")
    if Path(zlab.__file__).resolve().parent.parent != src.resolve():
        _fatal(f"zlab was imported from {zlab.__file__}, not from {src}")
    # operations call cli.main through the module, so the traced run sees
    # the wrapper the tracer installs there
    return zlab.cli


# ---------- environment record ----------


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit()}


# ---------- host speed ----------

def calibrate() -> float:
    """Time one fixed kernel that uses no zlab code: sorting 20 000 fresh
    Python tuples, then 40 numpy temporaries of 240 kB.  Allocation and
    pointer-chasing slow down with the neighbours' load the way zlab's
    operations do: over 10 s windows on a shared 2-vCPU Xeon, a scan, a
    GUE spectrum, a z-verify and a dd table drifted by 16-25 % (quartile
    spread), their ratio to this kernel by 5-8 %."""
    import random

    import numpy as np

    t0 = time.perf_counter()
    rng = random.Random(0)
    pairs = [(rng.random(), i) for i in range(20_000)]
    pairs.sort()
    acc = math.fsum(x for x, _ in pairs[::7])
    grid = np.linspace(0.0, 1.0, 30_000)
    for i in range(40):
        acc += float(np.exp(grid * i).sum())
    return time.perf_counter() - t0


# ---------- running operations ----------


def run_op(cli, argv, outdir, tracer=None, op_id=None):
    from checks import OpResult

    out, err = io.StringIO(), io.StringIO()
    full = list(argv) + ["--outputdir", str(outdir)]
    error = None
    code = None
    if tracer is not None:
        tracer.op_id, tracer.active = op_id, True
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(full)
    except Exception:
        error = traceback.format_exc()
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return OpResult(full, Path(outdir), code, out.getvalue(), err.getvalue(),
                    latency, error)


def run_round(cli, ops, outdir, tracer=None, first_id=0, cal=None):
    """Run one round; with a list ``cal``, time the calibration kernel
    before each operation and once after the last, appending the times
    there."""
    from checks import payload_path

    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for i, op in enumerate(ops):
        argv = op.argv
        if op.input_from is not None:
            # resolved before the timer starts; a failed producer leaves the
            # placeholder, and this op then fails its own check
            with contextlib.suppress(Exception):
                path = str(payload_path(results[op.input_from]))
                argv = [path if a == "{input}" else a for a in argv]
        if cal is not None:
            cal.append(calibrate())
        results.append(run_op(cli, argv, outdir, tracer, first_id + i))
    if cal is not None:
        cal.append(calibrate())
    return results


def check_round(ops, results):
    from checks import Verdict, cache_repeat

    verdicts = []
    for op, res in zip(ops, results):
        try:
            if op.repeat_of is not None:
                v = cache_repeat(res, results[op.repeat_of], op.check)
            else:
                v = op.check(res)
        except Exception:
            v = Verdict(False, note="check raised "
                        + traceback.format_exc().strip().splitlines()[-1])
        verdicts.append(v)
    return verdicts


# ---------- set-up ----------


def setup(name: str, seed: int, work: Path, cli):
    """Inputs and warm-up: everything before the first timed operation."""
    import workloads

    wl = workloads.Workload(name, seed, work / "inputs")
    workloads.write_inputs(wl.inputs)
    for argv in workloads.WARMUP[name]:
        res = run_op(cli, argv, work / "warmup")
        if res.code != 0:
            _fatal(f"warm-up {argv} failed: {res.error or res.stderr}")
    return wl


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: interpreter start to end of warm-up
    is timed inside each probe, which then times the calibration kernel.
    Returns (set-up time, median kernel time) per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            _fatal(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        setup_s, cal_s = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(setup_s), float(cal_s)))
    return times


def _workdir(args) -> Path:
    return WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"


# ---------- metrics ----------


def tail(latencies):
    """(value, percentile, n): the highest whole percentile with at least
    ten samples above it, by nearest rank; the maximum below 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, n
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return xs[rank - 1], p, n


def end_to_end(results, verdicts, setup_times, factor=1.0) -> dict:
    """End-to-end metrics with every time divided by the host factor
    (set-up times by their probe's own factor)."""
    lat = [r.latency / factor for r in results]
    busy = math.fsum(lat)
    value, _, _ = tail(lat)
    return {
        "setup_s": statistics.median(t * CAL_REF_S / c
                                     for t, c in setup_times),
        "ops_per_s": len(lat) / busy,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "results_per_s": sum(v.results for v in verdicts if v.ok) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _outdir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer(tracer, ops, untraced, traced, verdicts, outdir) -> dict:
    from tracing import layer_metrics

    m = layer_metrics(tracer)
    hits = sum(r.stdout.startswith("cache hit") for r in traced)
    requests = sum(op.table_request for op in ops)
    m["cli.cache_hits"] = hits
    m["cli.cache_hit_ratio"] = hits / requests if requests else 0.0
    m["cli.bytes_written"] = _outdir_bytes(outdir)
    windows = [v for v in verdicts if v.requested]
    asked = math.fsum(v.requested for v in windows)
    m["coverage_frac"] = (math.fsum(v.vouched for v in windows) / asked
                          if asked else 0.0)
    t_u = math.fsum(r.latency for r in untraced) * len(traced) / len(untraced)
    t_t = math.fsum(r.latency for r in traced)
    m["trace.untraced_s"] = t_u
    m["trace.traced_s"] = t_t
    m["trace.overhead_s"] = t_t - t_u
    m["trace.overhead_frac"] = (t_t - t_u) / t_u
    m["trace.spans"] = len(tracer.spans)
    return m


# ---------- one workload ----------


def run_workload(args, spec) -> int:
    cli = _import_zlab()
    import tracing

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    work = _workdir(args)
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = measure_setup(args) if not args.trace else []
        wl = setup(args.workload, args.seed, work, cli)
        results, verdicts, ops_run = [], [], []
        extra = {}
        wall0 = time.perf_counter()
        if not args.trace:
            r, checks_s, cal = 0, 0.0, []
            while True:
                ops = wl.round(r)
                res = run_round(cli, ops, work / f"round{r}", cal=cal)
                results += res
                t0 = time.perf_counter()
                verdicts += check_round(ops, res)
                checks_s += time.perf_counter() - t0
                ops_run += ops
                r += 1
                busy = math.fsum(x.latency for x in results)
                # nearest boundary: one more round would overshoot by more
                # than this run falls short, so the round count holds
                # steady while the machine's speed drifts
                if busy + 0.5 * busy / r >= args.seconds or \
                        time.perf_counter() - wall0 > WALL_CAP_S:
                    break
            factor = statistics.median(cal) / CAL_REF_S
            metrics = end_to_end(results, verdicts, setup_times, factor)
            raw = end_to_end(results, verdicts,
                             [(t, CAL_REF_S) for t, _ in setup_times])
            names = spec["end_to_end"]
            _, p, n = tail([x.latency for x in results])
            extra = {"rounds": r, "op_tail_percentile": p,
                     "op_tail_samples": n, "busy_s": busy,
                     "checks_s": checks_s, "host_factor": factor,
                     "latencies_s": [x.latency for x in results],
                     "calibration_s": cal,
                     "raw": raw, "setup_probes_s": setup_times}
        else:
            # untraced, traced, untraced: the bracket evens out drift in
            # machine speed when the overhead is taken against the mean
            ops = wl.round(0)
            untraced = run_round(cli, ops, work / "untraced")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_round(cli, ops, work / "traced", tracer)
            finally:
                tracer.uninstall()
            after = run_round(cli, ops, work / "untraced-after")
            leftover = tracing.leftover_wrappers()
            gap = tracing.self_time_gap(tracer, [x.latency for x in traced])
            busy = math.fsum(x.latency for x in traced)
            if leftover:
                _fatal(f"wrappers left installed: {leftover}")
            if gap > 0.01 * busy + 0.005:
                _fatal(f"self times miss the traced wall time by {gap:.4f} s")
            results = untraced + traced + after
            verdicts = (check_round(ops, untraced) + check_round(ops, traced)
                        + check_round(ops, after))
            ops_run = ops * 3
            metrics = per_layer(tracer, ops, untraced + after, traced,
                                verdicts[len(ops):2 * len(ops)],
                                work / "traced")
            names = spec["per_layer"]
            WORK.mkdir(exist_ok=True)
            trace_file = WORK / f"trace-{args.workload}-s{args.seed}.jsonl"
            tracer.dump(trace_file)
            extra = {"self_time_gap_s": gap, "spans_file":
                     str(trace_file.relative_to(ROOT))}
            kinds = [op.kind for op in ops]
            for fold in (False, True):
                split = tracing.split_by_kind(tracer, kinds, fold)
                for kind, layers in split.items():
                    total = math.fsum(layers.values())
                    top = sorted(layers.items(), key=lambda kv: -kv[1])[:6]
                    print(f"split{' folded' if fold else ''} {kind} "
                          f"({total:.3f} s): " + ", ".join(
                              f"{layer} {100 * t / total:.1f}%"
                              for layer, t in top))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [(op, res, v) for op, res, v in zip(ops_run, results, verdicts)
              if not v.ok]
    for op, res, v in zip(ops_run, results, verdicts):
        if v.flagged:
            print(f"flagged: {' '.join(op.argv)}: {v.note}")
    for op, res, v in failed:
        print(f"FAILED: {' '.join(op.argv)}: {v.note}")
    by_kind: dict[str, list[float]] = {}
    for op, res in zip(ops_run, results):
        by_kind.setdefault(op.kind, []).append(res.latency)
    for kind, lat in by_kind.items():
        print(f"op {kind}: {len(lat)} x, median {statistics.median(lat):.4f} s"
              f" (min {min(lat):.4f}, max {max(lat):.4f})")
    print("info: " + json.dumps(extra, sort_keys=True))
    out = {}
    for m in names:
        # a layer the workload never enters reports 0
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}"
              f" ({m['better']} is better)")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": out}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="operation time a run measures at least "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fatal(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.setup_probe:
        work = _workdir(args)
        try:
            setup(args.workload, args.seed, work, _import_zlab())
            setup_s = time.perf_counter() - _T0
            cal = statistics.median(calibrate()
                                    for _ in range(CAL_PROBE_REPEATS))
            print(setup_s, cal)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
