"""The benchmark's tracer against the package it wraps.

bench/tracing.py fetches every function it wraps by name, so a rename or
deletion in zlab that its lists still carry makes every traced run fail.
These tests catch that before a benchmark run does.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_zlab():
    tracing = _tracing()
    dd = importlib.import_module("zlab.numerics.ddouble")
    missing = [f"zlab.numerics.ddouble.{name}" for name in tracing.DD_ENTRY
               if not callable(getattr(dd, name, None))]
    for mod_name, names, _ in tracing.LAYERS:
        module = importlib.import_module(mod_name)
        missing += [f"{mod_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    for mod_name, cls_name in tracing.WEIGHT_OWNERS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if not callable(getattr(cls, "weights", None)):
            missing.append(f"{mod_name}.{cls_name}.weights")
    assert missing == []


def test_bench_selftest_passes():
    # the tracer's own check: layer self times add up to the traced wall
    # time, and uninstall leaves no wrapper behind
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("PASS:") == 2
