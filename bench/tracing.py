"""Span tracing of zlab's public functions, done from the benchmark's side.

The tracer replaces each listed public function, in every zlab module that
binds it, by a wrapper that records a span (name, start, end, parent, op
id, info) while an operation is active.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans, so the self times of all
layers add up to the duration of the root spans (one `cli` span per
operation).  ``uninstall`` puts every original function object back.

The functions listed are the public entry points of each layer.  Kernels
called per element or per minor (``density``, ``log_density``, ``det_dd``,
the DD operators) are not wrapped: a wrapper there would cost more than
the work it measures, and their time lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import time

import numpy as np

_MARK = "__zlab_bench_original__"

# the double-double transcendental entry points
DD_ENTRY = ["exp", "log", "sqrt", "sin", "cos", "sincos", "exp_i", "cexp",
            "powi", "reduce_sum", "dot"]

# (module, function names, span name); a function keeps this span name in
# every other zlab module that binds the same object
LAYERS = [
    ("zlab.cli", ["main"], "cli"),
    ("zlab.ztransform", ["find_real_zeros"], "ztransform.scan"),
    ("zlab.ztransform", ["eval_quadrature"], "ztransform.eval"),
    ("zlab.ztransform", ["walk_winding", "count_zeros_rect"],
     "ztransform.walk"),
    ("zlab.ztransform", ["verify_reality"], "ztransform.verify"),
    ("zlab.ztransform", ["flow_zeros"], "ztransform.flow"),
    ("zlab.ztransform", ["eval_series", "eval_gue_hypergeom", "gue_envelope",
                         "zero_table_to_csv", "zero_table_from_csv",
                         "zero_table_to_json"], "ztransform.other"),
    ("zlab.numerics.quadrature", ["integrate_adaptive", "gauss_nodes",
                                  "gauss_nodes_dd"], "quadrature"),
    ("zlab.numerics.ddouble", DD_ENTRY, "ddouble"),
    ("zlab.numerics.specfun", ["gamma_complex", "gamma_fn",
                               "gamma_quarter_dd", "hyper0f2"], "other"),
    ("zlab.rho", ["support_radius"], "rho.support_radius"),
    ("zlab.rho", ["total_mass", "moments", "gue_spec"], "other"),
    ("zlab.schoenberg", ["validate", "eval_p", "poles", "params_from_dict",
                         "params_to_dict"], "other"),
    ("zlab.xi", ["xi_zeros", "xi_flow", "xi_rect_count", "xi_eval",
                 "xi_eval_err", "F_eval", "F_eval_err", "zeta_eta",
                 "zeta_critical_line", "xi_from_zeta"], "xi"),
    ("zlab.pfreq", ["check_pf_minors", "check_derivative_minors"],
     "pfreq.minors"),
    ("zlab.randmat", ["sample_gue"], "randmat.sample"),
    ("zlab.randmat", ["eigenvalues"], "randmat.eigen"),
    ("zlab.randmat", ["spacing_stats", "unfolded_spacings",
                      "compare_zero_spacings", "ks_distance",
                      "spacing_report_to_json"], "randmat.spacing"),
    ("zlab.randmat", ["empirical_char_fn", "product_char_fn"], "randmat.mc"),
]

# classes whose weights() closures are wrapped as weight.native / weight.dd
WEIGHT_OWNERS = [("zlab.ztransform", "ZSpec"), ("zlab.xi", "_XiSource")]

_REJECTED = re.compile(r"(\d+) candidate\(s\) failed the residual check")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _size(x) -> int:
    for attr in ("hi", "re"):
        if hasattr(x, attr):
            return _size(getattr(x, attr))
    return int(np.size(x))


# info extractors: (args, kwargs, result) -> dict, run after the span closes

def _scan_info(args, kwargs, table):
    h, z_max = table.step, table.z_max
    zs = np.arange(0.0, z_max + h, h)
    rejected = sum(int(m.group(1)) for n in table.notes
                   for m in [_REJECTED.search(n)] if m)
    return {"grid_points": int(np.count_nonzero(zs <= z_max + 1e-12)),
            "zeros": len(table.zeros), "rejected": rejected,
            "noise_regions": len(table.noise_regions)}


def _eval_info(args, kwargs, res):
    return {"escalated": bool(res.escalated)}


def _quad_info(args, kwargs, res):
    pc = _arg(args, kwargs, 4, "pc")
    mode = getattr(pc, "mode", "native")
    # an escalated native run returns its extended rerun's result, whose
    # evaluations the inner span already counted; the native attempt's own
    # evaluations are not reported by the program
    own = not res.escalated
    return {"mode": mode, "escalated": bool(res.escalated),
            "evals": res.evaluations if own else 0,
            "panels": res.panels if own else 0}


def _flow_info(args, kwargs, flow):
    return {"tables": len(flow.tables), "ambiguities": len(flow.ambiguities)}


def _minors_info(args, kwargs, rep):
    return {"checked": rep.minors_checked}


def _eigen_info(args, kwargs, res):
    n = args[0].n if args else kwargs["h"].n
    return {"n3": n ** 3}


def _mc_info(args, kwargs, res):
    return {"samples": int(_arg(args, kwargs, 2, "samples", 0) or 0)}


def _dd_info(args, kwargs, res):
    v = args[-1] if args else next(iter(kwargs.values()))
    return {"elements": _size(v)}


INFO = {
    "find_real_zeros": _scan_info,
    "eval_quadrature": _eval_info,
    "integrate_adaptive": _quad_info,
    "flow_zeros": _flow_info,
    "check_pf_minors": _minors_info,
    "eigenvalues": _eigen_info,
    "empirical_char_fn": _mc_info,
}
INFO.update(dict.fromkeys(DD_ENTRY, _dd_info))


class Tracer:
    """Records spans while ``active``; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []   # [name, fn, start, end, parent, op, info]
        self.stack: list[int] = []
        self.active = False
        self.op_id = None
        self._patched: list[tuple[object, str, object]] = []

    # ----- wrappers -----

    def _span(self, name, fn_name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, fn_name, time.perf_counter(), 0.0,
                   tracer.stack[-1] if tracer.stack else None,
                   tracer.op_id, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[6] = {"raised": True}
                raise
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
            if info is not None:
                rec[6] = info(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _weights_wrapper(self, method):
        tracer = self

        @functools.wraps(method)
        def weights(obj):
            g, g_dd = method(obj)
            return (tracer._span("weight.native", "g", g, _points),
                    tracer._span("weight.dd", "g_dd", g_dd, _points))

        setattr(weights, _MARK, method)
        return weights

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import zlab.cli  # noqa: F401  (loads every zlab module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "zlab" or n.startswith("zlab.")]
        for mod_name, names, span in LAYERS:
            home = sys.modules[mod_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._span(span, fn_name, original,
                                     INFO.get(fn_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for mod_name, cls_name in WEIGHT_OWNERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, "weights", self._weights_wrapper(cls.weights))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ----- analysis -----

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "fn": s[1], "start": s[2],
                                     "end": s[3], "parent": s[4], "op": s[5],
                                     "info": s[6]}) + "\n")


def _points(args, kwargs, result):
    return {"points": _size(args[0]) if args else 0}


def leftover_wrappers() -> list[str]:
    """Names of zlab attributes that still hold a benchmark wrapper."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if not (name == "zlab" or name.startswith("zlab.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{name}.{attr}.{cattr}")
    return found


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans."""
    spans = tracer.spans
    own = tracer.self_times()
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    parent_kind = {"ztransform.scan": "polish", "ztransform.verify": "probe",
                   "ztransform.walk": "walk"}
    for s, self_s in zip(spans, own):
        name, fn, info = s[0], s[1], s[6] or {}
        add(f"{name}.self_s", self_s)
        parent = spans[s[4]] if s[4] is not None else None
        if name == "ztransform.scan":
            add("ztransform.scan.calls", 1)
            for k in ("grid_points", "zeros", "noise_regions", "rejected"):
                add(f"ztransform.scan.{k}", info.get(k, 0))
        elif name == "ztransform.eval":
            add("ztransform.eval.calls", 1)
            add("ztransform.eval.escalated", int(info.get("escalated", 0)))
            kind = parent_kind.get(parent[0] if parent else "", "other")
            add(f"ztransform.eval.{kind}.calls", 1)
            add(f"ztransform.eval.{kind}.self_s", self_s)
            if kind == "walk":
                add("ztransform.walk.points", 1)
            if kind == "probe":
                add("ztransform.verify.probe_evals", 1)
        elif fn == "walk_winding":
            add("ztransform.walk.calls", 1)
        elif fn == "count_zeros_rect" and parent \
                and parent[0] == "ztransform.verify":
            add("ztransform.verify.rect_attempts", 1)
        elif name == "ztransform.verify":
            add("ztransform.verify.calls", 1)
        elif name == "ztransform.flow":
            add("ztransform.flow.tables", info.get("tables", 0))
            add("ztransform.flow.ambiguities", info.get("ambiguities", 0))
        elif fn == "integrate_adaptive":
            add("quadrature.calls", 1)
            mode = info.get("mode", "native")
            add(f"quadrature.{mode}_self_s", self_s)
            add("quadrature.evals", info.get("evals", 0))
            add("quadrature.panels", info.get("panels", 0))
            add("quadrature.escalations",
                int(mode == "native" and info.get("escalated", False)))
            add("quadrature.failures", int(info.get("raised", False)))
        elif name == "ddouble":
            add("ddouble.calls", 1)
            add("ddouble.elements", info.get("elements", 0))
        elif name == "rho.support_radius":
            add("rho.support_radius.calls", 1)
        elif name.startswith("weight."):
            add("weight.points", info.get("points", 0))
        elif fn == "check_pf_minors":
            add("pfreq.minors.checked", info.get("checked", 0))
        elif name == "randmat.eigen":
            add("randmat.eigen.calls", 1)
            add("randmat.eigen.work_n3", info.get("n3", 0))
        elif fn == "empirical_char_fn":
            add("randmat.mc.samples", info.get("samples", 0))
    for i, (s, self_s) in enumerate(zip(spans, own)):
        if s[0] in KERNELS:
            caller = _caller(spans, i)
            if caller in ("ztransform.scan", "quadrature"):
                add(f"{caller}.kernel_s", self_s)
    zeros = m.get("ztransform.scan.zeros", 0)
    tried = zeros + m.pop("ztransform.scan.rejected", 0)
    m["ztransform.scan.accept_ratio"] = zeros / tried if tried else 0.0
    evals = m.get("quadrature.evals", 0)
    m["quadrature.evals_per_zero"] = evals / zeros if zeros else 0.0
    return m


KERNELS = ("ddouble", "weight.native", "weight.dd")


def _caller(spans, i: int) -> str | None:
    """Nearest enclosing layer that is not a kernel (dd entry point or
    weight closure)."""
    p = spans[i][4]
    while p is not None and spans[p][0] in KERNELS:
        p = spans[p][4]
    return spans[p][0] if p is not None else None


def split_by_kind(tracer: Tracer, kinds: list[str],
                  fold: bool = False) -> dict[str, dict]:
    """Self time per layer for each operation kind (kinds[op id]) and for
    all of them; with fold, kernel time counts to the layer calling it."""
    out: dict[str, dict] = {"all": {}}
    spans = tracer.spans
    for i, (s, self_s) in enumerate(zip(spans, tracer.self_times())):
        layer = s[0]
        if fold and layer in KERNELS:
            layer = _caller(spans, i) or layer
        for key in (kinds[s[5]], "all"):
            layers = out.setdefault(key, {})
            layers[layer] = layers.get(layer, 0.0) + self_s
    return out


def self_time_gap(tracer: Tracer, op_walls: list[float]) -> float:
    """|sum of all self times - sum of operation wall times| in seconds."""
    return abs(math.fsum(tracer.self_times()) - math.fsum(op_walls))
