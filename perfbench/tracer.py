"""Layer tracing for the mckay benchmark, installed from outside the program.

`Tracer.install` wraps the public functions and methods of every mckay
module (a *layer*) in place, in every module namespace that holds them.
Each wrapped call keeps aggregated counts, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it).  Calls
outside the hot leaf layers also record a span (name, start, end, parent
span, job id), up to `SPAN_CAP` spans per function and pass.  Nothing is
written until `write` is called at the end of the pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import FunctionType

LAYERS = ("groupfile", "cyclo", "linalg", "matgroup", "age", "toric",
          "valuation", "quiver", "cli")

# Hot leaf operations: counts and total time only, never one span per call.
LEAF_LAYERS = ("cyclo", "linalg")
LEAF_KEYS = ("matgroup.MatrixGroup.mul",)
SPAN_CAP = 2000

# Dunder methods traced besides the public ones; __init__ of
# CyclotomicField marks a field build.
DUNDERS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__neg__", "__pow__", "__truediv__", "__eq__")
INIT_CLASSES = ("CyclotomicField",)

# Counters taken from a call's result; a missing attribute counts 0.
RESULT_COUNTERS = {
    "matgroup.close_group": lambda args, g: len(getattr(g, "elements", ())),
    "toric.build_lattice": lambda args, lat: len(getattr(lat, "box_points", ())),
    "matgroup.MatrixGroup.lift_to_exponent_field": lambda args, g: int(g is not args[0]),
}


class _Stat:
    __slots__ = ("calls", "inclusive", "self_time", "spans", "extra")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.spans = 0
        self.extra = 0  # per-function counter, see RESULT_COUNTERS


class Tracer:
    def __init__(self):
        # frames are [key, child time, span id]; the root frame is the job
        self.root = [None, 0.0, None]
        self.stack = [self.root]
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.spans: list[tuple] = []
        self.job = "setup"
        self.cli_self = 0.0

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every layer module of `package` (the imported mckay)."""
        modules = [sys.modules[f"{package.__name__}.{name}"] for name in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(package)]
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped = self._wrap(obj, layer)
                    for ns in namespaces:
                        for alias, value in list(ns.items()):
                            if value is obj:
                                ns[alias] = wrapped
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer):
        for name, obj in list(vars(cls).items()):
            public = not name.startswith("_") or name in DUNDERS or (
                name == "__init__" and cls.__name__ in INIT_CLASSES)
            if public and isinstance(obj, FunctionType):
                setattr(cls, name, self._wrap(obj, layer))

    def _wrap(self, fn, layer):
        key = f"{layer}.{fn.__qualname__}"
        stat = self.stats.setdefault(key, _Stat())
        self.layer_of[key] = layer
        record_spans = layer not in LEAF_LAYERS and key not in LEAF_KEYS
        hook = RESULT_COUNTERS.get(key)
        under = "matgroup.MatrixGroup.mul" if key == "linalg.mat_mul" else None
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = parent[2]
            own_span = record_spans and stat.spans < SPAN_CAP
            if own_span:
                stat.spans += 1
                span_id = len(spans)
                spans.append(None)  # reserved, filled in on exit
            frame = [key, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stat.calls += 1
                stat.inclusive += dt
                stat.self_time += dt - frame[1]
                if own_span:
                    spans[span_id] = (key, t0, t0 + dt, parent[2], tracer.job)
                if under is not None and parent[0] == under:
                    stat.extra += 1
            if hook is not None:
                stat.extra += hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job_id: str):
        self.job = job_id
        self.root[1] = 0.0

    def end_job(self, seconds: float):
        """Account a job's wall time; the part not under any layer call is
        the cli layer's own time (argparse, JSON emit)."""
        self.cli_self += seconds - self.root[1]
        self.job = "setup"

    # -- results -----------------------------------------------------------

    def _stat(self, key) -> _Stat:
        return self.stats.get(key) or _Stat()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of this pass, by name."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, stat in self.stats.items():
            self_s[self.layer_of[key]] += stat.self_time
        self_s["cli"] += self.cli_self
        s = self._stat
        mul = s("matgroup.MatrixGroup.mul")
        out = {
            "cyclo.mul_calls": s("cyclo.CycNum.__mul__").calls,
            "cyclo.inverse_calls": s("cyclo.CycNum.inverse").calls,
            "cyclo.fields_built": s("cyclo.CyclotomicField.__init__").calls,
            "cyclo.field_build_s": s("cyclo.CyclotomicField.__init__").inclusive,
            "linalg.mat_mul_calls": s("linalg.mat_mul").calls,
            "matgroup.closures": s("matgroup.close_group").calls,
            "matgroup.elements": s("matgroup.close_group").extra,
            "matgroup.close_s": s("matgroup.close_group").inclusive,
            "matgroup.mul_calls": mul.calls,
            # 0 when MatrixGroup.mul is never called
            "matgroup.mul_hit_ratio":
                1 - s("linalg.mat_mul").extra / mul.calls if mul.calls else 0.0,
            "matgroup.lifts": s("matgroup.MatrixGroup.lift_to_exponent_field").extra,
            "matgroup.lift_s": s("matgroup.MatrixGroup.lift_to_exponent_field").inclusive,
            "age.eigen_exponents_calls": s("age.eigen_exponents").calls,
            "age.grade_s": s("age.grade").inclusive,
            "toric.build_lattice_s": s("toric.build_lattice").inclusive,
            "toric.condition_i_s": s("toric.condition_i").inclusive,
            "toric.resolve_s": s("toric.resolve").inclusive,
            "toric.box_points": s("toric.build_lattice").extra,
            "valuation.eigen_decompose_s": s("valuation.eigen_decompose").inclusive,
            "valuation.stab_group_s": s("valuation.stab_group").inclusive,
            "valuation.ram_group_s": s("valuation.ram_group").inclusive,
            "quiver.fold_s": s("quiver.fold").inclusive,
            "groupfile.parse_s": s("groupfile.parse_group_text").inclusive,
            "groupfile.parse_calls": s("groupfile.parse_group_text").calls,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write(self, path):
        """Write spans and per-function counts as one JSON document."""
        doc = {
            "spans": [
                {"id": i, "name": sp[0], "start": sp[1], "end": sp[2],
                 "parent": sp[3], "job": sp[4]}
                for i, sp in enumerate(self.spans) if sp is not None
            ],
            "functions": {
                key: {"calls": st.calls, "inclusive_s": st.inclusive,
                      "self_s": st.self_time}
                for key, st in sorted(self.stats.items()) if st.calls
            },
            "metrics": self.metrics(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
