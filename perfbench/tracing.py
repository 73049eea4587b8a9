"""In-memory span tracing of robinsl's layer boundaries, applied from outside.

robinsl's modules call each other through module-global names (``from .x
import f`` binds ``f`` in the caller's namespace), so a layer function is
traced by replacing every binding of that function object in every loaded
``robinsl`` module with a wrapper, and put back afterwards.  Each call records
one span ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span, or -1.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

#: traced layer functions, as (module, attribute); the span name is "module.attribute"
LAYERS = (
    ("cli", "main"),
    ("verify", "check_bounds"),
    ("verify", "_draw"),
    ("eigensolver", "compile_arrays"),
    ("eigensolver", "lambda1_value"),
    ("eigensolver", "lambda1"),
    ("eigensolver", "_sample_eigenfunction"),
    ("eigensolver", "fd_lambda1"),
    ("_kernels", "lambda1_kernel"),
    ("_kernels", "shoot_kernel"),
    ("extrema", "all_extrema"),
    ("extrema", "inf_minus"),
    ("extrema", "left_half_eigenvalue"),
    ("extrema", "right_half_eigenvalue"),
    ("fmap", "delta_strength"),
    ("serialize", "dumps"),
    ("serialize", "csv_lines"),
)

SHOT = "_kernels.shoot_kernel"
SOLVE = "_kernels.lambda1_kernel"
HALF = ("extrema.left_half_eigenvalue", "extrema.right_half_eigenvalue")
SERIALIZERS = ("serialize.dumps", "serialize.csv_lines")


class Tracer:
    """Context manager that traces LAYERS while active.

    ``spans`` lists (name, start, end, parent) in call order.  ``out_bytes``
    is the UTF-8 size of every string the serializers returned.
    """

    def __init__(self):
        self.spans: list = []
        self.out_bytes = 0
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_bytes = name in SERIALIZERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # the slot keeps call order; filled on return
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if count_bytes:
                self.out_bytes += len(result.encode())
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "robinsl" or k.startswith("robinsl.")]
        for modname, attr in LAYERS:
            fn = getattr(sys.modules[f"robinsl.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))
        return self

    def __exit__(self, *exc):
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()
        return False


def summarize(tracer: Tracer) -> dict:
    """Per-layer self time, calls and inclusive-duration p50, plus shot counts.

    Self time is a span's duration minus the durations of its direct children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    shots = [0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            if name == SHOT:
                shots[parent] += 1
    layers: dict = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        rec = layers.setdefault(name, {"self_s": 0.0, "durations": []})
        rec["self_s"] += (t1 - t0) - child_time[i]
        rec["durations"].append(t1 - t0)
    per_solve = [shots[i] for i, s in enumerate(spans) if s[0] == SOLVE]
    return {
        "layers": {
            name: {
                "self_s": rec["self_s"],
                "calls": len(rec["durations"]),
                "p50_s": statistics.median(rec["durations"]),
            }
            for name, rec in layers.items()
        },
        "shots_per_solve": per_solve,
        "half_eigenvalue_calls": sum(len(layers[h]["durations"]) for h in HALF if h in layers),
    }
