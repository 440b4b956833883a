"""Per-layer tracing of ``wdcolor`` from outside the package.

:func:`install` replaces each traced public function by a wrapper at every
``wdcolor.*`` module attribute that refers to it, so the calls that
``pipeline`` and ``reductions`` make into ``planarity``, ``verify``,
``exact`` and ``listcolor`` go through the wrappers too.  Each wrapped
call is a span (operation id, span id, parent span, layer, start, end),
kept in memory and written out by :meth:`Tracer.write_spans`.  A layer's
self time is its span time minus the time of its wrapped child spans.

Checks that the benchmark makes inside a span (every lifted coloring is
re-checked) are taken off the tracer's clock, so they show in no span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from typing import Callable

from checks import coloring_problems

#: (layer, module, function) of every traced public function.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("planarity", "wdcolor.planarity", "is_planar"),
    ("reductions.detect", "wdcolor.reductions", "detect_configuration"),
    ("reductions.validate", "wdcolor.reductions", "validate_configuration"),
    ("reductions.apply", "wdcolor.reductions", "apply_reduction"),
    ("reductions.lift", "wdcolor.reductions", "lift_coloring"),
    ("reductions.certify", "wdcolor.reductions", "certify_lemma"),
    ("verify", "wdcolor.verify", "is_weak_dynamic"),
    ("pipeline.classify", "wdcolor.pipeline", "classify"),
    ("pipeline.build_gprime", "wdcolor.pipeline", "build_Gprime"),
    ("pipeline.build_h", "wdcolor.pipeline", "build_H"),
    ("pipeline.four_color", "wdcolor.pipeline", "four_color_H"),
    ("pipeline.assemble", "wdcolor.pipeline", "assemble_and_color"),
    ("pipeline.top", "wdcolor.pipeline", "wd3_color_planar"),
    ("exact.chromatic", "wdcolor.exact", "chromatic_number_exact"),
    ("exact.wd", "wdcolor.exact", "wd_number_exact"),
    ("listcolor", "wdcolor.listcolor", "color_dependency_graph"),
)

#: Short labels of the reduction kinds, in detection order.
STEP_KINDS = ("L1a", "L1b", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9",
              "L10")

_CALLS = ("planarity", "reductions.detect", "reductions.validate",
          "reductions.lift", "verify", "exact.chromatic", "exact.wd",
          "listcolor")
_SELF = ("planarity", "reductions.detect", "reductions.validate",
         "reductions.apply", "reductions.lift", "verify",
         "reductions.certify", "pipeline.classify", "pipeline.build_gprime",
         "pipeline.build_h", "pipeline.four_color", "pipeline.assemble",
         "pipeline.top", "exact.chromatic", "exact.wd", "listcolor")
#: Counters kept by the wrappers, reported per operation.
_COUNTS = (("reductions.steps",)
           + tuple(f"reductions.steps.{k}" for k in STEP_KINDS)
           + ("verify.vertices_checked", "reductions.core_vertices",
              "reductions.certify.colorings", "pipeline.anchor_vertices",
              "pipeline.anchor_edges"))
_TOTALS = ("trace.op_ms", "trace.untraced_op_ms", "trace.overhead_ms",
           "trace.uncovered_ms")

#: Every per-layer metric, in report order, with its unit.
METRICS: tuple[tuple[str, str], ...] = (
    tuple((f"{layer}.calls", "count/op") for layer in _CALLS)
    + tuple((f"{layer}.self_ms", "ms/op") for layer in _SELF)
    + tuple((name, "count/op") for name in _COUNTS)
    + (("pipeline.palette_mean", "colors"),)
    + tuple((name, "ms/op") for name in _TOTALS))


class Tracer:
    """Spans and counters of one traced worker process."""

    def __init__(self) -> None:
        self.layer_ids = {layer: i for i, (layer, _, _) in enumerate(LAYERS)}
        # one span is six int64s: op, span, parent, layer, start, end
        self.spans = array("q")
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.palette_total = 0
        self.palette_runs = 0
        self.lift_problems: list[str] = []
        self.op = 0
        # [span id, layer, start, child ns, index in spans]
        self._stack: list[list] = []
        self._next_span = 0
        self._off_clock = 0
        self._patched: list[tuple[object, str, object]] = []

    def now(self) -> int:
        """Nanoseconds, with the benchmark's own checks taken out."""
        return time.perf_counter_ns() - self._off_clock

    def begin_op(self) -> None:
        self.op += 1
        self._push(-1)

    def end_op(self) -> int:
        """Close the operation's root span; returns its length in ns.

        Spans left open by an operation that was stopped are closed first.
        """
        while self._stack[-1][1] >= 0:
            self._pop()
        return self._pop()

    def _push(self, layer: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._next_span += 1
        self.spans.extend((self.op, self._next_span, parent, layer, 0, 0))
        self._stack.append([self._next_span, layer, self.now(), 0,
                            len(self.spans) - 6])

    def _pop(self) -> int:
        span, layer, start, child, at = self._stack.pop()
        end = self.now()
        took = end - start
        self.spans[at + 4] = start
        self.spans[at + 5] = end
        if layer >= 0:
            name = LAYERS[layer][0]
            self.self_ns[name] += took - child
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += took
        return took

    def _off_clock_check(self, graph, coloring) -> None:
        t0 = time.perf_counter_ns()
        adj = {v: graph.neighbors(v) for v in graph.vertices()}
        problems = coloring_problems(adj, coloring)
        if problems and len(self.lift_problems) < 8:
            self.lift_problems.append(f"lifted coloring: {problems}")
        self._off_clock += time.perf_counter_ns() - t0

    def _observe(self, layer: str, args, kwargs, result) -> None:
        if layer == "reductions.apply":
            kind = result[1].kind.split("-")[0]
            self.counts["reductions.steps"] += 1
            self.counts[f"reductions.steps.{kind}"] += 1
        elif layer == "verify":
            self.counts["verify.vertices_checked"] += args[0].n
        elif layer == "reductions.detect":
            unrestricted = (len(args) < 2 and kwargs.get("kind") is None)
            if result is None and unrestricted:
                self.counts["reductions.core_vertices"] += args[0].n
        elif layer == "reductions.certify":
            self.counts["reductions.certify.colorings"] += \
                result.colorings_checked
        elif layer == "pipeline.build_h":
            self.counts["pipeline.anchor_vertices"] += result.n
            self.counts["pipeline.anchor_edges"] += result.m
        elif layer == "pipeline.top":
            self.palette_total += max(result.values(), default=0)
            self.palette_runs += 1
        elif layer == "reductions.lift":
            self._off_clock_check(args[0], result)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        layer_id = self.layer_ids[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._push(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop()
            self._observe(layer, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a wdcolor module names it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "wdcolor" or name.startswith("wdcolor."))]
        for layer, module, func in LAYERS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self) -> dict:
        """Raw sums over the traced rounds, for :func:`per_layer_metrics`."""
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counts": dict(self.counts),
                "palette_total": self.palette_total,
                "palette_runs": self.palette_runs}

    def write_spans(self, path: str) -> None:
        names = ["op"] + [layer for layer, _, _ in LAYERS]
        with open(path, "w") as out:
            out.write("op,span,parent,layer,start_ns,end_ns\n")
            s = self.spans
            for i in range(0, len(s), 6):
                out.write(f"{s[i]},{s[i + 1]},{s[i + 2]},"
                          f"{names[s[i + 3] + 1]},{s[i + 4]},{s[i + 5]}\n")


def per_layer_metrics(totals: dict, ops: int, op_ns: int,
                      untraced_ops: int, untraced_ns: int) -> dict:
    """Per-operation figures from :meth:`Tracer.totals`."""
    per_op = 1.0 / ops
    values: dict[str, float] = {}
    for layer in _CALLS:
        values[f"{layer}.calls"] = totals["calls"].get(layer, 0) * per_op
    for layer in _SELF:
        values[f"{layer}.self_ms"] = \
            totals["self_ns"].get(layer, 0) * per_op / 1e6
    for name in _COUNTS:
        values[name] = totals["counts"].get(name, 0) * per_op
    runs = totals["palette_runs"]
    values["pipeline.palette_mean"] = (totals["palette_total"] / runs
                                       if runs else 0.0)
    op_ms = op_ns * per_op / 1e6
    untraced_ms = untraced_ns / untraced_ops / 1e6
    values["trace.op_ms"] = op_ms
    values["trace.untraced_op_ms"] = untraced_ms
    values["trace.overhead_ms"] = op_ms - untraced_ms
    values["trace.uncovered_ms"] = op_ms - sum(
        values[f"{layer}.self_ms"] for layer in _SELF)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}
