"""Span tracing of boxlab's layers, installed from outside the package.

`Tracer.install()` replaces each public function of boxlab's modules by a
wrapper that records a span (id, parent span, operation id, layer, start,
end, status) and restores the originals on exit. References that other
modules took with `from ... import`, and entries of module-level dicts and
lists (the CLI's measure tables, the acceptance list), are replaced too.

A call into a layer from inside the same layer records no span of its own:
a layer's `calls` count entries into it from elsewhere. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("boxcore", "discord2", "polytope", "qstate", "tribox", "acceptance", "cli")

# Functions with a layer of their own; the rest of a module's public
# functions fall into "<module>.other" ("discord2.measures" for discord2).
NAMED_LAYERS = {
    "qstate": {f: f"qstate.{f}" for f in ("born_box2", "born_box3", "density_matrix",
                                          "settings_catalog", "correlation_data")},
    "boxcore": {"make_box": "boxcore.make_box", "apply_lro": "boxcore.apply_lro",
                "box_from_json": "boxcore.json", "box_to_json": "boxcore.json"},
    "tribox": {"make_box3": "tribox.make_box3", "tri_vertex_matrix": "tribox.tri_vertex_matrix",
               "apply_lro3": "tribox.apply_lro3",
               "three_decomposition3": "tribox.three_decomposition3",
               "box3_from_json": "tribox.json", "box3_to_json": "tribox.json",
               **{f: "tribox.measures" for f in (
                   "expectations3", "sv_value", "sv_values", "sv_functions", "mermin3_value",
                   "mermin3_functions", "svetlichny_discord", "mermin3_discord",
                   "class99_value", "marginal2", "total_correlation3", "correlation_split3",
                   "classical_correlation3", "monogamy_checks3", "ghz_paradox_check")}},
    "polytope": {"lp_vertex_weights": "polytope.lp_vertex_weights",
                 "three_decomposition": "polytope.three_decomposition"},
}
DEFAULT_LAYER = {"discord2": "discord2.measures"}
# Functions the tracer must find besides NAMED_LAYERS: the frame counter's
# target, the CLI entry point and the sixteen acceptance criteria.
REQUIRED = {"polytope": ["_three_decomposition_direct"], "cli": ["main"],
            "acceptance": [f"criterion_{n}" for n in range(1, 17)]}


class TracingError(Exception):
    """A function the tracer must wrap is not in its module."""


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: defaultdict(float))
        self.op_id = -1   # operation being traced, advanced by the caller
        self._stack: list[list] = []   # open spans: [layer, child time, span id, attempts]
        self._undo: list[tuple] = []
        self._ids = itertools.count()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        stack, spans, stats = self._stack, self.spans, self.stats
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span_id = next_id()
            parent = stack[-1][2] if stack else -1
            frame = [layer, 0.0, span_id, 0]
            stack.append(frame)
            status = "ok"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    status = "none"
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                rec = stats[layer]
                rec["calls"] += 1
                rec["self_s"] += duration - frame[1]
                rec["total_s"] += duration
                rec["status:" + status] += 1
                spans.append((span_id, parent, self.op_id, layer, start, end, status))

        return traced

    def _attempt_counter(self, fn):
        """Counts frames tried by polytope.three_decomposition: its first call
        of the direct split is the direct attempt, every later one a frame."""
        stack, stats = self._stack, self.stats

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            frame = stack[-1] if stack and stack[-1][0] == "polytope.three_decomposition" else None
            if frame is not None:
                frame[3] += 1
                if frame[3] > 1:
                    rec = stats["polytope.three_decomposition"]
                    rec["frames_tried"] += 1
                    rec["frames_hit"] += result is not None
            return result

        return counted

    # -- install / remove ----------------------------------------------------

    def _layer_of(self, module: str, name: str) -> str:
        if module == "acceptance" and name.startswith("criterion_"):
            return f"acceptance.{name}"
        if module == "cli":
            return "cli.main" if name == "main" else ""
        return NAMED_LAYERS.get(module, {}).get(name, DEFAULT_LAYER.get(module, f"{module}.other"))

    def install(self) -> None:
        missing = [f"{module}.{name}"
                   for module, names in (*NAMED_LAYERS.items(), *REQUIRED.items())
                   for name in names
                   if not inspect.isfunction(vars(self.modules[module]).get(name))]
        if missing:
            raise TracingError(f"functions to trace not found: {missing}")
        replace = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if short == "polytope" and name == "_three_decomposition_direct":
                    replace[id(obj)] = self._attempt_counter(obj)
                elif not name.startswith("_"):
                    layer = self._layer_of(short, name)
                    if layer:
                        replace[id(obj)] = self._span_wrapper(obj, layer)
        for mod in [self.package, *self.modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(vars(mod), name, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replace:
                            self._set(obj, key, replace[id(value)])
                elif isinstance(obj, list):
                    for i, value in enumerate(obj):
                        if id(value) in replace:
                            self._set(obj, i, replace[id(value)])

    def _set(self, container, key, value) -> None:
        self._undo.append((container, key, container[key]))
        container[key] = value

    def remove(self) -> None:
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        fields = ["id", "parent", "op", "layer", "start", "end", "status"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))
