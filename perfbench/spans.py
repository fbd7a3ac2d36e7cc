"""Outside-in span tracer for the oddeuler layers.

The tracer wraps public functions of the package from outside: each
target named in ``layers.json`` is replaced, in its defining module and in
every ``oddeuler`` module that imported it by name, by a wrapper that
records one span (layer, start, end, parent span) per call.  Spans live in
flat arrays so that the 410,000 prefix-stream advances of one
``verify`` run stay a few megabytes.  Self time is derived from the spans
after the run: a span's duration minus the durations of its direct child
spans.  Inclusive time counts only the outermost span of a layer, so a
layer that calls itself is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array


def rebind(owner, attr: str, replacement) -> None:
    """Set owner.attr, and every oddeuler module's alias of its old value."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("oddeuler"):
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)


def resolve(target: str):
    """'pkg.module:Name.attr' -> (owner object, attribute name, function)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.keys: dict[str, set[str]] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []

    def install(self, layers: list[dict]) -> None:
        """Wrap every target of every layer; see layers.json."""
        for layer in layers:
            lid = len(self.layers)
            self.layers.append(layer["name"])
            self._depth.append(0)
            if layer.get("distinct"):
                self.keys[layer["name"]] = set()
            for target in layer["targets"]:
                owner, attr, fn = resolve(target)
                rebind(owner, attr,
                       self._wrap(lid, fn, self.keys.get(layer["name"])))

    def _wrap(self, lid: int, fn, keys: set | None):
        stack, depth = self._stack, self._depth
        layer, parent, outer = self.span_layer, self.span_parent, self.span_outer
        start, end = self.span_start, self.span_end
        clock = self.clock

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(repr((args, sorted(kwargs.items()))))
            sid = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[lid] == 0)
            end.append(0.0)
            depth[lid] += 1
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                depth[lid] -= 1

        return traced

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds, distinct keys."""
        n = len(self.span_layer)
        covered = [0.0] * n
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += durations[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.layers}
        for i in range(n):
            row = out[self.layers[self.span_layer[i]]]
            row["calls"] += 1
            row["self_s"] += durations[i] - covered[i]
            if self.span_outer[i]:
                row["s"] += durations[i]
        for name, keys in self.keys.items():
            out[name]["keys"] = sorted(keys)
        return out
