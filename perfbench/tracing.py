"""Span tracing of pmim's layers, done from outside the package.

Every public function of each layer module (defined in that module, name
without a leading underscore) is found by introspection, not from a list, so
a renamed or new function is traced too. `Patch` swaps each such function for
a wrapper in every layer module's namespace, which covers callers that
imported the function by name and callers that reach it as `module.func`.
Patches are undone on exit.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import time
from array import array

LAYERS = ("geometry", "mask_sampling", "model", "losses", "training", "data_io", "cli")


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"pmim.{layer}") for layer in LAYERS}


class Patch:
    """Context manager replacing each public layer function `fn` by `wrap(fn, layer)`.

    `wrap` may return `fn` itself to leave a function alone. Patches nest: an
    inner Patch wraps the wrappers of an outer one.
    """

    def __init__(self, wrap):
        self.wrap = wrap
        self._undo = []

    def __enter__(self):
        modules = layer_modules()
        replacement = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapped = self.wrap(fn, layer)
                    if wrapped is not fn:
                        replacement[fn] = wrapped
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement[value])
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._undo):
            setattr(module, name, value)
        self._undo.clear()
        return False


def spin(seconds: float):
    """Busy-wait; steadier than sleep for sub-millisecond delays."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def delay_at(target_layer: str, seconds: float):
    """A Patch wrap that adds a fixed delay to each call entering `target_layer`.

    Calls nested inside the layer get no delay, so the added time is
    (calls into the layer) x seconds.
    """
    depth = [0]

    def wrap(fn, layer):
        if layer != target_layer:
            return fn

        @functools.wraps(fn)
        def delayed(*args, **kwargs):
            if depth[0] == 0:
                spin(seconds)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return delayed
    return wrap


class Tracer:
    """Records one span (name, parent, start, end) per traced call, in memory.

    Besides spans it counts, at the boundary of a layer, the provenance tags
    of mask plans returned by `mask_sampling`, and the size of files written
    by `data_io` functions that take a `path` and return nothing.
    """

    def __init__(self, part_tags=()):
        self.part_tags = frozenset(part_tags)
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tag_counts = {"part": 0, "fill": 0, "all": 0}
        self.bytes_written = 0
        self._stack: list[int] = []

    def wrap(self, fn, layer):
        name_id = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        layer_of = self._layer_of
        signature = inspect.signature(fn)
        is_writer = layer == "data_io" and "path" in signature.parameters
        stack, name_of, parent, start, end = (self._stack, self.name_of, self.parent,
                                              self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else -1
            span = len(start)
            name_of.append(name_id)
            parent.append(caller)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if caller < 0 or layer_of(caller) != layer:
                if layer == "mask_sampling":
                    self._count_tags(result)
                elif is_writer and result is None:
                    path = signature.bind(*args, **kwargs).arguments["path"]
                    self.bytes_written += os.path.getsize(path)
            return result
        return traced

    def _layer_of(self, span: int) -> str:
        return self.names[self.name_of[span]].split(".", 1)[0]

    def _count_tags(self, result):
        tags = getattr(result, "provenance", None)
        if not isinstance(tags, list):
            return
        self.tag_counts["all"] += len(tags)
        self.tag_counts["part"] += sum(1 for t in tags if t in self.part_tags)
        self.tag_counts["fill"] += sum(1 for t in tags if t == "fill")

    def summary(self) -> dict:
        return summarize(self.names, self.name_of, self.parent, self.start, self.end)

    def write(self, path: str, header: dict):
        """Gzipped JSON lines: the header, then one [name, parent, start_s, end_s] per span."""
        t_base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                f.write(json.dumps([self.names[self.name_of[i]], self.parent[i],
                                    round(self.start[i] - t_base, 7),
                                    round(self.end[i] - t_base, 7)]) + "\n")


def summarize(names, name_of, parent, start, end) -> dict:
    """Per-function and per-layer call counts and times, in seconds.

    A span's self time is its duration minus the durations of its direct
    children. Summed over a layer, that is each outermost span's time minus
    its child spans in other layers, so calls nested inside one layer are not
    counted twice. A layer's `calls` counts only calls entering it from
    another layer or from outside the package.
    """
    n = len(start)
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += end[i] - start[i]
    layer_of_name = [name.split(".", 1)[0] for name in names]
    functions: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for i in range(n):
        name = names[name_of[i]]
        layer = layer_of_name[name_of[i]]
        duration = end[i] - start[i]
        self_time = duration - child_time[i]
        f = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["total_s"] += duration
        f["self_s"] += self_time
        lay = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        lay["self_s"] += self_time
        if parent[i] < 0 or layer_of_name[name_of[parent[i]]] != layer:
            lay["calls"] += 1
    return {"functions": functions, "layers": layers}
