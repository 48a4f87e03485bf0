"""Spans recorded around silscope's public functions, from outside.

``Tracer.install`` replaces each named function in every silscope module
namespace that binds it (``harness`` imports ``components`` and
``build_p0`` by name, so patching only the defining module would miss
those calls), and every entry of ``harness.CHECKS``.  Each call then
records one span: name, start, end and the span that was open when it
began.  Spans of one ``cli.main`` call share that root.  A generator
function gets one span per ``next``, so its spans time the work done to
produce each item.

Spans live in flat arrays and are written out when the run ends; counts
and self times (a span's duration minus that of its direct children) are
derived from them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits: Counter = Counter()  # calls that returned a non-None value
        self.yielded: Counter = Counter()  # items produced by generator spans
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.yielded[name] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if result is not None:
                self.hits[name] += 1
            return result
        return wrapper

    def install(self, functions, package: str = "silscope") -> None:
        """Wrap ``functions`` ("module.name", relative to ``package``) and
        every ``harness.CHECKS`` entry wherever a package module binds them.
        Names the package no longer defines are skipped."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for span_name in functions:
            mod_name, _, fn_name = span_name.rpartition(".")
            fn = getattr(modules.get(f"{package}.{mod_name}"), fn_name, None)
            if callable(fn) and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.wrap(span_name, fn))
        checks = getattr(modules.get(f"{package}.harness"), "CHECKS", {})
        for check_id, fn in list(checks.items()):
            wrapper = self.wrap(f"harness.check.{check_id}", fn)
            wrappers[id(fn)] = (fn, wrapper)
            checks[check_id] = wrapper
            self._undo.append((checks, check_id, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._undo.append((vars(mod), attr, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    def totals(self) -> dict:
        """{span name: (calls, self seconds)} over all recorded spans."""
        count = len(self.name_id)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += duration[i] - children[i]
        return {self.names[nid]: (calls[nid], self_s[nid]) for nid in calls}

    def write(self, prefix: Path, header: dict) -> None:
        """Write ``<prefix>.spans.bin`` (the int32 columns name and parent,
        then the float64 columns start and end, each ``span_count`` long,
        in native byte order) and ``<prefix>.spans.json`` describing it."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans.bin", "wb") as fh:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)
        meta = dict(header, names=self.names, span_count=len(self.name_id),
                    columns=[["name", "int32"], ["parent", "int32"],
                             ["start", "float64"], ["end", "float64"]],
                    byteorder=sys.byteorder)
        with open(f"{prefix}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
