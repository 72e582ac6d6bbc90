"""In-memory span recorder and run-time rebinding of functions to timed wrappers.

A span is (id, name, start_ns, end_ns, parent id, op id).  Spans live in one
flat integer array while the benchmark runs and are written out as JSON lines
when it ends.  Nothing here touches the measured program's source: functions
are swapped for wrappers on their modules for the duration of a ``with``
block, and the originals are put back when it exits.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

_FIELDS = 4  # name id, start, end, parent; op id kept in a parallel array


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int
    op: int


class Tracer:
    """Records nested spans; the enclosing open span is each new span's parent."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._data = array("q")
        self._ops = array("q")
        self._stack: list[int] = []
        self.op = -1  # operation the next spans belong to; -1 is set-up
        self.values: dict[str, list[float]] = defaultdict(list)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self._ops)
        parent = self._stack[-1] if self._stack else -1
        self._data.extend((nid, time.perf_counter_ns(), 0, parent))
        self._ops.append(self.op)
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self._data[_FIELDS * sid + 2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, fn, name: str, after=None):
        """fn inside a span; ``after(tracer, result)`` may record values from the result."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(self, result)
            return result

        return timed

    def spans(self) -> list[Span]:
        d = self._data
        return [
            Span(i, self.names[d[_FIELDS * i]], d[_FIELDS * i + 1], d[_FIELDS * i + 2],
                 d[_FIELDS * i + 3], self._ops[i])
            for i in range(len(self._ops))
        ]

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans():
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` are indexed by id, as ``Tracer.spans`` returns them.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


@contextmanager
def instrument(tracer: Tracer, targets, package: str):
    """Rebind functions to timed wrappers in every module of ``package``.

    ``targets`` holds (module, qualified name, span name, after) tuples.  A
    plain function is replaced under every name any module of the package
    binds it to, so ``from .invariant import same_space`` in another module
    is timed too; a method is replaced on its class.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    saved = []
    try:
        for modname, qualname, span_name, after in targets:
            owner = sys.modules[modname]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, span_name, after)
            if path:
                sites = [(owner, attr)]
            else:
                sites = [(m, a) for m in modules for a, v in list(vars(m).items())
                         if v is original]
            for obj, a in sites:
                saved.append((obj, a, original))
                setattr(obj, a, wrapper)
        yield
    finally:
        for obj, a, original in reversed(saved):
            setattr(obj, a, original)
