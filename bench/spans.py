"""In-memory span tracer for idtlab, installed from outside the package.

The tracer replaces every public module-level function of the traced
modules with a wrapper that records one span per call: name (as
``module.function``), start, end, parent span and thread.  Modules import
each other's functions by name (``from .processes import generate``), so
the wrapper is installed under every name in every idtlab module that
refers to the original function.
``restore`` puts the originals back; the tracer is a context manager so a
failing pass cannot leave the package wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types

TRACED_MODULES = ("randkit", "kernels", "processes", "transforms", "statlab", "io", "thresholds", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread


class Tracer:
    """Wraps idtlab's public functions while active; spans stay in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[prefix + short]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [self.package] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith(prefix) and mod is not None
        ]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])

    def restore(self) -> None:
        while self._saved:
            namespace, attr, obj = self._saved.pop()
            setattr(namespace, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_jsonl(self, path) -> None:
        """One JSON object per span; ``parent`` is the parent's line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent is not None else None
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": parent, "thread": span.thread,
                }) + "\n")


def self_times(spans) -> tuple[dict, float]:
    """Total self time per span name, and the summed duration of root spans.

    A span's self time is its duration minus the durations of its child
    spans.  Children are tracked per thread, so a span that runs on a
    worker thread is a root there and its caller's wait stays in the
    caller's self time; attribute from a single-thread pass.
    """
    child_time: dict[int, float] = {}
    root_total = 0.0
    for span in spans:
        duration = span.end - span.start
        if span.parent is None:
            root_total += duration
        else:
            child_time[id(span.parent)] = child_time.get(id(span.parent), 0.0) + duration
    totals: dict[str, float] = {}
    for span in spans:
        own = (span.end - span.start) - child_time.get(id(span), 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals, root_total
