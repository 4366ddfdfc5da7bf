"""Spans around calls into dmaplab's public functions, recorded from outside
the package.

Every public function of a layer module is wrapped on each binding that a
caller resolves: the defining module's own global (``graph.laplacian``, which
``system_from_cloud`` reaches through graph's globals), the copies that
``from ... import`` made (``experiments.eigensolve_smallest``,
``cli.eigensolve_smallest``), and the package namespace.  ``cli`` calls
``dio.save_*`` as module attributes, which the defining-module binding covers.

A wrapper always runs its capture hooks (the correctness gate needs some
outputs that the public API does not return, such as the per-fit angles of a
tangent study).  When spans are on it also records one span per call; spans
stay in memory until the benchmark writes them out once at exit.
"""

import contextlib
import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("geometry", "graph", "spectral", "embedding", "tangent", "bounds",
          "io", "experiments", "cli")


@dataclass
class Span:
    id: int
    name: str          # "<layer>.<function>", or "bench.<op>" for an op root
    start: float
    end: float
    parent: int        # id of the enclosing span, -1 at the root
    run: str           # identifier shared by the spans of one operation
    error: bool = False
    peak_bytes: int = 0   # traced-memory peak above the start, memory mode

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return self.end - self.start


class _Frame:
    __slots__ = ("span", "base", "peak")

    def __init__(self, span, base):
        self.span, self.base, self.peak = span, base, base


class Tracer:
    """Span recorder and capture store for one process.

    ``spans_on`` turns span recording on; ``memory`` additionally follows
    tracemalloc's peak per span (``tracemalloc`` must then be tracing).
    ``overhead_s`` sums the time wrappers spend outside their spans.
    ``captured[name]`` lists ``(args, kwargs, result)`` for every call of a
    function named in ``capture`` since the last ``clear_captures``.
    """

    def __init__(self, capture=()):
        self.active = True
        self.capture = set(capture)
        self.captured = {name: [] for name in self.capture}
        self.spans_on = False
        self.memory = False
        self.run = ""
        self.spans = []
        self.overhead_s = 0.0
        self.observers = {}      # name -> fn(args, kwargs, result)
        self._stack = []
        self._undo = []

    # -- installation ----------------------------------------------------
    def install(self, names=None):
        """Wrap the named public functions (all of them when ``names`` is
        None) on every dmaplab binding that holds them."""
        modules = {layer: importlib.import_module("dmaplab." + layer)
                   for layer in LAYERS}
        holders = [importlib.import_module("dmaplab")] + list(modules.values())
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                if names is not None and name not in names:
                    continue
                wrapped = self._wrap(name, fn)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not tracer.spans_on:
                result = fn(*args, **kwargs)
            else:
                entered = time.perf_counter()
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    frame.span.error = True
                    raise
                finally:
                    tracer._exit(frame)
                observe = tracer.observers.get(name)
                if observe is not None:
                    observe(args, kwargs, result)
                # the wrapper's own time around the span is tracing cost
                tracer.overhead_s += (time.perf_counter() - entered
                                      - frame.span.seconds)
            if name in tracer.capture:
                tracer.captured[name].append((args, kwargs, result))
            return result
        return wrapper

    # -- spans -----------------------------------------------------------
    def _fold_peak(self):
        """Fold tracemalloc's peak since the last reset into every open
        frame, then restart the peak so a child span sees only its own."""
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._stack:
            frame.peak = max(frame.peak, peak)
        tracemalloc.reset_peak()
        return current

    def _enter(self, name):
        base = self._fold_peak() if self.memory else 0
        parent = self._stack[-1].span.id if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.run)
        self.spans.append(span)
        frame = _Frame(span, base)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        frame.span.end = time.perf_counter()
        if self.memory:
            self._fold_peak()
            frame.span.peak_bytes = frame.peak - frame.base
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself, the root of one operation;
        a no-op while spans are off."""
        frame = self._enter(name) if self.spans_on else None
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    @contextlib.contextmanager
    def paused(self):
        """Neither spans nor captures while the benchmark itself calls into
        dmaplab, as its correctness gate does."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def clear_captures(self):
        for calls in self.captured.values():
            calls.clear()


def self_times(spans):
    """Seconds of each span not covered by its children, by span id.
    Children of one span run one after another, so their durations add."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def outermost_seconds(spans, names):
    """Total duration of the spans named in ``names`` that have no ancestor
    also named there, so nested calls are counted once."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.seconds
    return total
