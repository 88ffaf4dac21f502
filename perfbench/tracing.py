"""Span tracing from outside the package.

`Tracer.install()` replaces each public function listed in TARGETS with a
wrapper, at the module attribute its callers look it up by, and
`uninstall()` puts the originals back. Spans live in memory. A span's
parent is the innermost open span on the same thread, so work that the
thread pool runs starts root spans of its worker thread. Self time is a
span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _eval_span_name(args, kwargs) -> str:
    return "evaluation.evaluate." + _arg(args, kwargs, 3, "mode").value


def _count_filter(tracer, args, kwargs, result) -> None:
    tracer.counters["filter_considered"] += len(_arg(args, kwargs, 1, "records"))
    tracer.counters["filter_survivors"] += len(result)


def _count_corners(tracer, args, kwargs, result) -> None:
    tracer.corner_counts.append(result.count)


def _count_eval_extract(tracer, args, kwargs, result) -> None:
    tracer.counters["eval_extract_calls"] += 1


# (module, attribute, span name or function of the call's arguments, counter hook)
TARGETS = [
    ("tir.cli", "run", "cli.run", None),
    ("tir.cli", "load_index", "index.load_index", None),
    ("tir.cli", "build_index", "index.build_index", None),
    ("tir.cli", "evaluate", _eval_span_name, None),
    ("tir.imaging", "load_image", "imaging.load_image", None),
    ("tir.index", "load_image", "imaging.load_image", None),
    ("tir.evaluation", "load_image", "imaging.load_image", None),
    ("tir.evaluation", "rotate", "imaging.rotate", None),
    ("tir.corners", "prompt_edge", "edge.prompt_edge", None),
    ("tir.corners", "corner_metric", "corners.corner_metric", None),
    ("tir.corners", "corner_peaks", "corners.corner_peaks", _count_corners),
    ("tir.index", "hu_moments", "moments.hu_moments", None),
    ("tir.index", "extract_features", "index.extract_features", None),
    ("tir.evaluation", "extract_features", "index.extract_features", _count_eval_extract),
    ("tir.index", "load_index", "index.load_index", None),
    ("tir.index", "save_index", "index.save_index", None),
    ("tir.index", "query", "index.query", None),
    ("tir.index", "corner_filter", "matching.corner_filter", _count_filter),
    ("tir.evaluation", "corner_filter", "matching.corner_filter", _count_filter),
    ("tir.index", "rank_by_moments", "matching.rank_by_moments", None),
    ("tir.evaluation", "rank_by_moments", "matching.rank_by_moments", None),
    ("tir.index", "map_ordered", "parallel.map_ordered", None),
    ("tir.evaluation", "map_ordered", "parallel.map_ordered", None),
]


@dataclass
class Span:
    span_id: int
    name: str
    op: str | None
    parent: int | None
    start: float
    duration: float = 0.0
    children: float = 0.0

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {"filter_considered": 0, "filter_survivors": 0, "eval_extract_calls": 0}
        self.corner_counts: list[int] = []
        self.op: str | None = None  # identifier shared by the spans of one operation
        self.counting = False  # counter hooks run only inside timed operations
        self._local = threading.local()
        self._lock = threading.Lock()  # hooks run on the pool's worker threads too
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(next(self._ids), name, self.op, parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children += span.duration
        self.spans.append(span)

    def run(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None and self.counting:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def recording(self, op: str, counting: bool):
        """Install the wrappers for one operation or set-up labelled `op`."""
        self.op, self.counting = op, counting
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.counting = False

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
