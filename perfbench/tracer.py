"""Span tracing from the benchmark side.

The traced run wraps the functions listed in :data:`layers.LAYERS` on
their classes, before any cluster is built: pipelines bind stage
methods and switches bind PFC hooks at construction, and the event
core dispatches whatever bound method was scheduled.  Nothing goes
through the observer bus — any subscriber switches packet pooling off
and a ``stage`` tap moves ``Switch.receive`` onto the full
``Pipeline``, so a bus trace would measure a different program.

Each call becomes a span (id, parent, name, start, end).  Self time
(the span minus its child spans) is summed per layer as spans close,
and only a bounded prefix of spans is kept, so memory stays flat at
millions of events.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from layers import LAYERS, SELF_TIME_LAYERS

__all__ = ["Tracer", "Stopwatch"]


class Tracer:
    """Wraps every traced entry point while the context is open."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        self.self_s: List[float] = [0.0] * len(SELF_TIME_LAYERS)
        self.calls: List[int] = [0] * len(SELF_TIME_LAYERS)
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._saved: List[Tuple[type, str, object]] = []
        self.wrapped: List[str] = []

    def _wrap(self, fn: Callable, index: int, name: str) -> Callable:
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        keep = self.keep
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            sid = next_id()
            rec = None
            if len(spans) < keep:
                rec = [sid, stack[-1][0] if stack else 0, name, t0, t0]
                spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[index] += dur - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += dur
                if rec is not None:
                    rec[4] = t1
        return traced

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            if not layer.traced:
                continue
            index = SELF_TIME_LAYERS.index(layer.name)
            for module, cls_name, methods in layer.traced:
                cls = getattr(importlib.import_module(module), cls_name)
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if not callable(fn):
                        continue  # entry point gone: its time falls to callers
                    name = f"{cls_name}.{method}"
                    self._saved.append((cls, method, fn))
                    setattr(cls, method, self._wrap(fn, index, name))
                    self.wrapped.append(name)
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, fn in reversed(self._saved):
            setattr(cls, method, fn)
        self._saved.clear()

    def restart(self) -> None:
        """Forget everything recorded so far (called when the measured
        phase starts, outside every span)."""
        if self._stack:
            raise RuntimeError("tracer restarted inside an open span")
        self.self_s[:] = [0.0] * len(self.self_s)
        self.calls[:] = [0] * len(self.calls)
        self.spans.clear()

    def self_times(self) -> Dict[str, float]:
        return {f"{name}.self_s": self.self_s[i]
                for i, name in enumerate(SELF_TIME_LAYERS)}

    def dump(self, path: str) -> None:
        """Write the kept span prefix and the per-layer totals."""
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "self_s": self.self_times(),
            "calls": dict(zip(SELF_TIME_LAYERS, self.calls)),
            "wrapped": self.wrapped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Stopwatch:
    """Inclusive host time of a few set-up calls, cheap enough for an
    untraced run: ``(class, method, metric)`` triples, classmethods
    included."""

    def __init__(self, targets: Tuple[Tuple[type, str, str], ...]) -> None:
        self.targets = targets
        self.totals: Dict[str, float] = {m: 0.0 for _, _, m in targets}
        self._saved: List[Tuple[type, str, object]] = []

    def _timed(self, fn: Callable, metric: str) -> Callable:
        totals = self.totals

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[metric] += perf_counter() - t0
        return timed

    def __enter__(self) -> "Stopwatch":
        for cls, method, metric in self.targets:
            raw = cls.__dict__.get(method)
            if raw is None:
                continue  # set-up call gone: its metric stays 0
            self._saved.append((cls, method, raw))
            if isinstance(raw, classmethod):
                setattr(cls, method,
                        classmethod(self._timed(raw.__func__, metric)))
            else:
                setattr(cls, method, self._timed(raw, metric))
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, raw in reversed(self._saved):
            setattr(cls, method, raw)
        self._saved.clear()
