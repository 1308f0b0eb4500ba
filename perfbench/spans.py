"""In-memory span recorder that times calls into the program's layers.

Spans are recorded around public functions by rebinding the module
attributes the program looks up at call time (``cli.integrate``,
``solver.rk4_step`` ...); the program itself is not edited.  A span is
(run id, span id, parent id, name, start, end, value), where ``value`` is an
optional number taken from the call, such as a step's ``dt``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    value: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; each thread keeps its own stack of open spans, and a
    span opened on a thread with an empty stack (a pool worker) gets the
    current request's root span as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_id: str | None = None
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, value: float | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(self._run_id, span_id, parent, name, start, end, value))

    @contextmanager
    def request(self, run_id: str):
        """Root span ``cli.main`` of one request; every span opened inside
        shares its run_id."""
        self._run_id = run_id
        with self.span("cli.main"):
            self._root = self._stack()[-1]
            try:
                yield
            finally:
                self._root = None

    def patch(self, module, attr: str, name: str, value_arg: int | None = None):
        """Rebind ``module.attr`` to a wrapper that records a span per call."""
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            value = args[value_arg] if value_arg is not None else None
            with tracer.span(name, value):
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def unpatch(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered(children.get(s.span_id, []), s.start, s.end)
        for s in spans
    }
