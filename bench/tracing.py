"""In-memory span recorder that wraps public functions of the palette layers.

A span is one call of a wrapped function: a name, its start and end
(``time.perf_counter``), the span that was open when it began (its parent),
the id of the work item being measured, and a few named counts such as token
totals. Spans stay in memory until the run ends; ``write_jsonl`` saves them
and ``SpanStats`` sums their times, self times and counts by name.

Each function is patched in the namespace its caller looks it up in, so
``agent_pipeline.route_prompt`` is wrapped rather than
``gate_router.route_prompt``. Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "item", "counts")

    def __init__(self, span_id, name, start, parent, item):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            **self.counts,
        }


class Tracer:
    """Records spans for wrapped callables; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.item)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def bind(self, fn):
        """Run ``fn`` in another thread as a child of the current span."""
        parent = list(self._stack()[-1:])

        def run(*args, **kwargs):
            self._local.stack = list(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = []

        return run

    # --- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``restore``."""
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``count(span, args, kwargs, result)`` may add named counts to the span.
        Class- and static methods keep their descriptor type.
        """
        raw = _raw(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        self.patch(owner, attr, kind(wrapper) if kind else wrapper)

    def propagate_threads(self, module) -> None:
        """Make ``module.ThreadPoolExecutor`` carry the open span into workers."""
        tracer = self

        class PropagatingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.bind(fn), *args, **kwargs)

        self.patch(module, "ThreadPoolExecutor", PropagatingPool)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output -----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def _raw(owner, attr: str):
    # A class attribute is read from the class dict so that classmethod and
    # staticmethod descriptors are saved and restored as they are.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


class SpanStats:
    """Totals by span name, for deriving layer metrics."""

    def __init__(self, spans: list[Span]):
        self._self = self_times(spans)
        self.by_name: dict[str, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self._self[s.id] for s in self.by_name.get(name, ()))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.by_name.get(name, ()))

    def child_total(self, parent_name: str, child_name: str) -> float:
        parents = {s.id for s in self.by_name.get(parent_name, ())}
        return sum(s.duration for s in self.by_name.get(child_name, ()) if s.parent in parents)
