"""In-memory spans recorded around calls into the program's public API.

A :class:`Tracer` built with ``enabled=False`` records nothing and its
``span`` context manager costs one attribute test, so the untraced runs
that produce the end-to-end metrics carry no instrumentation.  The
traced run enables it, installs :func:`patched` wrappers around public
functions and methods for the duration of a phase, and derives per-layer
self times from the recorded span forest at the end.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent_id: Optional[int]
    start: float
    end: float
    thread: int
    request_id: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder (a span's parent is the innermost open
    span on the same thread, unless one is given explicitly)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None,
             parent: Optional[int] = None, **meta: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, parent, start, end,
                                       threading.get_ident(), request_id,
                                       meta))

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def dump(self, path, **extra: Any) -> None:
        """Write every span (and ``extra`` run facts) as one JSON file."""
        payload = dict(extra)
        payload["spans"] = [asdict(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


@contextlib.contextmanager
def patched(tracer: Tracer, targets) -> Iterator[None]:
    """Replace ``(owner, attribute, how)`` targets for the duration of the
    block, restoring the originals on exit.  ``owner`` is a module or a
    class; ``how`` is a span name (the call is wrapped in that span) or a
    ``factory(original) -> replacement``.  Does nothing when the tracer
    is disabled."""
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for owner, attr, how in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(original, how)
                    if isinstance(how, str) else how(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span-forest analysis
# ----------------------------------------------------------------------

class SpanIndex:
    """Parent/child lookups and self times over a list of spans."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.by_id = {s.span_id: s for s in spans}
        self.children: Dict[int, List[Span]] = {}
        for s in spans:
            if s.parent_id is not None:
                self.children.setdefault(s.parent_id, []).append(s)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that same-thread children cover
        (children on one thread never overlap, so their sum is that part)."""
        covered = sum(c.duration for c in self.children.get(span.span_id, ())
                      if c.thread == span.thread)
        return max(0.0, span.duration - covered)

    def descendants(self, root: Span) -> Iterator[Span]:
        todo = list(self.children.get(root.span_id, ()))
        while todo:
            span = todo.pop()
            yield span
            todo.extend(self.children.get(span.span_id, ()))

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent_id)
        return False

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def coverage(self, phase: Span, containers=()) -> float:
        """Share of ``phase``'s wall time spent inside layer spans: one
        minus the self time of the phase span and of the named container
        spans below it (calls that only group layers).  Spans recorded
        on other threads count by the union of their intervals."""
        if phase.duration <= 0:
            return 0.0
        inner = list(self.descendants(phase))
        same = [s for s in inner if s.thread == phase.thread]
        other = [s for s in inner if s.thread != phase.thread
                 and self.by_id.get(s.parent_id) is phase]
        uncovered = self.self_time(phase) + sum(
            self.self_time(s) for s in same if s.name in containers)
        if other:
            uncovered -= _union(other)
        return max(0.0, min(1.0, 1.0 - uncovered / phase.duration))


def _union(spans: List[Span]) -> float:
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end <= end:
            continue
        total += s.end - max(s.start, end)
        end = s.end
    return total


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one recorded span on this host (seconds)."""
    tracer = Tracer(enabled=True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples
