"""Span tracing: nested, monotonic-clocked, thread- and process-tagged.

A *span* is one timed region of work (`pipeline.pass`, `exec.run`,
`sweep.point`, ...). Spans nest: each thread keeps a stack of open spans,
and a span records its parent's id so exporters can rebuild the tree.
Timing uses ``time.perf_counter`` (monotonic); the per-process clock
origin is arbitrary, so cross-process ordering is by pid, not timestamp.

Two kinds of span object exist:

- :class:`ActiveSpan` — the enabled path. Recorded into a
  :class:`SpanCollector` at ``__exit__`` (which always runs, so the stack
  balances even when the body raises; the exception is noted in
  :attr:`Span.error` and re-raised).
- :class:`DisabledSpan` — the disabled path. Still measures
  ``duration`` (callers such as the
  :class:`~repro.pipeline.manager.PassManager` use span timing as their
  only stopwatch) but records nothing and allocates almost nothing.

Both expose ``duration`` and ``set(**attrs)`` so call sites never branch
on the telemetry state.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["Span", "ActiveSpan", "DisabledSpan", "SpanCollector"]

#: Span ids, unique per process across collectors: a sweep worker resets
#: its collector per point, and the parent merges every point's spans,
#: keyed by ``(pid, span_id)``, into one tree.
_SPAN_IDS = itertools.count(1)


@dataclass
class Span:
    """One finished span, ready for export."""

    name: str
    start: float  #: ``perf_counter`` seconds (per-process origin)
    duration: float
    span_id: int
    parent_id: int | None
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        d: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            start=d["start"],
            duration=d["duration"],
            span_id=d["span_id"],
            parent_id=d["parent_id"],
            pid=d["pid"],
            tid=d["tid"],
            attrs=dict(d.get("attrs", {})),
            error=d.get("error"),
        )


class DisabledSpan:
    """No-op span: times the region, records nothing."""

    __slots__ = ("start", "duration")

    def __init__(self) -> None:
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "DisabledSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        return False

    def set(self, **attrs: Any) -> None:
        """Discard attributes (telemetry is off)."""


class ActiveSpan:
    """An open span; closes (and records itself) at ``__exit__``."""

    __slots__ = ("_collector", "name", "attrs", "start", "duration", "span_id", "parent_id")

    def __init__(self, collector: "SpanCollector", name: str, attrs: dict[str, Any]):
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self.span_id = -1
        self.parent_id: int | None = None

    def __enter__(self) -> "ActiveSpan":
        self._collector._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        self._collector._pop(self, error)
        return False  # never swallow the exception

    def set(self, **attrs: Any) -> None:
        """Attach attributes; allowed before *or* after ``__exit__`` (the
        recorded span shares this dict), but before any export."""
        self.attrs.update(attrs)


class SpanCollector:
    """Accumulates finished spans; one per process.

    Thread-safe: each thread has its own open-span stack
    (``threading.local``) and finished spans are appended under a lock.
    ``on_finish(name, duration)`` is invoked for every finished span —
    the facade uses it to feed per-span-name duration histograms into the
    metrics registry.
    """

    def __init__(self, on_finish: Callable[[str, float], None] | None = None):
        self._finished: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._on_finish = on_finish

    # -- stack bookkeeping -----------------------------------------------
    def _stack(self) -> list[ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _issue_id(self) -> int:
        return next(_SPAN_IDS)  # one C call: atomic under the GIL

    def _push(self, span: ActiveSpan) -> None:
        stack = self._stack()
        span.span_id = self._issue_id()
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _pop(self, span: ActiveSpan, error: str | None) -> None:
        stack = self._stack()
        # Pop down to (and including) *span* even if an inner span leaked
        # open — __exit__ must leave the stack balanced no matter what.
        while stack:
            top = stack.pop()
            if top is span:
                break
        self._record(
            Span(
                name=span.name,
                start=span.start,
                duration=span.duration,
                span_id=span.span_id,
                parent_id=span.parent_id,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=span.attrs,
                error=error,
            )
        )

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
        if self._on_finish is not None:
            self._on_finish(span.name, span.duration)

    # -- public API -------------------------------------------------------
    def span(self, name: str, attrs: dict[str, Any] | None = None) -> ActiveSpan:
        """An open span context manager, parented to the current top."""
        return ActiveSpan(self, name, dict(attrs or {}))

    def current(self) -> ActiveSpan | Span | None:
        """The top of this thread's stack: the parent of a span opened or
        recorded now."""
        stack = self._stack()
        return stack[-1] if stack else None

    def record(
        self, name: str, start: float, duration: float, attrs: dict[str, Any] | None = None
    ) -> Span:
        """Record a pre-timed ("complete") span, parented to the current
        top of this thread's stack — for work timed piecewise, like a
        sink's accumulated ``feed`` time."""
        stack = self._stack()
        span = Span(
            name=name,
            start=start,
            duration=duration,
            span_id=self._issue_id(),
            parent_id=stack[-1].span_id if stack else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs or {}),
        )
        self._record(span)
        return span

    @contextmanager
    def nest(self, span: ActiveSpan | Span) -> Iterator[None]:
        """Parent the spans opened or recorded in this block to *span*,
        open or already recorded."""
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            while stack and stack.pop() is not span:
                pass

    def absorb(self, spans: list[Span]) -> None:
        """Merge spans serialized by another process (ids are unique per
        ``(pid, span_id)``; parent links stay within the source process)."""
        with self._lock:
            self._finished.extend(spans)

    def finished(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def open_depth(self) -> int:
        """Open spans on the calling thread's stack (0 when balanced)."""
        return len(self._stack())
