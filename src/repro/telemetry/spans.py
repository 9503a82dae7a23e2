"""Span tracing: nested, monotonic-clocked, process-tagged.

A *span* is one timed region of work (`pipeline.pass`, `exec.run`,
`sweep.point`, ...). Spans nest: the process keeps one stack of open
spans, and a span records its parent's id so exporters can rebuild the
tree. Telemetry is single-threaded: no thread of ``repro`` opens a span,
and sweep workers are processes whose spans the parent absorbs. A span
still records its pid and thread id, so older traces load unchanged.
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
from typing import Any, Iterator

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
    """Accumulates finished spans; one per process, with one stack of open
    spans."""

    def __init__(self) -> None:
        self._finished: list[Span] = []
        self._stack: list[ActiveSpan] = []

    # -- stack bookkeeping -----------------------------------------------
    def _push(self, span: ActiveSpan) -> None:
        stack = self._stack
        span.span_id = next(_SPAN_IDS)
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _pop(self, span: ActiveSpan, error: str | None) -> None:
        stack = self._stack
        # Pop down to (and including) *span* even if an inner span leaked
        # open — __exit__ must leave the stack balanced no matter what.
        while stack:
            top = stack.pop()
            if top is span:
                break
        self._finished.append(
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

    # -- public API -------------------------------------------------------
    def span(self, name: str, attrs: dict[str, Any] | None = None) -> ActiveSpan:
        """An open span context manager, parented to the current top."""
        return ActiveSpan(self, name, dict(attrs or {}))

    def current(self) -> ActiveSpan | None:
        """The top of the stack: the parent of a span opened or recorded
        now."""
        return self._stack[-1] if self._stack else None

    def record(
        self, name: str, start: float, duration: float, attrs: dict[str, Any] | None = None
    ) -> Span:
        """Record a pre-timed ("complete") span, parented to the current
        top of the stack — for work timed piecewise, like a sink's
        accumulated ``feed`` time."""
        stack = self._stack
        span = Span(
            name=name,
            start=start,
            duration=duration,
            span_id=next(_SPAN_IDS),
            parent_id=stack[-1].span_id if stack else None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs or {}),
        )
        self._finished.append(span)
        return span

    @contextmanager
    def nest(self, span: ActiveSpan) -> Iterator[None]:
        """Parent the spans opened or recorded in this block to *span*,
        open or already closed."""
        stack = self._stack
        stack.append(span)
        try:
            yield
        finally:
            while stack and stack.pop() is not span:
                pass

    def absorb(self, spans: list[Span]) -> None:
        """Merge spans serialized by another process (ids are unique per
        ``(pid, span_id)``; parent links stay within the source process)."""
        self._finished.extend(spans)

    def finished(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        return list(self._finished)
