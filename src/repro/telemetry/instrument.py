"""Generic instrumentation adapters over the trace-sink protocol.

:class:`InstrumentedSink` wraps any
:class:`~repro.machine.sinks.TraceSink`, accumulating per-``feed`` wall
time and chunk/event counts, and emits — at ``finish()`` — one
synthesized replay span (``machine.sink.<name>``), parented to the span
open at its first ``feed`` (``exec.run``), plus
``machine.sink.<name>.chunks`` / ``.events`` counters. It is only ever
constructed when telemetry is enabled, so the disabled path pays
nothing; the per-chunk cost when enabled is two integer adds and one
clock read per ~64k events.

:func:`stage_clock` times the stages *inside* one sink's ``feed`` (the
fused memory pipeline's decode, layout, register filter and L1/L2): one
clock read per stage per chunk, emitted at ``finish`` as one
``<prefix>.<stage>`` span per stage plus a ``<prefix>.<stage>.events``
counter. With telemetry off it returns a clock whose methods do nothing.
"""

from __future__ import annotations

import time
from typing import Any

from repro import telemetry

__all__ = ["InstrumentedSink", "StageClock", "stage_clock"]


def _chunk_events(chunk: Any) -> int:
    """Event count of one chunk; access chunks are (addresses, mask) pairs."""
    if isinstance(chunk, tuple):
        chunk = chunk[0]
    try:
        return len(chunk)
    except TypeError:
        return 1


class InstrumentedSink:
    """Counting/timing proxy for a trace sink (telemetry-enabled path)."""

    def __init__(self, inner: Any, name: str):
        self._inner = inner
        self._name = name
        self._chunks = 0
        self._events = 0
        self._seconds = 0.0
        self._first_start: float | None = None
        self._parent = None

    def feed(self, chunk: Any) -> Any:
        t0 = time.perf_counter()
        if self._first_start is None:
            self._first_start = t0
            self._parent = telemetry.current_span()
        out = self._inner.feed(chunk)
        self._seconds += time.perf_counter() - t0
        self._chunks += 1
        self._events += _chunk_events(chunk)
        return out

    def finish(self) -> Any:
        with telemetry.nested(self._parent):
            span = telemetry.record_span(
                f"machine.sink.{self._name}",
                start=self._first_start if self._first_start is not None else time.perf_counter(),
                duration=self._seconds,
                chunks=self._chunks,
                events=self._events,
            )
        # Spans the inner sink records at finish (its stage spans) nest
        # under this one, whose feed time contains theirs.
        with telemetry.nested(span):
            result = self._inner.finish()
        telemetry.counter(f"machine.sink.{self._name}.chunks", self._chunks)
        telemetry.counter(f"machine.sink.{self._name}.events", self._events)
        return result


class StageClock:
    """Per-stage wall time and event counts inside a sink's ``feed``.

    ``start()`` opens a chunk; each ``lap(stage, events)`` charges the time
    since the previous reading to *stage*. ``finish()`` emits the totals.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._first_start: float | None = None
        self._t = 0.0
        #: stage -> [seconds, events], in first-lap order
        self._acc: dict[str, list] = {}

    def start(self) -> None:
        self._t = time.perf_counter()
        if self._first_start is None:
            self._first_start = self._t

    def lap(self, stage: str, events: int) -> None:
        t = time.perf_counter()
        acc = self._acc.get(stage)
        if acc is None:
            acc = self._acc[stage] = [0.0, 0]
        acc[0] += t - self._t
        acc[1] += events
        self._t = t

    def finish(self) -> None:
        for stage, (seconds, events) in self._acc.items():
            name = f"{self._prefix}.{stage}"
            telemetry.record_span(
                name, start=self._first_start, duration=seconds, events=events
            )
            telemetry.counter(f"{name}.events", events)


class _NullStageClock:
    """Telemetry-off stand-in for :class:`StageClock`."""

    def start(self) -> None:
        pass

    def lap(self, stage: str, events: int) -> None:
        pass

    def finish(self) -> None:
        pass


def stage_clock(prefix: str) -> StageClock | _NullStageClock:
    """A :class:`StageClock` when telemetry is enabled, else a no-op."""
    return StageClock(prefix) if telemetry.enabled() else _NullStageClock()
