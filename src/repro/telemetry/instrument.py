"""The one sink timer: :class:`StageClock`.

A sink times the stages *inside* its ``feed`` (the fused memory
pipeline's decode, layout, register filter and L1/L2; the branch
predictor's one stage) with one clock read per stage per chunk. At
``finish`` the clock records one ``<prefix>.<stage>`` span per stage,
carrying the stage's accumulated time and its ``events`` and ``chunks``
counts, parented to the span that was open at its first ``start()``
(``exec.run``, which feeds the sinks): so ``exec.run``'s self time is
trace production alone. A clock that never lapped records nothing. With
telemetry off, :func:`stage_clock` returns a clock whose methods do
nothing.
"""

from __future__ import annotations

import time

from repro import telemetry

__all__ = ["StageClock", "stage_clock"]


class StageClock:
    """Per-stage wall time, event and chunk counts inside a sink's ``feed``.

    ``start()`` opens a chunk; each ``lap(stage, events)`` charges the time
    since the previous reading to *stage*. ``finish()`` records the spans.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._first_start: float | None = None
        self._parent = None
        self._t = 0.0
        #: stage -> [seconds, events, chunks], in first-lap order
        self._acc: dict[str, list] = {}

    def start(self) -> None:
        self._t = time.perf_counter()
        if self._first_start is None:
            self._first_start = self._t
            self._parent = telemetry.current_span()

    def lap(self, stage: str, events: int) -> None:
        t = time.perf_counter()
        acc = self._acc.get(stage)
        if acc is None:
            acc = self._acc[stage] = [0.0, 0, 0]
        acc[0] += t - self._t
        acc[1] += events
        acc[2] += 1
        self._t = t

    def finish(self) -> None:
        with telemetry.nested(self._parent):
            for stage, (seconds, events, chunks) in self._acc.items():
                telemetry.record_span(
                    f"{self._prefix}.{stage}",
                    start=self._first_start,
                    duration=seconds,
                    events=events,
                    chunks=chunks,
                )


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
