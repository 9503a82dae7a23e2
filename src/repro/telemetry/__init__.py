"""Unified telemetry: spans and counters, off by default.

One module-level facade instruments every layer of the reproduction
(pipeline, executor, machine model, sweep) without any of them knowing
about exporters or each other::

    from repro import telemetry

    with telemetry.span("sweep.point", kernel="jacobi", n=120) as sp:
        ...
        sp.set(source="computed")
    telemetry.counter("sweep.cache.miss")

A span is the one record of time, and a counter the one record of a
count; nothing is recorded twice.

**Disabled is free(ish):** with telemetry off (the default),
:func:`span` returns a stack-allocated timer that records nothing, and
:func:`counter` returns immediately.
Instrumented code paths therefore stay bit-identical and within noise of
their un-instrumented cost; ``docs/telemetry.md`` records the measured
*enabled* cost of a full sweep.

**Enabling:** the CLI's ``--telemetry DIR`` flag, or call :func:`enable`
programmatically (tests use the in-memory collector this way).
:func:`write_run` exports one run's evidence as ``trace.jsonl`` +
``metrics.json`` + ``summary.txt`` + ``trace_chrome.json``.

**Cross-process merge:** sweep workers call :func:`export_state` and the
parent :func:`absorb`\\ s it, so a parallel sweep yields one coherent
trace (spans keep their origin pid; counters add).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.telemetry.metrics import MetricsRegistry, merge_snapshots  # noqa: F401
from repro.telemetry.spans import (
    ActiveSpan,
    DisabledSpan,
    Span,
    SpanCollector,
)

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "record_span",
    "current_span",
    "nested",
    "counter",
    "counter_value",
    "snapshot",
    "spans",
    "export_state",
    "absorb",
    "write_run",
    "perf_counter",
    "Span",
    "SpanCollector",
    "MetricsRegistry",
    "merge_snapshots",
]

perf_counter = time.perf_counter  # the one clock every span uses

_registry = MetricsRegistry()
_collector = SpanCollector()

_enabled = False


def enabled() -> bool:
    """Is telemetry recording? Hot paths gate their work on this."""
    return _enabled


def enable() -> None:
    """Start recording into the in-process collector/registry."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all recorded spans and metrics (enabled state unchanged).

    Sweep workers call this before measuring so that, under a forking
    ``ProcessPoolExecutor``, inherited parent telemetry is not
    re-exported as the worker's own.
    """
    global _collector, _registry
    _registry = MetricsRegistry()
    _collector = SpanCollector()


# -- spans ----------------------------------------------------------------


def span(name: str, **attrs: Any) -> ActiveSpan | DisabledSpan:
    """A timed region context manager (records only when enabled).

    The returned object always exposes ``duration`` (seconds) after exit
    and ``set(**attrs)``, so callers can use it as their stopwatch
    without branching on the telemetry state.
    """
    if not _enabled:
        return DisabledSpan()
    return _collector.span(name, attrs)


def record_span(name: str, start: float, duration: float, **attrs: Any) -> Span | None:
    """Record a pre-timed span (for piecewise-accumulated work), parented
    to the innermost open span; returns it (``None`` when disabled)."""
    if not _enabled:
        return None
    return _collector.record(name, start, duration, attrs)


def current_span() -> ActiveSpan | None:
    """The innermost open span of this thread (``None`` when disabled)."""
    return _collector.current() if _enabled else None


@contextmanager
def nested(span: ActiveSpan | None) -> Iterator[None]:
    """Parent the spans opened or recorded in this block to *span*, even
    after it closed (``None``: no effect)."""
    if span is None:
        yield
        return
    with _collector.nest(span):
        yield


def spans() -> list[Span]:
    """All finished spans recorded (or absorbed) by this process."""
    return _collector.finished()


# -- metrics --------------------------------------------------------------


def counter(name: str, n: float = 1) -> None:
    if _enabled:
        _registry.counter_add(name, n)


def counter_value(name: str) -> float:
    """Current counter value (0 when absent) — test/report convenience."""
    return _registry.counter_value(name)


def snapshot() -> dict[str, Any]:
    """JSON-able counters snapshot (``{"counters": {...}}``)."""
    return _registry.snapshot()


# -- cross-process merge --------------------------------------------------


def export_state() -> dict[str, Any]:
    """Everything this process recorded, as one JSON-able object."""
    return {
        "spans": [s.as_dict() for s in _collector.finished()],
        "metrics": _registry.snapshot(),
    }


def absorb(state: dict[str, Any] | None) -> None:
    """Merge a worker's :func:`export_state` into this process."""
    if not state:
        return
    _collector.absorb([Span.from_dict(d) for d in state.get("spans", [])])
    _registry.merge_snapshot(state.get("metrics", {}))


# -- run artifacts --------------------------------------------------------


def write_run(directory: str | Path) -> dict[str, Path]:
    """Export the run's telemetry into *directory*.

    Writes ``trace.jsonl`` (raw spans), ``metrics.json`` (counters),
    ``summary.txt`` (human-readable tree + counters) and
    ``trace_chrome.json`` (flamegraph; load in ``chrome://tracing`` or
    Perfetto). Returns ``{artifact name: path}``.
    """
    import json

    from repro.telemetry.export import (
        render_summary,
        write_chrome_trace,
        write_jsonl,
    )

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    all_spans = _collector.finished()
    metrics = _registry.snapshot()
    written = {
        "trace.jsonl": write_jsonl(all_spans, directory / "trace.jsonl"),
        "trace_chrome.json": write_chrome_trace(
            all_spans, directory / "trace_chrome.json"
        ),
    }
    (directory / "metrics.json").write_text(json.dumps(metrics, indent=1))
    written["metrics.json"] = directory / "metrics.json"
    (directory / "summary.txt").write_text(render_summary(all_spans, metrics))
    written["summary.txt"] = directory / "summary.txt"
    return written
