"""Span mechanics: nesting, balance under exceptions, process tags."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.telemetry.spans import DisabledSpan, SpanCollector


def _by_name(name):
    return [s for s in telemetry.spans() if s.name == name]


class TestNesting:
    def test_parent_links(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        [outer] = _by_name("outer")
        [inner] = _by_name("inner")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.pid == outer.pid

    def test_siblings_share_parent(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("a"):
                pass
            with telemetry.span("b"):
                pass
        [outer] = _by_name("outer")
        [a], [b] = _by_name("a"), _by_name("b")
        assert a.parent_id == b.parent_id == outer.span_id
        assert a.span_id != b.span_id

    def test_record_span_parents_to_open_span(self):
        telemetry.enable()
        with telemetry.span("outer"):
            telemetry.record_span("pre.timed", 1.0, 0.5, chunks=3)
        [outer] = _by_name("outer")
        [pre] = _by_name("pre.timed")
        assert pre.parent_id == outer.span_id
        assert pre.duration == 0.5
        assert pre.attrs == {"chunks": 3}


class TestExceptionBalance:
    def test_stack_balances_and_error_is_recorded(self):
        collector = SpanCollector()
        with pytest.raises(ValueError, match="boom"):
            with collector.span("outer"):
                with collector.span("inner"):
                    raise ValueError("boom")
        with collector.span("after"):
            pass
        inner, outer, after = collector.finished()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.error == "ValueError: boom"
        assert outer.error == "ValueError: boom"
        assert after.parent_id is None  # the stack emptied

    def test_leaked_inner_span_does_not_wedge_the_stack(self):
        collector = SpanCollector()
        outer = collector.span("outer")
        outer.__enter__()
        collector.span("leaked").__enter__()  # never exited
        outer.__exit__(None, None, None)
        assert [s.name for s in collector.finished()] == ["outer"]
        with collector.span("after"):
            pass
        assert collector.finished()[-1].parent_id is None  # the stack emptied

    def test_facade_exception_still_propagates(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("explodes"):
                raise RuntimeError("no")
        assert _by_name("explodes")[0].error == "RuntimeError: no"


class TestDisabled:
    def test_disabled_span_still_times(self):
        with telemetry.span("never.recorded") as sp:
            sum(range(1000))
        assert isinstance(sp, DisabledSpan)
        assert sp.duration > 0
        sp.set(ignored=True)  # must be a no-op, not an error
        assert telemetry.spans() == []

    def test_counters_disabled_are_free(self):
        telemetry.counter("nope")
        snap = telemetry.snapshot()
        assert snap == {"counters": {}}


class TestAttrs:
    def test_set_after_exit_lands_on_recorded_span(self):
        telemetry.enable()
        with telemetry.span("pass", pass_name="Fuse") as sp:
            pass
        sp.set(stmts_after=7)
        [span] = telemetry.spans()
        assert span.attrs == {"pass_name": "Fuse", "stmts_after": 7}

    def test_span_is_the_only_record_of_its_time(self):
        telemetry.enable()
        with telemetry.span("x.y"):
            pass
        [span] = telemetry.spans()
        assert span.duration >= 0
        assert telemetry.snapshot() == {"counters": {}}
