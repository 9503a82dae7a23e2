"""Exporters: JSONL round-trip, Chrome trace shape, text summaries."""

from __future__ import annotations

import json

from repro import telemetry
from repro.telemetry.export import (
    aggregate,
    chrome_trace,
    render_point_table,
    render_summary,
    render_tree,
    write_jsonl,
)
from repro.telemetry.spans import Span


def _spans():
    return [
        Span("root", 1.0, 2.0, span_id=1, parent_id=None, pid=10, tid=1),
        Span(
            "child",
            1.5,
            0.5,
            span_id=2,
            parent_id=1,
            pid=10,
            tid=1,
            attrs={"kernel": "lu", "n": 8},
            error="ValueError: boom",
        ),
    ]


def read_jsonl(path):
    return [Span.from_dict(json.loads(line)) for line in path.read_text().splitlines()]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        spans = _spans()
        path = write_jsonl(spans, tmp_path / "trace.jsonl")
        assert read_jsonl(path) == spans

    def test_round_trip_via_facade(self, tmp_path):
        telemetry.enable()
        with telemetry.span("outer", recipe="tiled"):
            with telemetry.span("inner"):
                pass
        written = telemetry.write_run(tmp_path)
        back = read_jsonl(written["trace.jsonl"])
        assert back == telemetry.spans()


class TestChromeTrace:
    def test_event_shape(self):
        events = chrome_trace(_spans())
        root, child = events
        assert root["ph"] == "X"
        assert root["ts"] == 1.0e6 and root["dur"] == 2.0e6  # microseconds
        assert child["args"] == {"kernel": "lu", "n": 8, "error": "ValueError: boom"}
        assert {e["pid"] for e in events} == {10}

    def test_file_is_loadable_json(self, tmp_path):
        telemetry.enable()
        with telemetry.span("a"):
            pass
        written = telemetry.write_run(tmp_path)
        data = json.loads(written["trace_chrome.json"].read_text())
        assert [e["name"] for e in data["traceEvents"]] == ["a"]


class TestTextRenderers:
    def test_tree_aggregates_by_path(self):
        spans = _spans() + [
            Span("child", 3.0, 0.25, span_id=3, parent_id=1, pid=10, tid=1),
            Span("leaf", 1.6, 0.125, span_id=4, parent_id=2, pid=10, tid=1),
        ]
        root, child, leaf = render_tree(spans).splitlines()
        assert root.split()[:2] == ["root", "x1"]
        assert child.split()[:2] == ["child", "x2"]  # both fold into one line
        # self = total minus the children's totals, at every level.
        assert "total    2000.00 ms  self    1250.00 ms" in root
        assert "total     750.00 ms  self     625.00 ms" in child
        assert "total     125.00 ms  self     125.00 ms" in leaf

    def test_aggregate_by_path(self):
        spans = _spans() + [
            Span("child", 3.0, 0.25, span_id=3, parent_id=1, pid=10, tid=1,
                 attrs={"events": 5}),
            # Same ids in another process: a separate tree.
            Span("child", 0.0, 1.0, span_id=2, parent_id=None, pid=11, tid=1),
        ]
        stats = aggregate(spans)
        assert sorted(stats) == [("child",), ("root",), ("root", "child")]
        child = stats["root", "child"]
        assert (child.count, child.total, child.self_time, child.events) == (2, 0.75, 0.75, 5)
        assert stats["root",].self_time == 1.25
        assert stats["child",].total == 1.0

    def test_empty_tree(self):
        assert render_tree([]) == "(no spans recorded)"

    def test_point_table_one_row_per_measured_point(self):
        def span(name, sid, parent, duration, **attrs):
            return Span(name, 0.0, duration, span_id=sid, parent_id=parent,
                        pid=10, tid=1, attrs=attrs)

        spans = [
            span("sweep.point", 1, None, 3.0, kernel="lu", variant="seq", n=72),
            span("exec.run", 2, 1, 2.0),
            span("machine.memory.regfilter", 4, 2, 0.1, events=1000),
            span("machine.memory.l1l2", 5, 2, 0.4, events=800),
            span("machine.branch", 6, 2, 0.5, events=50),
            # A disk-cache hit runs no machine model: no row.
            span("sweep.point", 7, None, 0.01, kernel="lu", variant="tiled", n=72),
        ]
        header, _, row = render_point_table(spans).splitlines()
        assert header.split()[:6] == ["kernel", "variant", "N", "events", "produce", "s"]
        cells = row.split()
        assert cells[:4] == ["lu", "seq", "72", "1000"]
        # produce = exec.run minus the sinks it fed, rated by the memory
        # events the register filter saw.
        assert cells[4:8] == ["1.000", "1000", "0.100", "10000"]
        assert cells[8:10] == ["0.400", "2000"]  # l1l2
        assert cells[10:12] == ["0.500", "100"]  # branch
        assert len(cells) == 12  # no decode or layout columns
        assert render_point_table(spans[-1:]) == "(no measured points)"

    def test_summary_sections(self):
        metrics = {
            "counters": {
                "poly.memo.hit": 2,
                "sweep.cache.hit": 3,
                "sweep.cache.miss": 1,
                "sweep.cache.corrupt": 1,
                "poly.fm.eliminations": 7,
            },
        }
        text = render_summary(_spans(), metrics)
        assert "== polyhedral analysis ==" in text
        assert "poly-memo hit rate: 100.0%" in text
        assert "disk-cache hit rate: 75.0%" in text
        assert "WARNING: 1 corrupt cache entries discarded" in text
        assert "poly.fm.eliminations" in text

    def test_write_run_artifacts(self, tmp_path):
        telemetry.enable()
        with telemetry.span("z"):
            telemetry.counter("sweep.cache.miss")
        written = telemetry.write_run(tmp_path)
        assert sorted(written) == [
            "metrics.json",
            "summary.txt",
            "trace.jsonl",
            "trace_chrome.json",
        ]
        for path in written.values():
            assert path.exists()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics == {"counters": {"sweep.cache.miss": 1}}  # time is in the spans
