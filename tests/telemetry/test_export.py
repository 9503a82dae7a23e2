"""Exporters: JSONL round-trip, Chrome trace shape, text summaries."""

from __future__ import annotations

import json

from repro import telemetry
from repro.telemetry.export import (
    chrome_trace,
    read_jsonl,
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

    def test_empty_tree(self):
        assert render_tree([]) == "(no spans recorded)"

    def test_summary_sections(self):
        metrics = {
            "counters": {
                "poly.memo.hit": 2,
                "sweep.cache.hit": 3,
                "sweep.cache.miss": 1,
                "sweep.cache.corrupt": 1,
                "machine.sink.memory.chunks": 7,
            },
            "gauges": {"peak": 5.0},
            "histograms": {},
        }
        text = render_summary(_spans(), metrics)
        assert "== polyhedral analysis ==" in text
        assert "poly-memo hit rate: 100.0%" in text
        assert "disk-cache hit rate: 75.0%" in text
        assert "WARNING: 1 corrupt cache entries discarded" in text
        assert "machine.sink.memory.chunks" in text
        assert "== gauges ==" in text

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
        assert metrics["counters"]["sweep.cache.miss"] == 1
        assert "span.z" in metrics["histograms"]
