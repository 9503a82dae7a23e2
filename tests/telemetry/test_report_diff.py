"""telemetry_report: metric diffing and regression flagging."""

from __future__ import annotations

import json

from repro.experiments.telemetry_report import (
    DiffRow,
    diff_metrics,
    load_metrics,
    main,
    regressions,
    render,
)


def _metrics(span_totals=(), counters=()):
    return {
        "counters": dict(counters),
        "gauges": {},
        "histograms": {
            name: {"count": 1, "total": total, "min": total, "max": total, "buckets": {}}
            for name, total in span_totals
        },
    }


BASE = _metrics(
    span_totals=[("span.exec.run", 1.0), ("span.pipeline.pass", 0.5)],
    counters=[
        ("sweep.cache.hit", 8),
        ("sweep.cache.miss", 2),
        ("sweep.memo.hit", 4),
    ],
)


class TestDiff:
    def test_no_change_is_clean(self):
        rows = diff_metrics(BASE, BASE)
        assert regressions(rows) == []
        assert "No regressions flagged." in render(rows, "a", "b")

    def test_time_regression_flagged(self):
        new = _metrics(
            span_totals=[("span.exec.run", 1.5), ("span.pipeline.pass", 0.5)],
            counters=[("sweep.cache.hit", 8), ("sweep.cache.miss", 2)],
        )
        flagged = regressions(diff_metrics(BASE, new))
        assert [r.name for r in flagged] == ["span.exec.run"]
        assert "1.50x" in flagged[0].note

    def test_tiny_absolute_deltas_are_noise(self):
        base = _metrics(span_totals=[("span.exec.run", 1e-4)])
        new = _metrics(span_totals=[("span.exec.run", 5e-4)])  # 5x but sub-ms
        assert regressions(diff_metrics(base, new)) == []

    def test_hit_rate_drop_flagged(self):
        new = _metrics(
            span_totals=[("span.exec.run", 1.0), ("span.pipeline.pass", 0.5)],
            counters=[("sweep.cache.hit", 2), ("sweep.cache.miss", 8)],
        )
        names = [r.name for r in regressions(diff_metrics(BASE, new))]
        assert "sweep.cache hit rate" in names

    def test_corrupt_entries_flagged_on_increase(self):
        new = _metrics(
            span_totals=[("span.exec.run", 1.0), ("span.pipeline.pass", 0.5)],
            counters=[
                ("sweep.cache.hit", 8),
                ("sweep.cache.miss", 2),
                ("sweep.cache.corrupt", 1),
            ],
        )
        names = [r.name for r in regressions(diff_metrics(BASE, new))]
        assert names == ["sweep.cache.corrupt"]

    def test_other_counters_informational(self):
        rows = diff_metrics(BASE, BASE)
        memo = [r for r in rows if r.name == "sweep.memo.hit"]
        assert memo and memo[0].section == "counter" and not memo[0].flagged


class TestMain:
    def test_end_to_end_from_directories(self, tmp_path):
        for name, metrics in (("base", BASE), ("new", BASE)):
            d = tmp_path / name
            d.mkdir()
            (d / "metrics.json").write_text(json.dumps(metrics))
        out = main(str(tmp_path / "base"), str(tmp_path / "new"))
        assert "Telemetry diff" in out
        assert "No regressions flagged." in out
        assert load_metrics(tmp_path / "base") == BASE

    def test_render_includes_flag_column(self):
        rows = [DiffRow("time", "span.x", 1.0, 2.0, True, "2.00x")]
        out = render(rows, "a", "b")
        assert "REGRESSION" in out
        assert "1 regression(s) flagged: span.x" in out
