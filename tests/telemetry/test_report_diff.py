"""telemetry_report: self time per span path, and regression flagging."""

from __future__ import annotations

import json

from repro.experiments.telemetry_report import (
    DiffRow,
    Run,
    diff_runs,
    load_run,
    main,
    regressions,
    render,
)
from repro.telemetry.export import write_jsonl
from repro.telemetry.spans import Span

STAGES = ("regfilter", "l1l2")
RUN_PATH = "sweep.point/machine.measure_streaming/exec.run"


def _point(produce=1.0, stages=None, branch=0.05, pass_s=0.5):
    """The spans of one measured point plus one pipeline pass: *produce*
    is exec.run's self time, *stages* the memory stages' seconds."""
    stages = {stage: 0.1 for stage in STAGES} | dict(stages or {})
    sinks = [(f"machine.memory.{stage}", s) for stage, s in stages.items()]
    sinks.append(("machine.branch", branch))
    run_s = produce + sum(s for _, s in sinks)

    def span(name, sid, parent, duration):
        return Span(name, 0.0, duration, span_id=sid, parent_id=parent, pid=1, tid=1)

    spans = [
        span("pipeline.recipe", 1, None, pass_s),
        span("pipeline.pass", 2, 1, pass_s),
        span("sweep.point", 3, None, run_s + 0.2),
        span("machine.measure_streaming", 4, 3, run_s + 0.1),
        span("exec.run", 5, 4, run_s),
    ]
    spans += [span(name, 6 + k, 5, s) for k, (name, s) in enumerate(sinks)]
    return spans


def _run(counters=(), **point):
    return Run(_point(**point), dict(counters))


CACHE = [("sweep.cache.hit", 8), ("sweep.cache.miss", 2)]
BASE = _run(counters=CACHE + [("sweep.memo.hit", 4)])


def _flagged(base, new):
    return [r.name for r in regressions(diff_runs(base, new))]


class TestDiff:
    def test_no_change_is_clean(self):
        rows = diff_runs(BASE, BASE)
        assert regressions(rows) == []
        assert "No regressions flagged." in render(rows, "a", "b")

    def test_time_regression_flagged(self):
        new = _run(counters=CACHE, pass_s=0.75)
        flagged = regressions(diff_runs(BASE, new))
        assert [r.name for r in flagged] == ["pipeline.recipe/pipeline.pass"]
        assert "1.50x" in flagged[0].note

    def test_slower_stage_flags_its_path_alone(self):
        """Only L1/L2 slows: its enclosing spans' totals grow too, but
        their self times do not, so the stage's path is the one flag."""
        new = _run(counters=CACHE, stages={"l1l2": 0.3})
        assert _flagged(BASE, new) == [f"{RUN_PATH}/machine.memory.l1l2"]

    def test_slower_production_flags_exec_run_alone(self):
        new = _run(counters=CACHE, produce=1.5)
        assert _flagged(BASE, new) == [RUN_PATH]

    def test_tiny_absolute_deltas_are_noise(self):
        base = _run(stages={"l1l2": 1e-4})
        new = _run(stages={"l1l2": 5e-4})  # 5x but sub-ms
        assert regressions(diff_runs(base, new)) == []

    def test_gone_and_new_paths_are_not_flagged(self):
        new = Run([s for s in BASE.spans if s.name != "machine.branch"], BASE.counters)
        rows = {r.name: r for r in diff_runs(BASE, new)}
        assert rows[f"{RUN_PATH}/machine.branch"].note == "gone"
        assert _flagged(BASE, new) == []
        back = {r.name: r for r in diff_runs(new, BASE)}
        assert back[f"{RUN_PATH}/machine.branch"].note == "new"

    def test_hit_rate_drop_flagged(self):
        new = _run(counters=[("sweep.cache.hit", 2), ("sweep.cache.miss", 8)])
        assert "sweep.cache hit rate" in _flagged(BASE, new)

    def test_corrupt_entries_flagged_on_increase(self):
        new = _run(counters=CACHE + [("sweep.cache.corrupt", 1)])
        assert _flagged(BASE, new) == ["sweep.cache.corrupt"]

    def test_other_counters_informational(self):
        rows = diff_runs(BASE, BASE)
        memo = [r for r in rows if r.name == "sweep.memo.hit"]
        assert memo and memo[0].section == "counter" and not memo[0].flagged


class TestMain:
    def test_end_to_end_from_directories(self, tmp_path):
        for name in ("base", "new"):
            d = tmp_path / name
            d.mkdir()
            write_jsonl(BASE.spans, d / "trace.jsonl")
            (d / "metrics.json").write_text(json.dumps({"counters": BASE.counters}))
        out = main(str(tmp_path / "base"), str(tmp_path / "new"))
        assert "Telemetry diff" in out
        assert "No regressions flagged." in out
        assert load_run(tmp_path / "base") == BASE

    def test_render_includes_flag_column(self):
        rows = [DiffRow("time", "span.x", 1.0, 2.0, True, "2.00x")]
        out = render(rows, "a", "b")
        assert "REGRESSION" in out
        assert "1 regression(s) flagged: span.x" in out
