"""Layer instrumentation: pipeline, executor, machine, sweep — and the
acceptance contracts (bit-identical results, merged parallel traces)."""

from __future__ import annotations

import json
from dataclasses import replace

from repro import telemetry
from repro.exec.compiled import CompiledProgram
from repro.experiments import runner
from repro.experiments.sweep import default_config
from repro.ir.builder import assign, idx, loop, sym
from repro.kernels.registry import get_recipe
from repro.ir.program import ArrayDecl, Program
from repro.machine.perfcounters import PerfReport
from repro.pipeline import recipe as recipe_mod


def _config(sizes=(8,)):
    return replace(default_config(quick=True), sizes=tuple(sizes))


def _flat_program(body):
    return Program("t", ("N",), (ArrayDecl("A", (sym("N"),)),), (), tuple(body))


STAGES = ("regfilter", "l1l2")


def _spans(name):
    return [s for s in telemetry.spans() if s.name == name]


class TestBitIdentical:
    def test_reports_identical_enabled_vs_disabled(self):
        """Telemetry must be a pure observer: same PerfReport."""
        runner.clear_caches()
        baseline = runner.measure_variant("cholesky", "seq", 8, _config()).report
        runner.clear_caches()
        telemetry.enable()
        instrumented = runner.measure_variant("cholesky", "seq", 8, _config()).report
        assert instrumented == baseline

    def test_compiled_source_is_identical(self):
        """The executor's generated code must not depend on telemetry
        state."""
        i = sym("i")
        p = _flat_program(
            [loop("i", 2, sym("N"), [assign(idx("A", i), idx("A", i - 1) + 1.0)])]
        )
        off = CompiledProgram(p, trace=True)
        telemetry.enable()
        on = CompiledProgram(p, trace=True)
        assert on.source == off.source


class TestPipelineAndMachineSpans:
    def test_pass_spans_carry_ir_stats(self):
        telemetry.enable()
        runner.clear_caches()
        runner.build_program("cholesky", "tiled", tile=4)
        [recipe_span] = _spans("pipeline.recipe")
        pass_spans = _spans("pipeline.pass")
        assert len(pass_spans) >= 2
        for s in pass_spans:
            assert s.parent_id == recipe_span.span_id
            assert s.attrs["stmts_after"] > 0
            assert "pass" in s.attrs

    def test_streaming_sink_spans_and_counters(self):
        telemetry.enable()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, _config())
        [point] = _spans("sweep.point")
        assert point.attrs["source"] == "computed"
        [ms] = _spans("machine.measure_streaming")
        assert ms.parent_id == point.span_id
        [run] = _spans("exec.run")
        assert run.parent_id == ms.span_id
        stages = [f"machine.memory.{stage}" for stage in STAGES] + ["machine.branch"]
        for name in stages:
            [s] = _spans(name)
            # The sinks are fed inside exec.run: its self time is
            # production alone.
            assert s.parent_id == run.span_id
            assert s.attrs["chunks"] >= 1 and s.attrs["events"] >= 1
        assert sum(s.duration for s in telemetry.spans() if s.name in stages) <= run.duration
        # The event counts live on the spans alone.
        assert not [k for k in telemetry.snapshot()["counters"] if k.startswith("machine.")]

    def test_unfed_sink_records_no_span(self):
        # Sequential Cholesky has no guards, so its branch sink is never fed.
        telemetry.enable()
        runner.clear_caches()
        runner.measure_variant("cholesky", "seq", 8, _config())
        assert len(_spans("machine.memory.regfilter")) == 1
        assert _spans("machine.branch") == []

    def test_memory_stage_spans_and_counters(self):
        telemetry.enable()
        runner.clear_caches()
        report = runner.measure_variant("lu", "tiled", 8, _config()).report
        [run] = _spans("exec.run")
        events = {}
        for stage in STAGES:
            [s] = _spans(f"machine.memory.{stage}")
            assert s.parent_id == run.span_id
            assert s.duration <= run.duration
            events[stage] = s.attrs["events"]
        # Only the loads the register window did not elide reach L1.
        assert events["l1l2"] == report.accesses
        assert events["regfilter"] - events["l1l2"] == report.register_load_hits
        # Every stage sees every chunk.
        assert len({_spans(f"machine.memory.{stage}")[0].attrs["chunks"] for stage in STAGES}) == 1
        # The trace is addresses: the register filter is the first stage.
        memory = {s.name for s in telemetry.spans() if s.name.startswith("machine.memory.")}
        assert memory == {f"machine.memory.{stage}" for stage in STAGES}


class TestSweepCounters:
    def test_memo_hit_skips_point_span(self):
        telemetry.enable()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, _config())
        runner.measure_variant("lu", "seq", 8, _config())
        assert len(_spans("sweep.point")) == 1
        assert telemetry.counter_value("sweep.memo.hit") == 1
        assert telemetry.counter_value("sweep.cache.miss") == 1

    def test_corrupt_cache_entry_counted_and_logged(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "bad.json").write_text('{"total_cycles": 1')
        telemetry.enable()
        with caplog.at_level("WARNING", logger="repro.sweep"):
            assert runner._load_cached("bad") is None
        assert telemetry.counter_value("sweep.cache.corrupt") == 1
        assert "discarding unreadable entry" in caplog.text

    def test_unwritable_cache_dir_keeps_report(
        self, tmp_path, monkeypatch, caplog
    ):
        """A cache dir that is a regular file fails every write: the point
        is still measured and returned, and the failure is counted and
        logged with its path."""
        config = _config()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner.clear_caches()
        cold = runner.measure_variant("lu", "seq", 8, config).report

        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(not_a_dir))
        runner.clear_caches()
        telemetry.enable()
        with caplog.at_level("WARNING", logger="repro.sweep"):
            report = runner.measure_variant("lu", "seq", 8, config).report
        assert report == cold
        assert telemetry.counter_value("sweep.cache.write_failed") == 1
        assert "cannot write entry" in caplog.text
        assert str(not_a_dir) in caplog.text
        assert not_a_dir.read_text() == ""

    def test_disk_hit_tagged_on_span(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, config)  # populates disk
        runner.clear_caches()
        telemetry.enable()
        runner.measure_variant("lu", "seq", 8, config)
        [point] = _spans("sweep.point")
        assert point.attrs["source"] == "disk"
        assert telemetry.counter_value("sweep.cache.hit") == 1

    def test_inputs_span_only_on_computed_points(self, tmp_path, monkeypatch):
        """Input generation (QR's np.linalg.qr) has its own span under a
        computed point; a disk hit generates no inputs."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        telemetry.enable()
        runner.measure_variant("qr", "seq", 8, config)
        [point] = _spans("sweep.point")
        [inputs] = _spans("sweep.inputs")
        assert point.attrs["source"] == "computed"
        assert inputs.parent_id == point.span_id
        assert inputs.attrs == {"kernel": "qr", "n": 8}
        telemetry.reset()
        runner.clear_caches()
        runner.measure_variant("qr", "seq", 8, config)
        assert _spans("sweep.point")[0].attrs["source"] == "disk"
        assert _spans("sweep.inputs") == []

    def test_torn_entry_recomputed_end_to_end(self, tmp_path, monkeypatch):
        """A truncated file at a point's real cache path is discarded,
        counted, recomputed to the cold answer and rewritten whole."""
        config = _config()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner.clear_caches()
        cold = runner.measure_variant("lu", "seq", 8, config).report

        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        recipe = get_recipe("lu", "seq")
        *_, key = runner._point(recipe, 8, config, None)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(cold.as_dict())[:40])
        runner.clear_caches()
        telemetry.enable()
        report = runner.measure_variant("lu", "seq", 8, config).report
        assert report == cold
        assert PerfReport(**json.loads(path.read_text())) == cold
        assert telemetry.counter_value("sweep.cache.corrupt") == 1

    def test_source_edit_invalidates_disk_entry(self, tmp_path, monkeypatch):
        """The key covers the implementation: after a (simulated) source
        edit the point is recomputed, and the old entry is never read."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        first = runner.measure_variant("lu", "seq", 8, config).report
        [old] = tmp_path.glob("lu-seq-N8-*.json")

        monkeypatch.setattr(recipe_mod, "implementation_digest", lambda: "edited")
        read_keys = []
        load = runner._load_cached

        def spy(key):
            read_keys.append(key)
            return load(key)

        monkeypatch.setattr(runner, "_load_cached", spy)
        runner.clear_caches()
        telemetry.enable()
        again = runner.measure_variant("lu", "seq", 8, config).report
        assert telemetry.counter_value("sweep.cache.miss") == 1
        assert telemetry.counter_value("sweep.cache.hit") == 0
        assert old.stem not in read_keys
        assert len(list(tmp_path.glob("lu-seq-N8-*.json"))) == 2
        assert again == first


class TestParallelSweepMerge:
    POINTS = [
        ("cholesky", "seq", 8),
        ("cholesky", "tiled", 8),
        ("lu", "seq", 8),
    ]

    def test_merged_trace_has_one_span_per_point(self):
        """Acceptance: with REPRO_JOBS>1 the parent holds a single merged
        trace whose sweep.point span count equals the measured points."""
        telemetry.enable()
        runner.clear_caches()
        results = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert len(results) == len(self.POINTS)
        points = _spans("sweep.point")
        assert len(points) == len(self.POINTS)
        assert {(s.attrs["kernel"], s.attrs["variant"]) for s in points} == {
            (k, v) for k, v, _ in self.POINTS
        }
        # Workers ran out-of-process; their spans keep the origin pid.
        import os

        assert all(s.pid != os.getpid() for s in points)
        # Metric snapshots merged additively across the pool.
        assert telemetry.counter_value("sweep.cache.miss") == len(self.POINTS)
        # Parent-side assembly answered from the seeded memo.
        assert telemetry.counter_value("sweep.memo.hit") == len(self.POINTS)

    def test_workers_inherit_the_native_core(self, monkeypatch):
        """The parent loads the C core before it forks the pool, so a
        parallel sweep under REPRO_NO_CACHE=1 (the test default) builds
        native.c once, in the parent, not once per worker."""
        import os

        from repro.machine import native

        monkeypatch.setattr(native, "_lib", None)
        telemetry.enable()
        runner.clear_caches()
        runner.measure_points(self.POINTS, _config(), jobs=2)
        builds = _spans("machine.native.build")
        assert [(s.pid, s.attrs["cached"]) for s in builds] == [(os.getpid(), False)]

    def test_merged_span_ids_are_unique(self):
        """A worker resets its telemetry per point; ids issued after a
        reset must not repeat earlier ones, or the merged tree links one
        point's spans under another point's."""
        telemetry.enable()
        runner.clear_caches()
        runner.measure_points(self.POINTS, _config(), jobs=2)
        spans = telemetry.spans()
        by_key = {(s.pid, s.span_id): s for s in spans}
        assert len(by_key) == len(spans)
        for run in _spans("exec.run"):
            assert by_key[run.pid, run.parent_id].name == "machine.measure_streaming"

    def test_parallel_results_unchanged_by_telemetry(self):
        runner.clear_caches()
        plain = runner.measure_points(self.POINTS, _config(), jobs=2)
        runner.clear_caches()
        telemetry.enable()
        traced = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert [m.report for m in traced] == [m.report for m in plain]
