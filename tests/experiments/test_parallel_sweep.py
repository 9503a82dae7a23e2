"""Parallel sweep orchestration: worker pools, shared disk cache, atomic
writes, and byte-identical figure output regardless of ``REPRO_JOBS``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ExecutionError, ReproError
from repro.experiments import figure5, runner
from repro.experiments.sweep import default_config, resolve_jobs


def _config(sizes=(8,)):
    return replace(default_config(quick=True), sizes=tuple(sizes))


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


class TestAtomicDiskCache:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    @pytest.fixture
    def report(self):
        runner.clear_caches()
        return runner.measure_variant("cholesky", "seq", 8, _config()).report

    def test_store_load_roundtrip(self, cache_dir, report):
        runner._store_cached("k1", report)
        assert runner._load_cached("k1") == report
        # The temp file must not survive the rename.
        assert (cache_dir / "k1.json").exists()
        assert not list(cache_dir.glob("*.tmp"))

    def test_load_tolerates_truncated_json(self, cache_dir):
        (cache_dir / "k2.json").write_text('{"total_cycles": 1')
        assert runner._load_cached("k2") is None

    def test_load_tolerates_oserror(self, cache_dir):
        # A directory where the file should be: read_text raises
        # IsADirectoryError (an OSError), which must mean "not cached",
        # not a crashed sweep.
        (cache_dir / "k3.json").mkdir()
        assert runner._load_cached("k3") is None

    def test_load_tolerates_wrong_schema(self, cache_dir):
        (cache_dir / "k4.json").write_text('{"no_such_field": 1}')
        assert runner._load_cached("k4") is None


class TestMeasurePoints:
    POINTS = [
        ("cholesky", "seq", 8),
        ("cholesky", "tiled", 8),
        ("lu", "seq", 8),
    ]

    def test_parallel_equals_serial(self):
        runner.clear_caches()
        serial = runner.measure_points(self.POINTS, _config(), jobs=1)
        runner.clear_caches()
        parallel = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert [m.report for m in parallel] == [m.report for m in serial]
        assert [(m.kernel, m.variant, m.n) for m in parallel] == self.POINTS

    def test_parallel_seeds_parent_memo(self):
        """After a parallel run the serial assembly path answers from the
        in-process memo even with the disk cache disabled (conftest sets
        REPRO_NO_CACHE=1)."""
        runner.clear_caches()
        [m] = runner.measure_points([("lu", "seq", 8)], _config(), jobs=2)
        again = runner.measure_variant("lu", "seq", 8, _config())
        assert again is m  # identity: memo hit, not a recomputation

    def test_worker_failure_names_the_point(self, monkeypatch):
        # QR's unfixed fusion divides by a not-yet-computed pivot, so its
        # point raises inside a worker process; the error must say which.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner.clear_caches()
        points = [("cholesky", "seq", 8), ("qr", "fused", 8)]
        with pytest.raises(ReproError, match=r"kernel=qr, variant=fused, N=8") as info:
            runner.measure_points(points, _config(), jobs=2)
        assert isinstance(info.value.__cause__, ExecutionError)

    def test_workers_hit_cache_written_before(self, tmp_path, monkeypatch):
        """A 2-job sweep serves points already in the shared disk cache:
        a sentinel report planted under the point's key comes back from
        the pool verbatim, proving workers read (not recompute) it."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        real = runner.measure_variant("cholesky", "seq", 8, config)
        sentinel = replace(real.report, total_cycles=12345.0)
        program, _, recipe = runner.build_program("cholesky", "seq")
        key = runner._point_key("cholesky", "seq", 8, config, None, program, recipe)
        runner._store_cached(key, sentinel)
        runner.clear_caches()  # workers must go to disk, not inherit memos
        results = runner.measure_points(
            [("cholesky", "seq", 8), ("lu", "seq", 8)], config, jobs=2
        )
        assert results[0].report.total_cycles == 12345.0
        assert results[1].report.total_cycles > 0

    def test_disk_cache_survives_for_serial_reader(self, tmp_path, monkeypatch):
        """Reports written by pool workers are readable by a later process
        with cold memos — recomputation is impossible here because the
        measurement entry points are stubbed to raise."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        runner.measure_points(
            [("cholesky", "seq", 8), ("lu", "seq", 8)], config, jobs=2
        )
        assert list(tmp_path.glob("*.json"))
        runner.clear_caches()

        def boom(*a, **k):
            raise AssertionError("should have been served from disk cache")

        monkeypatch.setattr(runner, "measure_streaming", boom)
        m = runner.measure_variant("cholesky", "seq", 8, config)
        assert m.report.total_cycles > 0


def test_figure5_rows_identical_across_jobs(monkeypatch):
    """`REPRO_JOBS` is a wall-clock knob only: figure rows are equal."""
    config = _config(sizes=(12,))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    runner.clear_caches()
    serial = figure5.generate(config)
    runner.clear_caches()
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = figure5.generate(config)
    assert parallel == serial
