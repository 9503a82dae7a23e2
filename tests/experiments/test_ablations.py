"""Ablation studies measure recipes through the runner: their points are
``sweep.point`` spans and come back from the disk cache like any other."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.experiments import ablations, runner
from repro.experiments.sweep import SweepConfig
from repro.machine.configs import octane2_scaled
from repro.pipeline.recipe import program_fingerprint


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    runner.clear_caches()
    yield
    telemetry.disable()
    telemetry.reset()
    runner.clear_caches()


def _config() -> SweepConfig:
    return SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2, tile_policy="pdat"
    )


def _points() -> list[tuple[str, str]]:
    return [
        (s.attrs["variant"], s.attrs["source"])
        for s in telemetry.spans()
        if s.name == "sweep.point"
    ]


def _study_output(config: SweepConfig) -> str:
    return "\n\n".join(
        [
            ablations.render_skew(ablations.skew_rows(config)),
            ablations.render_copy_widen(ablations.copy_widen_rows(config)),
        ]
    )


def test_local_recipes_are_sweep_points_served_from_disk(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    config = _config()
    telemetry.enable()
    cold = _study_output(config)
    points = _points()
    assert ("space_tiled", "computed") in points
    assert ("exact", "computed") in points
    assert ("widened", "computed") in points

    runner.clear_caches()
    telemetry.reset()
    assert _study_output(config) == cold
    assert {source for _, source in _points()} == {"disk"}
    assert ("space_tiled", "disk") in _points()
    assert not [s for s in telemetry.spans() if s.name == "machine.measure_streaming"]


def test_local_recipes_bind_the_sweep_tile_only_when_tiled():
    config = _config()
    space = runner.measure_recipe(ablations.JACOBI_SPACE_TILED, 12, config)
    assert space.tile == config.tile_for(12)
    widened, exact = (runner.measure_recipe(r, 12, config) for r in ablations.JACOBI_COPIES)
    assert widened.tile is None and exact.tile is None
    assert widened.report.branches_resolved < exact.report.branches_resolved


def test_build_memo_follows_recipe_content():
    """Two recipes under one name but with different passes never share
    a build."""
    from dataclasses import replace

    exact = ablations.JACOBI_COPIES[1]
    renamed = replace(ablations.JACOBI_COPIES[0], variant="exact")
    a = runner.measure_recipe(exact, 12, _config())
    b = runner.measure_recipe(renamed, 12, _config())
    assert a.report != b.report
    programs = [runner._build(r, None)[0] for r in (exact, renamed)]
    assert program_fingerprint(programs[0]) != program_fingerprint(programs[1])
