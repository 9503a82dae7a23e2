"""Ablation studies measure recipes through the runner: their points are
``sweep.point`` spans and come back from the disk cache like any other.
Their claims are pure functions of the rows, checked on hand-made rows."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import telemetry
from repro.experiments import ablations, claims, runner
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
    exact = ablations.JACOBI_COPIES[1]
    renamed = replace(ablations.JACOBI_COPIES[0], variant="exact")
    a = runner.measure_recipe(exact, 12, _config())
    b = runner.measure_recipe(renamed, 12, _config())
    assert a.report != b.report
    programs = [runner._build(r, None)[0] for r in (exact, renamed)]
    assert program_fingerprint(programs[0]) != program_fingerprint(programs[1])


# The claim checks on hand-made rows (the full sweep's numbers): every
# claim holds as measured, and each perturbation FAILS exactly one.

FILL = 64
ROWS = {
    "tile_policy": [ablations.TilePolicyRow(120, 2.651, 2.791, 2.019, 2.791),
                    ablations.TilePolicyRow(184, 2.817, 2.835, 2.144, 2.835)],
    "skew": [ablations.SkewRow(24, 1.154, 1.288), ablations.SkewRow(88, 4.653, 1.874),
             ablations.SkewRow(184, 3.662, 1.883)],
    "copy_widen": [ablations.CopyWidenRow("widened", 24, 222455, 0, 140320.0),
                   ablations.CopyWidenRow("exact", 24, 288807, 12584, 158588.0)],
    "associativity": [ablations.AssociativityRow(1, 56, 8805, 5754, 224, 224, 1.141),
                      ablations.AssociativityRow(4, 56, 7814, 6091, 224, 224, 1.078)],
    "writeback": [ablations.WritebackRow(88, 5361, 859, 5361, 859),
                  ablations.WritebackRow(120, 30089, 3453, 30089, 3453)],
    "undo_sinking": [ablations.UndoSinkingRow("lu", 1.702, 2.846, 2.601),
                     ablations.UndoSinkingRow("jacobi", 3.662, 3.662, 1.0)],
    "ipc": ablations.IpcRow(184, 2.817, 1.77),
}


def _check(**change) -> list:
    return ablations.check(**{**ROWS, **change}, fill=FILL)


def _last(study: str, **change) -> list:
    rows = ROWS[study]
    return [*rows[:-1], replace(rows[-1], **change)]


def test_claims_hold_on_the_measured_rows():
    checked = _check()
    assert len(checked) == 7 and all(c.verdict == "holds" for c in checked)
    assert "7 of 7 claims hold" in claims.render(checked, ablations.TITLE, place="study")


@pytest.mark.parametrize(
    "change,study",
    [
        ({"tile_policy": _last("tile_policy", lrw=3.6)}, "tile policy"),
        ({"tile_policy": []}, "tile policy"),
        ({"skew": _last("skew", space_only=3.7)}, "skew"),
        ({"skew": ROWS["skew"][:1]}, "skew"),  # no N past the fill
        ({"copy_widen": _last("copy_widen", branches=0)}, "copy widening"),
        ({"copy_widen": [replace(ROWS["copy_widen"][0], branches=1),
                         ROWS["copy_widen"][1]]}, "copy widening"),
        ({"associativity": _last("associativity", tiled_l1=7814)}, "associativity"),
        ({"associativity": _last("associativity", tiled_l2=225)}, "associativity"),
        ({"writeback": _last("writeback", tiled_lines=30089)}, "write-back"),
        ({"writeback": _last("writeback", tiled_misses=30089)}, "write-back"),
        ({"writeback": []}, "write-back"),
        ({"undo_sinking": _last("undo_sinking", clean_speedup=3.6)}, "undo sinking"),
        ({"undo_sinking": _last("undo_sinking", instr_ratio=0.99)}, "undo sinking"),
        ({"ipc": replace(ROWS["ipc"], scalar=2.9)}, "IPC (Cholesky, N = 184)"),
        ({"ipc": replace(ROWS["ipc"], four_wide=0.9, scalar=0.8)},
         "IPC (Cholesky, N = 184)"),
    ],
)
def test_each_claim_fails_on_its_own_rows(change, study):
    checked = _check(**change)
    assert [c.place for c in checked if c.verdict == "FAILS"] == [study]


def test_ablations_target_exits_on_fails(monkeypatch, capsys):
    from repro.experiments.__main__ import main

    failing = _check(writeback=[])
    monkeypatch.setattr(ablations, "main", lambda config=None: ("tables", failing))
    assert main(["ablations"]) == 1
    assert "tables" in capsys.readouterr().out
    monkeypatch.setattr(ablations, "main", lambda config=None: ("tables", _check()))
    assert main(["ablations"]) == 0
