"""Content fingerprints: stability, sensitivity, and the runner's
fingerprint-keyed disk cache."""

import dataclasses
import shutil
from pathlib import Path

from repro.experiments import clear_caches, measure_points
from repro.experiments.sweep import SweepConfig
from repro.kernels.recipes import build_variant, get_recipe
from repro.machine.configs import octane2_scaled
from repro.pipeline import (
    machine_fingerprint,
    measurement_fingerprint,
    program_fingerprint,
)
from repro.pipeline import recipe as recipe_mod


def test_measurement_key_tracks_the_implementation(monkeypatch):
    recipe = get_recipe("lu", "seq")
    program = build_variant("lu", "seq")
    key = measurement_fingerprint(recipe, program, octane2_scaled(), {"n": 8})
    monkeypatch.setattr(recipe_mod, "implementation_digest", lambda: "edited")
    assert measurement_fingerprint(recipe, program, octane2_scaled(), {"n": 8}) != key


def test_implementation_digest_covers_the_c_core(tmp_path):
    # An edit to the C replay loops changes the digest, as a .py edit does.
    package = Path(recipe_mod.__file__).resolve().parents[1]
    copy = tmp_path / "repro"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert recipe_mod.tree_digest(copy) == recipe_mod.implementation_digest()
    before = recipe_mod.tree_digest(copy)
    with (copy / "machine" / "native.c").open("a") as f:
        f.write("\n")
    assert recipe_mod.tree_digest(copy) != before


def test_recipe_fingerprint_is_stable():
    a = get_recipe("lu", "tiled").fingerprint()
    b = get_recipe("lu", "tiled").fingerprint()
    assert a == b
    assert get_recipe("lu", "tiled_sunk").fingerprint() != a


def test_program_fingerprint_tracks_tile():
    assert program_fingerprint(
        build_variant("cholesky", "tiled", tile=4)
    ) != program_fingerprint(build_variant("cholesky", "tiled", tile=8))


def test_machine_fingerprint_tracks_costs():
    machine = octane2_scaled()
    bumped = dataclasses.replace(
        machine,
        costs=dataclasses.replace(
            machine.costs, l2_miss_cycles=machine.costs.l2_miss_cycles + 1
        ),
    )
    assert machine_fingerprint(machine) != machine_fingerprint(bumped)
    # ... and the full measurement key follows
    recipe = get_recipe("cholesky", "seq")
    program = build_variant("cholesky", "seq")
    run = {"params": {"N": 12}, "tile": None, "seed": 0}
    assert measurement_fingerprint(
        recipe, program, machine, run
    ) != measurement_fingerprint(recipe, program, bumped, run)


def test_disk_cache_roundtrip_and_invalidation(tmp_path, monkeypatch):
    """A second identical run reads the fingerprint-keyed file; a cost
    model change auto-invalidates it (different filename, no stale read)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    config = SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2
    )
    first = measure_points([("cholesky", "seq", 12)], config)[0]
    files = list(tmp_path.glob("cholesky-seq-N12-*.json"))
    assert len(files) == 1

    clear_caches()
    again = measure_points([("cholesky", "seq", 12)], config)[0]
    assert again.report == first.report

    clear_caches()
    machine = config.machine
    bumped = dataclasses.replace(
        machine,
        costs=dataclasses.replace(
            machine.costs, l2_miss_cycles=machine.costs.l2_miss_cycles * 2
        ),
    )
    (changed,) = measure_points(
        [("cholesky", "seq", 12)], dataclasses.replace(config, machine=bumped)
    )
    # new key on disk, and the numbers actually moved
    assert len(list(tmp_path.glob("cholesky-seq-N12-*.json"))) == 2
    assert changed.report.total_cycles != first.report.total_cycles


def test_measurement_carries_pipeline_report(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    clear_caches()
    config = SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2
    )
    m = measure_points([("lu", "tiled", 12)], config)[0]
    assert m.pipeline is not None
    assert [r.name for r in m.pipeline.records] == [
        "Source", "Fuse", "FixDeps", "ExpandScalar", "Tile", "UndoSinking"
    ]
