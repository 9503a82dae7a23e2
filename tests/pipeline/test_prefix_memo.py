"""The manager's memo of built pass prefixes: a shared build equals a
cold one, keys tell pass classes apart, a build runs only the passes
after its longest built prefix and marks the records it reused, and no
build writes onto the registry's shared pass instances."""

from dataclasses import fields, replace

import pytest

from repro import telemetry
from repro.kernels.recipes import build_variant, get_recipe, registry_build_matrix
from repro.kernels.registry import ALL_KERNELS, get_kernel, variants_for
from repro.pipeline import Pass, PassContext, PassManager, Source, VariantRecipe
from repro.pipeline import manager
from repro.pipeline.recipe import program_fingerprint


@pytest.fixture(autouse=True)
def _cold_memo():
    manager.clear_memo()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _build(kernel, variant, tile=None):
    ctx = PassContext(kernel=get_kernel(kernel), tile=tile)
    return PassManager().build(get_recipe(kernel, variant), ctx)


def _evidence(report):
    return [replace(r, seconds=0.0, reused=False) for r in report.records]


def test_shared_builds_equal_cold_builds():
    matrix = registry_build_matrix()
    shared = [_build(*point) for point in matrix]
    for point, (program, report) in zip(matrix, shared):
        manager.clear_memo()
        cold_program, cold_report = _build(*point)
        assert program_fingerprint(program) == program_fingerprint(cold_program), point
        assert _evidence(report) == _evidence(cold_report), point


class _Keep(Pass):
    def describe(self):
        return {"pass": "Same"}

    def apply(self, value, ctx):
        return value


class _DropLast(Pass):
    def describe(self):
        return {"pass": "Same"}

    def apply(self, value, ctx):
        return value.with_body(value.body[:-1])


def test_pass_classes_with_equal_descriptions_do_not_collide():
    ctx = PassContext(kernel=get_kernel("cholesky"))
    keep, _ = PassManager().build(
        VariantRecipe("cholesky", "keep", (Source(), _Keep())), ctx
    )
    drop, _ = PassManager().build(
        VariantRecipe("cholesky", "drop", (Source(), _DropLast())), ctx
    )
    assert len(drop.body) == len(keep.body) - 1


def test_a_new_tile_edge_runs_only_the_passes_after_the_tile():
    _build("lu", "tiled", tile=16)
    telemetry.enable()
    program, report = _build("lu", "tiled", tile=32)
    passes = [s.attrs["pass"] for s in telemetry.spans() if s.name == "pipeline.pass"]
    assert passes == ["Tile", "UndoSinking"]
    [recipe_span] = [s for s in telemetry.spans() if s.name == "pipeline.recipe"]
    assert recipe_span.attrs["reused"] == 4
    assert sum(r.reused for r in report.records) == 4
    assert [r.name for r in report.records] == [
        p.name for p in get_recipe("lu", "tiled").passes
    ]
    # The default tile binds to the same edge as an explicit 8.
    telemetry.reset()
    _build("lu", "tiled", tile=8)
    _build("lu", "tiled")
    assert [s.name for s in telemetry.spans()].count("pipeline.recipe") == 1


def test_a_build_changes_no_pass():
    # The registry shares pass instances between recipes (FixDeps between
    # fixed, tiled_sunk and tiled): a build must leave each as it was.
    # Each pass holds exactly its fields, and the same objects as before,
    # whatever earlier builds in this process did.
    passes = [p for k in ALL_KERNELS for v in variants_for(k) for p in get_recipe(k, v).passes]
    before = [dict(vars(p)) for p in passes]
    for kernel, variant, tile in registry_build_matrix():
        build_variant(kernel, variant, tile=tile)
    for p, was in zip(passes, before):
        assert vars(p).keys() == {f.name for f in fields(p)}, p
        assert all(vars(p)[k] is v for k, v in was.items()), p
