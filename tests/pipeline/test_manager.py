"""PassManager evidence records, and boundary verification by execution
(``tests/pipeline/verify.py``): the break/restore state machine and the
miscompile negative test."""

import pytest

from repro.errors import TransformError, ValidationError
from repro.kernels.recipes import get_recipe
from repro.kernels.registry import get_kernel
from repro.pipeline import (
    BREAK,
    PRESERVE,
    Pass,
    PassContext,
    PassManager,
    VariantRecipe,
    ir_stats,
    manager,
)
from tests.pipeline.verify import verify_recipe


class DropLastStatement(Pass):
    """Intentionally miscompiling pass: claims PRESERVE, changes behaviour."""

    semantics = PRESERVE

    def describe(self):
        return {"pass": self.name}

    def apply(self, value, ctx):
        return value.with_body(value.body[:-1])


def _sabotaged(kernel, variant):
    recipe = get_recipe(kernel, variant)
    return VariantRecipe(
        kernel, f"{variant}+sabotage", (*recipe.passes, DropLastStatement())
    )


def test_verify_catches_miscompiled_pass():
    """Acceptance: an intentionally-miscompiled pass is caught at its own
    boundary."""
    recipe = _sabotaged("cholesky", "seq")
    ctx = PassContext(kernel=get_kernel("cholesky"))
    with pytest.raises(ValidationError, match="pass DropLastStatement"):
        verify_recipe(recipe, ctx)
    # the unsabotaged prefix verifies; PassManager builds the broken program
    assert verify_recipe(get_recipe("cholesky", "seq"), ctx) == []
    program, _ = PassManager().build(recipe, ctx)
    assert program.name == "cholesky_seq"


def test_break_boundary_skips_equivalence_but_still_crosschecks():
    """The fused (semantics-broken) boundary must not be compared against
    the source program — fusion breaks semantics on purpose — but both
    engines must still agree on it."""
    recipe = get_recipe("jacobi", "fixed")
    ctx = PassContext(kernel=get_kernel("jacobi"))
    assert [p.name for p in recipe.passes] == ["Source", "Fuse", "FixDeps", "Scalarize"]
    assert verify_recipe(recipe, ctx) == []


def test_report_records_timing_and_sizes():
    recipe = get_recipe("lu", "tiled")
    ctx = PassContext(kernel=get_kernel("lu"), tile=3)
    program, report = PassManager().build(recipe, ctx)
    assert len(report.records) == len(recipe.passes)
    assert all(r.seconds >= 0 for r in report.records)
    assert report.records[-1].after == ir_stats(program)
    rows = report.as_rows()
    assert rows[0]["recipe"] == "lu/tiled"
    assert {"pass", "seconds", "stmts_after"} <= set(rows[0])
    rendered = report.render()
    assert "lu/tiled" in rendered and "ms total" in rendered


def test_reused_records_are_marked_and_not_timed():
    manager.clear_memo()
    ctx = PassContext(kernel=get_kernel("lu"))
    PassManager().build(get_recipe("lu", "fixed"), ctx)
    _, report = PassManager().build(get_recipe("lu", "tiled"), ctx)
    assert [r.reused for r in report.records] == [True] * 3 + [False] * 3
    assert report.total_seconds == sum(r.seconds for r in report.records[3:])
    rows = report.as_rows()
    assert [row["reused"] for row in rows] == [r.reused for r in report.records]
    assert [row["seconds"] for row in rows[:3]] == [0.0] * 3
    lines = report.render().splitlines()[3:]
    assert [line.split()[1] == "reused" for line in lines] == [True] * 3 + [False] * 3
    assert f"({report.total_seconds * 1e3:.1f} ms total)" in report.render()


def test_fixdeps_detail_reports_collapses():
    recipe = get_recipe("lu", "fixed")
    ctx = PassContext(kernel=get_kernel("lu"))
    _, report = PassManager().build(recipe, ctx)
    fixdeps = next(r for r in report.records if r.name == "FixDeps")
    assert "collapsed" in fixdeps.detail


def test_empty_recipe_rejected():
    with pytest.raises(TransformError, match="no passes"):
        PassManager().run(VariantRecipe("lu", "empty", ()))


def test_verify_needs_instance():
    class MakeNothing(Pass):
        semantics = BREAK

        def apply(self, value, ctx):
            return get_kernel("cholesky").sequential()

    recipe = VariantRecipe("x", "y", (MakeNothing(),))
    with pytest.raises(TransformError, match="kernel module"):
        verify_recipe(recipe, PassContext())
