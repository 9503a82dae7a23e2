"""``PassManager``: run a recipe and record per-pass evidence.

Running a :class:`~repro.pipeline.recipe.VariantRecipe` yields the final
program plus a :class:`PipelineReport`: per-pass wall time and IR-size
statistics. Each pass also declares its semantic effect (``preserve`` /
``break`` / ``restore``); the manager does not act on it. The tests check
those declarations by execution at every pass boundary
(``tests/pipeline/verify.py``).

Builds share work through one in-process memo keyed on **pass
prefixes**: the kernel plus each leading pass's type and bound
description (:meth:`~repro.pipeline.passes.Pass.bind`). A recipe resumes
after its longest built prefix, so ``fixed``, ``tiled_sunk`` and
``tiled`` run Source, Fuse and FixDeps once per kernel, and builds at
different tile edges share every pass before the ``Tile``. A resumed
build reuses the prefix's pass records, marked ``reused``: the report
shows no time for them and counts only the passes that ran.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from repro import telemetry
from repro.errors import TransformError
from repro.ir.program import Program
from repro.ir.stmt import If, Loop, Stmt
from repro.pipeline.passes import Pass, PassContext
from repro.pipeline.recipe import VariantRecipe
from repro.trans.model import FusedNest
from repro.utils.caching import LRUCache


@dataclass(frozen=True)
class IRStats:
    """Size of one IR value (program or fused nest)."""

    statements: int
    loops: int
    guards: int
    depth: int

    def __str__(self) -> str:
        return (
            f"{self.statements} stmts / {self.loops} loops / "
            f"{self.guards} guards / depth {self.depth}"
        )


def _stmt_stats(stmts, depth: int = 0) -> tuple[int, int, int, int]:
    statements = loops = guards = 0
    max_depth = depth
    for s in stmts:
        statements += 1
        if isinstance(s, Loop):
            loops += 1
            b = _stmt_stats(s.body, depth + 1)
            statements += b[0]
            loops += b[1]
            guards += b[2]
            max_depth = max(max_depth, b[3])
        elif isinstance(s, If):
            guards += 1
            for arm in (s.then, s.orelse):
                b = _stmt_stats(arm, depth)
                statements += b[0]
                loops += b[1]
                guards += b[2]
                max_depth = max(max_depth, b[3])
    return statements, loops, guards, max_depth


def ir_stats(value: Program | FusedNest) -> IRStats:
    """Size statistics of an IR value (cheap; no code emission)."""
    if isinstance(value, Program):
        return IRStats(*_stmt_stats(value.body))
    stmts: list[Stmt] = list(value.preamble) + list(value.epilogue)
    for group in value.groups:
        stmts.extend(group.prologue)
        stmts.extend(group.body)
    statements, loops, guards, depth = _stmt_stats(stmts)
    return IRStats(
        statements,
        loops,
        guards,
        depth + len(value.context) + len(value.fused_loops),
    )


@dataclass(frozen=True)
class PassRecord:
    """Evidence for one executed pass. A ``reused`` record comes from the
    build memo: its ``seconds`` are those of the build that ran the pass."""

    name: str
    seconds: float
    before: IRStats
    after: IRStats
    detail: str = ""
    reused: bool = False


@dataclass
class PipelineReport:
    """Everything a recipe run recorded."""

    recipe: str
    records: list[PassRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Wall time summed over the passes this build ran."""
        return sum(r.seconds for r in self.records if not r.reused)

    def as_rows(self) -> list[dict[str, Any]]:
        """Flat dict rows (CSV-friendly); a reused pass took 0 seconds."""
        return [
            {
                "recipe": self.recipe,
                "pass": r.name,
                "seconds": 0.0 if r.reused else round(r.seconds, 6),
                "stmts_before": r.before.statements,
                "stmts_after": r.after.statements,
                "loops_after": r.after.loops,
                "guards_after": r.after.guards,
                "depth_after": r.after.depth,
                "reused": r.reused,
                "detail": r.detail,
            }
            for r in self.records
        ]

    def render(self) -> str:
        """Aligned text table of the per-pass evidence."""
        from repro.utils.tables import render_table

        rows = [
            [
                r.name,
                "reused" if r.reused else r.seconds * 1e3,
                r.after.statements,
                r.after.loops,
                r.after.guards,
                r.after.depth,
                r.detail,
            ]
            for r in self.records
        ]
        return render_table(
            ["pass", "ms", "stmts", "loops", "guards", "depth", "notes"],
            rows,
            title=f"Pipeline — {self.recipe} "
            f"({self.total_seconds * 1e3:.1f} ms total)",
            float_fmt=",.1f",
        )


#: Built pass prefixes: prefix key (:func:`_prefix_keys`) -> (value,
#: records) of the recipe prefix ending at that pass.
_prefixes: LRUCache = LRUCache(maxsize=512)


def clear_memo() -> None:
    """Forget every built prefix."""
    _prefixes.clear()


def _prefix_keys(kernel: Any, passes: list[Pass]) -> list[tuple]:
    """The memo key of each prefix of the bound *passes*: the kernel plus,
    for each pass up to and including this one, its type (two pass classes
    never collide) and its description as JSON text."""
    keys: list[tuple] = []
    key: tuple = (kernel,)
    for p in passes:
        text = json.dumps(p.describe(), sort_keys=True, separators=(",", ":"), default=str)
        key = (*key, type(p), text)
        keys.append(key)
    return keys


class PassManager:
    """Run recipes and record per-pass evidence."""

    def run(
        self, recipe: VariantRecipe, ctx: PassContext | None = None
    ) -> tuple[Program | FusedNest, PipelineReport]:
        """Apply every pass of *recipe*; return (final value, report).

        The passes after the longest prefix already built in this process
        run; a build that runs none records no span. The records of the
        built prefix come back marked ``reused``.
        """
        if not recipe.passes:
            raise TransformError(f"recipe {recipe.name} has no passes")
        ctx = ctx or PassContext()
        passes = [p.bind(ctx) for p in recipe.passes]
        keys = _prefix_keys(ctx.kernel, passes)
        value: Program | FusedNest | None = None
        records: tuple[PassRecord, ...] = ()
        reused = 0
        for i in range(len(keys), 0, -1):
            hit = _prefixes.get(keys[i - 1])
            if hit is not None:
                value, records = hit
                records = tuple(replace(r, reused=True) for r in records)
                reused = i
                break
        if reused == len(passes):
            return value, PipelineReport(recipe.name, list(records))
        with telemetry.span("pipeline.recipe", recipe=recipe.name, reused=reused):
            for p, key in zip(passes[reused:], keys[reused:]):
                before = ir_stats(value) if value is not None else IRStats(0, 0, 0, 0)
                # The span doubles as the pass stopwatch: its duration is
                # the PassRecord's wall time whether telemetry records or
                # not (the disabled span still measures).
                with telemetry.span(
                    "pipeline.pass", **{"recipe": recipe.name, "pass": p.name}
                ) as psp:
                    value, note = p.apply_noted(value, ctx)
                after = ir_stats(value)
                # IR-stat deltas ride on the pass span (attrs may be set
                # after exit; the recorded span shares the dict).
                psp.set(
                    stmts_before=before.statements,
                    stmts_after=after.statements,
                    loops_after=after.loops,
                    guards_after=after.guards,
                    depth_after=after.depth,
                )
                records += (
                    PassRecord(
                        name=p.name,
                        seconds=psp.duration,
                        before=before,
                        after=after,
                        detail=note,
                    ),
                )
                _prefixes[key] = (value, records)
        return value, PipelineReport(recipe.name, list(records))

    def build(
        self, recipe: VariantRecipe, ctx: PassContext | None = None
    ) -> tuple[Program, PipelineReport]:
        """Run the recipe and require the result to be a program."""
        value, report = self.run(recipe, ctx)
        if isinstance(value, FusedNest):
            value = value.to_program()
        return value, report
