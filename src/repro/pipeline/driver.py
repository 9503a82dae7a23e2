"""The end-to-end driver: Figure 1 in, cache-tiled program out.

``optimize_program`` chains the whole paper:

1. fuse the sibling nests (auto boundary embeddings unless given);
2. **FixDeps** — repair every fusion-preventing dependence;
3. scalarise iteration-local temporaries;
4. tile the resulting perfect nest — but only when the reordering is
   *proven* legal (exact polyhedral check) or *validated* by execution
   against the original on caller-supplied inputs;
5. undo the code-sinking guards (unswitch + fact propagation + index-set
   splitting).

Every decision is recorded in the returned :class:`OptimizationResult` so
callers can see what was (and was not) done and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.deps.access import ValueRange
from repro.errors import ReproError, TransformError
from repro.exec.validate import assert_equivalent
from repro.ir.analysis import as_perfect_nest
from repro.ir.expr import Expr
from repro.ir.program import Program
from repro.machine.configs import MachineConfig, octane2_scaled
from repro.tilesize.pdat import pdat_tile
from repro.trans import splitting
from repro.trans.autofuse import auto_fuse
from repro.trans.cleanup import scalarize_arrays
from repro.trans.fixdeps import FixDepsReport, fix_dependences
from repro.trans.fusion import NestEmbedding, fuse_siblings
from repro.trans.legality import fully_permutable_under
from repro.trans.skew import permutation_matrix
from repro.trans.tiling import tile_program

#: An input factory: params -> {array name: ndarray}.
InputFactory = Callable[[Mapping[str, int]], Mapping[str, np.ndarray]]


@dataclass
class OptimizationResult:
    """Everything the driver produced, with an audit trail."""

    original: Program
    fixdeps: FixDepsReport
    fixed: Program
    tiled: Program | None
    tile: int | None
    #: human-readable decisions ("tiling proven legal", "skipped: ...")
    notes: list[str] = field(default_factory=list)

    @property
    def best(self) -> Program:
        """The most optimised program produced."""
        return self.tiled if self.tiled is not None else self.fixed


def optimize_program(
    program: Program,
    fused_loops: Sequence[tuple[str, Expr, Expr]],
    *,
    context_depth: int = 0,
    epilogue_from: int | None = None,
    embeddings: Sequence[NestEmbedding] | None = None,
    value_ranges: Mapping[str, ValueRange] | None = None,
    machine: MachineConfig | None = None,
    tile: int | None = None,
    undo_sinking: bool = True,
    validate_inputs: InputFactory | None = None,
    validate_sizes: Sequence[Mapping[str, int]] = (),
) -> OptimizationResult:
    """Run the full paper pipeline on *program* (see module docstring).

    ``validate_inputs`` + ``validate_sizes`` enable execution validation of
    each stage; without them, tiling happens only under a legality proof.
    """
    machine = machine or octane2_scaled()
    notes: list[str] = []

    # 1. fusion
    if embeddings is not None:
        nest = fuse_siblings(
            program,
            fused_loops,
            embeddings,
            context_depth=context_depth,
            epilogue_from=epilogue_from,
        )
        notes.append("fused with caller-supplied embeddings")
    else:
        nest = auto_fuse(
            program,
            fused_loops,
            context_depth=context_depth,
            epilogue_from=epilogue_from,
        )
        notes.append("fused with derived boundary embeddings")

    # 2. FixDeps
    report = fix_dependences(nest, value_ranges=value_ranges)
    collapsed = report.ww_wr.collapsed_groups()
    if collapsed:
        notes.append(f"ElimWW_WR collapsed dimensions: {collapsed}")
    for ins in report.rw.insertions:
        notes.append(
            f"ElimRW introduced {ins.copy_array!r} for {ins.array!r} "
            f"({ins.precopied_reads} pre-copied, {ins.redirected_reads} guarded reads)"
        )
    if not collapsed and not report.rw.insertions:
        notes.append("fusion already legal; FixDeps changed nothing")
    fixed = report.program(f"{program.name}_fixed")

    # 3. scalarisation
    before = {a.name for a in fixed.arrays}
    fixed = scalarize_arrays(fixed, None)
    gone = before - {a.name for a in fixed.arrays}
    if gone:
        notes.append(f"scalarised temporaries: {sorted(gone)}")

    def validate(candidate: Program) -> bool:
        if validate_inputs is None or not validate_sizes:
            return False
        for params in validate_sizes:
            assert_equivalent(
                program, candidate, params, validate_inputs(params),
                outputs=program.outputs,
            )
        return True

    if validate_inputs is not None and validate_sizes:
        validate(fixed)
        notes.append(f"fixed program validated at {list(validate_sizes)}")

    # 4. tiling (proof- or validation-gated)
    tiled: Program | None = None
    chosen_tile: int | None = None
    nest_stmt = fixed.body[_main_nest_index(fixed)]
    depth = as_perfect_nest(nest_stmt).depth
    if depth == 0:
        notes.append("tiling skipped: no perfect nest")
    else:
        proven = False
        try:
            proven = fully_permutable_under(
                nest_stmt, permutation_matrix(range(depth)), range(depth),
                value_ranges=value_ranges,
                scalars=frozenset(s.name for s in fixed.scalars),
            )
        except ReproError:
            proven = False
        can_validate = validate_inputs is not None and bool(validate_sizes)
        if not proven and not can_validate:
            notes.append(
                "tiling skipped: not proven fully permutable and no "
                "validation inputs supplied"
            )
        else:
            chosen_tile = tile or pdat_tile(machine.l1)
            vars_ = as_perfect_nest(nest_stmt).loop_vars
            try:
                candidate = tile_program(
                    fixed,
                    {v: chosen_tile for v in vars_},
                    nest_index=_main_nest_index(fixed),
                    name=f"{program.name}_tiled",
                )
                if undo_sinking:
                    candidate = splitting.undo_sinking(candidate)
                if proven:
                    notes.append(
                        f"tiling proven legal (fully permutable), tile {chosen_tile}"
                    )
                    if can_validate:
                        validate(candidate)
                else:
                    validate(candidate)
                    notes.append(
                        f"tiling validated by execution, tile {chosen_tile}"
                    )
                tiled = candidate
            except (TransformError, ReproError) as exc:
                notes.append(f"tiling failed: {exc}")
                tiled = None
                chosen_tile = None

    return OptimizationResult(
        original=program,
        fixdeps=report,
        fixed=fixed,
        tiled=tiled,
        tile=chosen_tile,
        notes=notes,
    )


def _main_nest_index(program: Program) -> int:
    """Index of the deepest top-level loop (skips ElimRW pre-copy loops)."""
    from repro.ir.stmt import Loop

    best, best_depth = 0, -1
    for pos, stmt in enumerate(program.body):
        if isinstance(stmt, Loop):
            depth = as_perfect_nest(stmt).depth
            if depth > best_depth:
                best, best_depth = pos, depth
    return best
