"""The ``Pass`` protocol and the passes wrapping :mod:`repro.trans`.

A pass is one reproducible step of a variant recipe: it consumes a
:class:`~repro.ir.program.Program` or a
:class:`~repro.trans.model.FusedNest`, produces the next one, and can
describe itself as plain data (for fingerprints and reports). Every pass
declares its **semantic effect** relative to the recipe's source program:

- ``preserve`` — input/output behaviour is unchanged (tiling, skewing,
  scalarisation, guard cleanup, …);
- ``break``    — behaviour may change (fusion ignores fusion-preventing
  dependences on purpose; the paper measures that program anyway);
- ``restore``  — behaviour is re-established (``FixDeps``).

:class:`~repro.pipeline.manager.PassManager` uses the declarations to know
*where* semantic equivalence against the source is checkable: everywhere
except between a ``break`` and the next ``restore``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.errors import TransformError
from repro.ir.expr import Expr
from repro.ir.printer import expr_str
from repro.ir.program import Program
from repro.ir.stmt import Loop
from repro.trans.fusion import NestEmbedding
from repro.trans.model import FusedNest

#: Semantic-effect declarations (see module docstring).
PRESERVE, BREAK, RESTORE = "preserve", "break", "restore"

#: Placeholder tile edges resolved from the :class:`PassContext` at build
#: time, so one recipe covers every tile size of a sweep.
TILE = "$tile"
TIME_TILE = "$time_tile"


@dataclass(frozen=True)
class PassContext:
    """Bind-time inputs of a recipe build.

    ``kernel`` is the kernel module (source builders, ``make_inputs``);
    ``tile`` / ``time_tile`` resolve the :data:`TILE` / :data:`TIME_TILE`
    placeholders.
    """

    kernel: Any = None
    tile: int | None = None
    time_tile: int | None = None

    def tile_edge(self) -> int:
        """The bound tile edge (default 8, as the kernel builders used)."""
        return self.tile if self.tile is not None else 8

    def time_tile_edge(self) -> int:
        """The time-tile edge (defaults to the space tile)."""
        return self.time_tile if self.time_tile is not None else self.tile_edge()


@dataclass(frozen=True)
class FusionSpec:
    """Everything :func:`repro.trans.fusion.fuse_siblings` needs for one
    kernel: the fused loop spec plus one embedding per fusable item."""

    fused_loops: tuple[tuple[str, Expr, Expr], ...]
    embeddings: tuple[NestEmbedding, ...]
    context_depth: int = 0
    epilogue_from: int | None = None

    def describe(self) -> dict[str, Any]:
        """Plain-data form (for fingerprints)."""
        return {
            "fused_loops": [
                [var, expr_str(lo), expr_str(hi)] for var, lo, hi in self.fused_loops
            ],
            "embeddings": [
                {
                    "var_map": dict(e.var_map),
                    "placement": {k: expr_str(v) for k, v in e.placement.items()},
                }
                for e in self.embeddings
            ],
            "context_depth": self.context_depth,
            "epilogue_from": self.epilogue_from,
        }


class Pass:
    """Base class: one recipe step (see module docstring)."""

    #: Semantic effect relative to the recipe source (PRESERVE/BREAK/RESTORE).
    semantics: str = PRESERVE

    @property
    def name(self) -> str:
        """Display name of the pass."""
        return type(self).__name__

    def describe(self) -> dict[str, Any]:
        """Plain-data description (must be JSON-serialisable and capture
        every parameter that affects the emitted program)."""
        return {"pass": self.name}

    def bind(self, ctx: PassContext) -> Pass:
        """This pass with every bind-time input it reads from *ctx*
        resolved, so that :meth:`describe` names its whole effect (the
        build memo keys on it)."""
        return self

    def apply(self, value: Program | FusedNest, ctx: PassContext):
        """Transform *value* under *ctx*."""
        raise NotImplementedError

    def apply_noted(self, value: Program | FusedNest, ctx: PassContext) -> tuple[Any, str]:
        """(:meth:`apply`'s result, the audit note the pipeline report
        shows for this application; empty unless a pass has one)."""
        return self.apply(value, ctx), ""


def _expect_program(value, who: str) -> Program:
    if not isinstance(value, Program):
        raise TransformError(f"{who} needs a Program, got {type(value).__name__}")
    return value


def _expect_nest(value, who: str) -> FusedNest:
    if not isinstance(value, FusedNest):
        raise TransformError(f"{who} needs a FusedNest, got {type(value).__name__}")
    return value


def _locate_nest(program: Program, nest: int | str, who: str) -> int:
    """Resolve a nest selector: an index, or a loop variable name."""
    if isinstance(nest, int):
        return nest
    for pos, stmt in enumerate(program.body):
        if isinstance(stmt, Loop) and stmt.var == nest:
            return pos
    raise TransformError(f"{who}: no top-level loop over {nest!r}")


@dataclass(frozen=True)
class Source(Pass):
    """Produce the recipe's source program from the kernel module
    (``sequential`` — Figure 1 — or ``fusable``, the peeled/distributed
    preparation form)."""

    builder: str = "sequential"
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {"pass": self.name, "builder": self.builder}

    def apply(self, value, ctx: PassContext) -> Program:
        if ctx.kernel is None:
            raise TransformError("Source pass needs a kernel module in the context")
        return getattr(ctx.kernel, self.builder)()


@dataclass(frozen=True)
class Fuse(Pass):
    """Fuse the sibling nests into one perfect nest (paper Sec. 2).

    Declared ``break``: the fused order ignores fusion-preventing
    dependences — that is precisely what :class:`FixDeps` repairs.
    """

    fusion: FusionSpec
    semantics = BREAK

    def describe(self) -> dict[str, Any]:
        return {"pass": self.name, **self.fusion.describe()}

    def apply(self, value, ctx: PassContext) -> FusedNest:
        from repro.trans.fusion import fuse_siblings

        program = _expect_program(value, self.name)
        return fuse_siblings(
            program,
            self.fusion.fused_loops,
            self.fusion.embeddings,
            context_depth=self.fusion.context_depth,
            epilogue_from=self.fusion.epilogue_from,
        )


@dataclass(frozen=True)
class ToProgram(Pass):
    """Emit a :class:`FusedNest` as an executable program."""

    rename: str | None = None
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {"pass": self.name, "rename": self.rename}

    def apply(self, value, ctx: PassContext) -> Program:
        return _expect_nest(value, self.name).to_program(self.rename)


@dataclass(frozen=True)
class FixDeps(Pass):
    """Repair every fusion-preventing dependence (paper Sec. 3) and emit
    the fixed program. Declared ``restore``. ``widen_copies=False`` keeps
    ElimRW's exact violating-write guards (the copy-widening ablation)."""

    rename: str | None = None
    value_ranges: Mapping[str, Any] | None = None
    widen_copies: bool = True
    semantics = RESTORE

    def describe(self) -> dict[str, Any]:
        ranges = None
        if self.value_ranges:
            ranges = {
                var: [expr_str(r.lower), expr_str(r.upper)]
                for var, r in sorted(self.value_ranges.items())
            }
        return {
            "pass": self.name,
            "rename": self.rename,
            "value_ranges": ranges,
            "widen_copies": self.widen_copies,
        }

    def apply(self, value, ctx: PassContext) -> Program:
        return self.apply_noted(value, ctx)[0]

    def apply_noted(self, value, ctx: PassContext) -> tuple[Program, str]:
        """The fixed program and what the repair did: the collapsed
        groups and the copy arrays, or "already legal"."""
        from repro.trans.fixdeps import fix_dependences

        report = fix_dependences(
            _expect_nest(value, self.name),
            value_ranges=self.value_ranges,
            widen_copies=self.widen_copies,
        )
        program = report.program(self.rename)
        collapsed = report.ww_wr.collapsed_groups()
        copies = [ins.copy_array for ins in report.rw.insertions]
        bits = []
        if collapsed:
            bits.append(f"collapsed {collapsed}")
        if copies:
            bits.append(f"copies {copies}")
        return program, "; ".join(bits) or "already legal"


@dataclass(frozen=True)
class Scalarize(Pass):
    """Demote iteration-local arrays to scalars
    (:func:`repro.trans.cleanup.scalarize_arrays`)."""

    arrays: tuple[str, ...] | None = None
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {"pass": self.name, "arrays": list(self.arrays) if self.arrays else None}

    def apply(self, value, ctx: PassContext) -> Program:
        from repro.trans.cleanup import scalarize_arrays

        program = _expect_program(value, self.name)
        return scalarize_arrays(program, list(self.arrays) if self.arrays else None)


@dataclass(frozen=True)
class ExpandScalar(Pass):
    """Array-expand a scalar along a loop dimension
    (:func:`repro.trans.expand.expand_scalar`; LU's per-step pivot)."""

    scalar: str
    along: str
    extent: str
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {
            "pass": self.name,
            "scalar": self.scalar,
            "along": self.along,
            "extent": self.extent,
        }

    def apply(self, value, ctx: PassContext) -> Program:
        from repro.ir import sym
        from repro.trans.expand import expand_scalar

        program = _expect_program(value, self.name)
        return expand_scalar(program, self.scalar, self.along, sym(self.extent))


@dataclass(frozen=True)
class SkewPermute(Pass):
    """Skew + permute one perfect nest (paper Sec. 4, Jacobi's time
    skewing; :func:`repro.trans.skew.skew_and_permute`)."""

    skews: Mapping[int, Mapping[int, int]]
    order: tuple[int, ...]
    new_names: tuple[str, ...]
    rename: str | None = None
    #: Nest selector: a body index or a top-level loop variable name.
    nest: int | str = 0
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {
            "pass": self.name,
            "skews": {str(k): {str(i): c for i, c in v.items()}
                      for k, v in sorted(self.skews.items())},
            "order": list(self.order),
            "new_names": list(self.new_names),
            "rename": self.rename,
            "nest": self.nest,
        }

    def apply(self, value, ctx: PassContext) -> Program:
        from repro.trans.skew import skew_and_permute

        program = _expect_program(value, self.name)
        return skew_and_permute(
            program,
            skews=self.skews,
            order=self.order,
            nest_index=_locate_nest(program, self.nest, self.name),
            new_names=self.new_names,
            name=self.rename,
        )


@dataclass(frozen=True)
class Tile(Pass):
    """Tile a perfect nest (:func:`repro.trans.tiling.tile_program`).

    Sizes may be integers or the :data:`TILE` / :data:`TIME_TILE`
    placeholders, resolved from the context at build time.
    """

    sizes: Mapping[str, int | str]
    order: tuple[str, ...] | None = None
    rename: str | None = None
    nest: int | str = 0
    semantics = PRESERVE

    def describe(self) -> dict[str, Any]:
        return {
            "pass": self.name,
            "sizes": dict(self.sizes),
            "order": list(self.order) if self.order else None,
            "rename": self.rename,
            "nest": self.nest,
        }

    def _resolve(self, size: int | str, ctx: PassContext) -> int:
        if size == TILE:
            return ctx.tile_edge()
        if size == TIME_TILE:
            return ctx.time_tile_edge()
        if isinstance(size, int):
            return size
        raise TransformError(f"{self.name}: unknown tile placeholder {size!r}")

    def bind(self, ctx: PassContext) -> Tile:
        """This tiling with the placeholders resolved to edges."""
        return replace(
            self, sizes={var: self._resolve(size, ctx) for var, size in self.sizes.items()}
        )

    def apply(self, value, ctx: PassContext) -> Program:
        from repro.trans.tiling import tile_program

        program = _expect_program(value, self.name)
        return tile_program(
            program,
            self.bind(ctx).sizes,
            order=self.order,
            nest_index=_locate_nest(program, self.nest, self.name),
            name=self.rename,
        )


@dataclass(frozen=True)
class UndoSinking(Pass):
    """Paper Sec. 4: "the effect of code sinking is undone as much as
    possible" — unswitch invariant guards, propagate guard facts, split
    the per-point guards out of the tile loops."""

    semantics = PRESERVE

    def apply(self, value, ctx: PassContext) -> Program:
        from repro.trans.splitting import undo_sinking

        return undo_sinking(_expect_program(value, self.name))
