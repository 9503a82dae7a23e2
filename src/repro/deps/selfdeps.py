"""Self-dependences of one loop nest, as polyhedra.

The final cache-tiling stage (Sec. 4) reorders a perfect nest's loops
(strip-mine + interchange, skew + permute). Its legality is governed by the
nest's own dependences: a band of loops is tileable iff it is *fully
permutable* (every dependence non-negative in every band dimension).

This module computes, for a perfect nest with (possibly guarded) body, the
dependences as polyhedra over (source iter, sink iter), one component per
carrying loop level (plus the loop-independent one). Fuzzy subscripts and
opaque guards widen the polyhedra conservatively, so a legality proof is
sound; failure to prove means "unknown" (LU's data-dependent swaps).
:func:`statement_components` is also the edge test of the statement
dependence graph (:mod:`repro.deps.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.deps.access import Reference, ValueRange, nest_references, same_element
from repro.errors import DependenceError
from repro.ir.analysis import as_perfect_nest
from repro.ir.stmt import Loop, Stmt
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.integer import check_feasibility
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron

#: Sink-iteration dimension suffix.
SINK = "__snk"


@dataclass(frozen=True)
class SelfDependence:
    """One dependence of a nest on itself."""

    kind: str  # flow | anti | output
    name: str
    loop_vars: tuple[str, ...]
    #: The feasible dependence components as polyhedra over
    #: (source iters, sink iters = var + SINK); one per carrying level.
    polys: tuple[Polyhedron, ...]

    def sink_minus_source(self, level: int) -> LinExpr:
        """The distance expression of loop level *level* (0-based)."""
        v = self.loop_vars[level]
        return LinExpr.var(v + SINK) - LinExpr.var(v)


def self_dependences(
    stmt: Stmt,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> list[SelfDependence]:
    """All loop-carried and loop-independent dependences of a perfect nest."""
    nest = as_perfect_nest(stmt)
    if nest.depth == 0:
        raise DependenceError("not a loop nest")
    # Components per (kind, array), in first-seen order, without repeats.
    merged: dict[tuple[str, str], list[Polyhedron]] = {}
    for r1, r2, components in statement_components(nest.loops, nest.body, value_ranges):
        kind = (
            "output"
            if r1.is_write and r2.is_write
            else ("flow" if r1.is_write else "anti")
        )
        polys = merged.setdefault((kind, r1.name), [])
        polys.extend(p for p in components if p not in polys)
    return [
        SelfDependence(kind, name, nest.loop_vars, tuple(polys))
        for (kind, name), polys in merged.items()
        if polys
    ]


def statement_components(
    loops: Sequence[Loop],
    body: Sequence[Stmt],
    value_ranges: Mapping[str, ValueRange] | None,
) -> Iterator[tuple[Reference, Reference, tuple[Polyhedron, ...]]]:
    """Every conflicting reference pair of the statements *body* directly
    inside *loops*, with its feasible dependence components (source
    first: ``r1`` is the source, ``r2`` the sink)."""
    loop_vars = tuple(l.var for l in loops)
    refs = nest_references(loops, body, value_ranges)
    for r1 in refs:
        for r2 in refs:
            if r1.name != r2.name or not (r1.is_write or r2.is_write):
                continue
            yield r1, r2, _components(r1, r2, r1.stmt_pos <= r2.stmt_pos, loop_vars)


def _components(
    r1: Reference,
    r2: Reference,
    src_textually_first: bool,
    loop_vars: tuple[str, ...],
) -> tuple[Polyhedron, ...]:
    """The feasible dependence components, one per carrying level.

    The source must execute before the sink: source iter lex-< sink iter,
    or equal iterations with the source textually first (level 0).
    """
    base = same_element(r1, r2.renamed({v: v + SINK for v in r2.domain.variables}))
    n = len(loop_vars)
    components: list[Polyhedron] = []
    levels = list(range(1, n + 1)) + ([0] if src_textually_first else [])
    for level in levels:
        constraints: list[Constraint] = []
        for depth, v in enumerate(loop_vars, start=1):
            diff = LinExpr.var(v + SINK) - LinExpr.var(v)
            if level == 0 or depth < level:
                constraints.append(eq0(diff))
            elif depth == level:
                constraints.append(ge0(diff - 1))
        poly = base.with_constraints(constraints)
        if check_feasibility(poly).feasible:
            components.append(poly)
    return tuple(components)
