"""Fusion-preventing dependence sets (paper Eq. 5–6), execution-aware.

A dependence from nest ``L_k`` (source, textually earlier) to ``L_k'``
(sink, ``k < k'``) is *violated* by fusion iff the sink instance executes
strictly before the source instance in the fused program::

    exec_{k'}(I') < exec_k(I)      (lexicographically, fused dims only)

Context dimensions are shared, so only same-context violations exist; the
strict lexicographic order is decomposed into per-level conjunctive sets.
Each group's ``exec`` relation reflects any collapsing already applied by
``ElimWW_WR``, so later rounds and ``ElimRW`` see the current program.

FixDeps asks these questions round after round of nests that differ in
one group at a time, so its rounds share one :class:`DependenceSession`,
which extracts each group's references once, renames each sink once and
tests each pair once for as long as its answer cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from repro import telemetry
from repro.deps.access import (
    Reference,
    ValueRange,
    assigned_scalars,
    extract_references,
    same_element,
)
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.integer import FeasibilityResult, check_feasibility
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.trans.model import FusedNest, StmtGroup, primed

Kind = Literal["flow", "output", "anti"]


@dataclass(frozen=True)
class Violation:
    """One feasible fusion-preventing dependence component."""

    kind: Kind
    name: str
    src: Reference
    dst: Reference
    #: 1-based fused dimension at which the order is reversed.
    level: int
    #: Over ctx + fused + primed-fused (+ fuzzy) dims.
    poly: Polyhedron
    #: Sample instance proving feasibility (may include probed parameters).
    witness: dict[str, int] | None
    #: False when either endpoint was over-approximated.
    exact: bool

    def describe(self) -> str:
        """Human-readable one-liner (used by reports and tests)."""
        rw = {"flow": "WR", "output": "WW", "anti": "RW"}[self.kind]
        return (
            f"{rw}_{self.name}({self.src.group},{self.dst.group}) "
            f"level {self.level}"
        )


#: One feasible level of a pair: the level, its polyhedron, its verdict.
_Level = tuple[int, Polyhedron, FeasibilityResult]


def _order_constraints(
    src: tuple[LinExpr, ...], dst: tuple[LinExpr, ...]
) -> list[list[Constraint]]:
    """Per fused level, ``exec_dst(I') < exec_src(I)`` reversed first at
    that level, from both groups' execution coordinates (the sink's
    primed)."""
    equal = [eq0(a - b) for a, b in zip(src, dst)]
    return [
        equal[:j] + [ge0(src[j] - dst[j] - 1)] for j in range(len(src))
    ]


class DependenceSession:
    """The dependence questions of one FixDeps run, each answered once.

    ``fix_dependences`` makes one and passes it to every ElimWW_WR round,
    to ElimRW and to the final verification; a
    :func:`violated_dependences` call without one makes its own. It
    reuses:

    - a group's references while its ``body`` and ``domain`` are the same
      objects, under the same scalars and value ranges;
    - each sink reference renamed into the pair's naming;
    - each pair's verdict (its feasible levels, each with its polyhedron
      and :class:`~repro.poly.integer.FeasibilityResult`), keyed on both
      references and both groups' execution coordinates over the fused
      variables. A collapse changes a group's coordinates and an ElimRW
      rewrite its body (so its references), and either one forces a
      retest.

    Keys hold object identities, and each entry holds the objects its key
    names, so no identity can be reused while the session lives. Nothing
    outlives the session.
    """

    def __init__(self) -> None:
        self._refs: dict[tuple, tuple[object, object, tuple[Reference, ...]]] = {}
        self._sinks: dict[tuple, tuple[Reference, Reference]] = {}
        self._verdicts: dict[tuple, tuple[Reference, Reference, tuple[_Level, ...]]] = {}

    def references(
        self,
        nest: FusedNest,
        group: StmtGroup,
        value_ranges: Mapping[str, ValueRange] | None = None,
    ) -> tuple[Reference, ...]:
        """:func:`~repro.deps.access.extract_references` of *group*,
        extracted once per body and domain."""
        return self._references(nest, group, _scalars(nest), value_ranges)

    def _references(
        self,
        nest: FusedNest,
        group: StmtGroup,
        scalars: frozenset[str],
        value_ranges: Mapping[str, ValueRange] | None,
    ) -> tuple[Reference, ...]:
        ranges = tuple(sorted(value_ranges.items())) if value_ranges else ()
        key = (id(group.body), id(group.domain), group.index, scalars, ranges)
        hit = self._refs.get(key)
        if hit is None:
            refs = tuple(extract_references(nest, group, value_ranges))
            hit = self._refs[key] = (group.body, group.domain, refs)
        return hit[2]

    def _sink(self, dst: Reference, fused: tuple[str, ...]) -> Reference:
        """*dst* with its fused dims primed and its fuzzy dims kept
        distinct from the source's."""
        key = (id(dst), fused)
        hit = self._sinks.get(key)
        if hit is None:
            rename = {
                **{v: primed(v) for v in fused},
                **{f: f + "_d" for f in dst.fuzzy},
            }
            hit = self._sinks[key] = (dst, dst.renamed(rename))
        return hit[1]

    def violated(
        self,
        nest: FusedNest,
        kinds: Sequence[Kind],
        *,
        src_group: int | None,
        arrays: Sequence[str] | None,
        value_ranges: Mapping[str, ValueRange] | None,
    ) -> list[Violation]:
        """:func:`violated_dependences` of *nest*, through this session."""
        groups = [
            g for g in nest.groups if src_group is None or g.index >= src_group
        ]
        scalars = _scalars(nest)
        refs = {
            g.index: self._references(nest, g, scalars, value_ranges)
            for g in groups
        }
        fused = nest.fused_vars
        prime = {v: primed(v) for v in fused}
        coords = {
            g.index: tuple(g.exec_coordinate(v) for v in fused) for g in groups
        }
        out: list[Violation] = []
        for g_src in groups:
            if src_group is not None and g_src.index != src_group:
                continue
            src_coords = coords[g_src.index]
            for g_dst in groups:
                if g_dst.index <= g_src.index:
                    continue
                dst_coords = coords[g_dst.index]
                orders: list[list[Constraint]] | None = None
                for kind in kinds:
                    src_writes = kind in ("flow", "output")
                    dst_writes = kind in ("output", "anti")
                    for src in refs[g_src.index]:
                        if src.is_write != src_writes:
                            continue
                        for dst in refs[g_dst.index]:
                            if dst.is_write != dst_writes:
                                continue
                            if src.name != dst.name:
                                continue
                            if arrays is not None and src.name not in arrays:
                                continue
                            key = (id(src), id(dst), fused, src_coords, dst_coords)
                            hit = self._verdicts.get(key)
                            if hit is None:
                                if orders is None:
                                    orders = _order_constraints(
                                        src_coords,
                                        tuple(e.rename(prime) for e in dst_coords),
                                    )
                                levels = self._test(src, dst, fused, orders)
                                self._verdicts[key] = (src, dst, levels)
                                telemetry.counter("deps.pairs.tested")
                            else:
                                levels = hit[2]
                                telemetry.counter("deps.pairs.reused")
                            for level, poly, res in levels:
                                out.append(
                                    Violation(
                                        kind=kind,
                                        name=src.name,
                                        src=src,
                                        dst=dst,
                                        level=level,
                                        poly=poly,
                                        witness=res.witness,
                                        exact=src.exact and dst.exact
                                        and res.decisive,
                                    )
                                )
        return out

    def _test(
        self,
        src: Reference,
        dst: Reference,
        fused: tuple[str, ...],
        orders: list[list[Constraint]],
    ) -> tuple[_Level, ...]:
        """The feasible levels of the pair (*src*, *dst*)."""
        pair = same_element(src, self._sink(dst, fused))
        levels: list[_Level] = []
        for level, order in enumerate(orders, start=1):
            poly = pair.with_constraints(order)
            res = check_feasibility(poly)
            if res.feasible:
                levels.append((level, poly, res))
        return tuple(levels)


def _scalars(nest: FusedNest) -> frozenset[str]:
    """The scalars of *nest*: the names its group bodies assign."""
    return assigned_scalars(s for g in nest.groups for s in g.body)


def violated_dependences(
    nest: FusedNest,
    kinds: Sequence[Kind] = ("flow", "output", "anti"),
    *,
    src_group: int | None = None,
    arrays: Sequence[str] | None = None,
    value_ranges: Mapping[str, ValueRange] | None = None,
    session: DependenceSession | None = None,
) -> list[Violation]:
    """All feasible fusion-preventing dependences of *nest*.

    ``src_group`` restricts to dependences whose source is that group (the
    paper's ``W(k)`` / ``RW(k)`` sets); ``arrays`` restricts the variable.
    ``session`` is the FixDeps run's :class:`DependenceSession`; a call
    without one asks through a session of its own.
    """
    if session is None:
        session = DependenceSession()
    return session.violated(
        nest,
        kinds,
        src_group=src_group,
        arrays=arrays,
        value_ranges=value_ranges,
    )


def summarize(violations: Sequence[Violation]) -> dict[str, int]:
    """Count violations per (kind, array, source, sink) — handy in tests."""
    counts: dict[str, int] = {}
    for v in violations:
        key = v.describe()
        counts[key] = counts.get(key, 0) + 1
    return counts
