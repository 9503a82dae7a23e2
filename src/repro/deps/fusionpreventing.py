"""Fusion-preventing dependence sets (paper Eq. 5–6), execution-aware.

A dependence from nest ``L_k`` (source, textually earlier) to ``L_k'``
(sink, ``k < k'``) is *violated* by fusion iff the sink instance executes
strictly before the source instance in the fused program::

    exec_{k'}(I') < exec_k(I)      (lexicographically, fused dims only)

Context dimensions are shared, so only same-context violations exist; the
strict lexicographic order is decomposed into per-level conjunctive sets.
Each group's ``exec`` relation reflects any collapsing already applied by
``ElimWW_WR``, so later rounds and ``ElimRW`` see the current program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

from repro.deps.access import (
    Reference,
    ValueRange,
    extract_references,
    same_element,
)
from repro.poly import memo
from repro.poly.constraint import Constraint, eq0, ge0
from repro.poly.integer import check_feasibility
from repro.poly.polyhedron import Polyhedron
from repro.trans.model import FusedNest, StmtGroup, primed

Kind = Literal["flow", "output", "anti"]

#: Default inclusive lower bound assumed for problem-size parameters when
#: probing dependence feasibility.
DEFAULT_PARAM_LO = 4


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


def _order_constraints(
    nest: FusedNest,
    src_group: StmtGroup,
    dst_group: StmtGroup,
    dst_rename: dict[str, str],
    level: int,
) -> list[Constraint]:
    """``exec_dst(I') < exec_src(I)``, reversed first at fused *level*."""
    constraints: list[Constraint] = []
    for j, v in enumerate(nest.fused_vars, start=1):
        e_src = src_group.exec_coordinate(v)
        e_dst = dst_group.exec_coordinate(v).rename(dst_rename)
        if j < level:
            constraints.append(eq0(e_src - e_dst))
        elif j == level:
            constraints.append(ge0(e_src - e_dst - 1))
            break
    return constraints


def violated_dependences(
    nest: FusedNest,
    kinds: Sequence[Kind] = ("flow", "output", "anti"),
    *,
    src_group: int | None = None,
    arrays: Sequence[str] | None = None,
    value_ranges: Mapping[str, ValueRange] | None = None,
    param_lo: int | Mapping[str, int] = DEFAULT_PARAM_LO,
) -> list[Violation]:
    """All feasible fusion-preventing dependences of *nest*.

    ``src_group`` restricts to dependences whose source is that group (the
    paper's ``W(k)`` / ``RW(k)`` sets); ``arrays`` restricts the variable.

    Results are memoised per-process on the nest's content fingerprint
    (plus every filter argument), so variants of a kernel that share base
    nests share one dependence computation per transform round.
    """
    key = (
        nest.fingerprint(),
        ",".join(kinds),
        "-" if src_group is None else src_group,
        "-" if arrays is None else ",".join(arrays),
        _ranges_key(value_ranges),
        memo.env_key(param_lo),
    )
    result = memo.memoize(
        "viol",
        key,
        lambda: _violated_dependences(
            nest, kinds, src_group, arrays, value_ranges, param_lo
        ),
    )
    # Fresh list per call: memo hits alias the stored value.
    return list(result)


def _ranges_key(value_ranges: Mapping[str, ValueRange] | None) -> str:
    if not value_ranges:
        return "-"
    from repro.ir.serialize import expr_to_dict

    return memo.stable_key(
        {
            name: [expr_to_dict(vr.lower), expr_to_dict(vr.upper)]
            for name, vr in sorted(value_ranges.items())
        }
    )


def _violated_dependences(
    nest: FusedNest,
    kinds: Sequence[Kind],
    src_group: int | None,
    arrays: Sequence[str] | None,
    value_ranges: Mapping[str, ValueRange] | None,
    param_lo: int | Mapping[str, int],
) -> list[Violation]:
    refs_by_group: dict[int, list[Reference]] = {
        g.index: extract_references(nest, g, value_ranges) for g in nest.groups
    }
    n = len(nest.fused_vars)
    out: list[Violation] = []
    for g_src in nest.groups:
        if src_group is not None and g_src.index != src_group:
            continue
        for g_dst in nest.groups:
            if g_dst.index <= g_src.index:
                continue
            for kind in kinds:
                src_writes = kind in ("flow", "output")
                dst_writes = kind in ("output", "anti")
                for src in refs_by_group[g_src.index]:
                    if src.is_write != src_writes:
                        continue
                    for dst in refs_by_group[g_dst.index]:
                        if dst.is_write != dst_writes:
                            continue
                        if src.name != dst.name:
                            continue
                        if arrays is not None and src.name not in arrays:
                            continue
                        # The sink's fused dims are primed, its fuzzy dims
                        # kept distinct from the source's.
                        dst_rename = {
                            **{v: primed(v) for v in nest.fused_vars},
                            **{f: f + "_d" for f in dst.fuzzy},
                        }
                        pair = same_element(src, dst, dst_rename)
                        for level in range(1, n + 1):
                            poly = pair.with_constraints(
                                _order_constraints(
                                    nest, g_src, g_dst, dst_rename, level
                                )
                            )
                            res = check_feasibility(poly, param_lo=param_lo)
                            if res.feasible:
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


def summarize(violations: Sequence[Violation]) -> dict[str, int]:
    """Count violations per (kind, array, source, sink) — handy in tests."""
    counts: dict[str, int] = {}
    for v in violations:
        key = v.describe()
        counts[key] = counts.get(key, 0) + 1
    return counts
