"""ElimWW_WR: eliminating fusion-preventing flow/output dependences by
loop tiling (paper Fig. 2, lines 7–35).

Processing groups bottom-up (k = K-1 .. 1), each round computes the
violated flow/output set ``W(k)`` in the *current* program, finds the
dimensions that carry violations (``d_i > 0``), and collapses those
dimensions of group ``k``: a full-extent tile, so the whole embedded nest
executes at the fused space's origin of the collapsed dimensions. Full
extents are always a legal tile size (the paper makes the same choice for
LU and QR); after collapsing, group ``k``'s execution coordinates in the
collapsed dimensions equal the space minimum, which no sink can precede —
Theorem 1, which the round-end verification re-checks mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.deps.access import ValueRange
from repro.deps.distances import collapse_dims
from repro.deps.fusionpreventing import (
    DependenceSession,
    Violation,
    violated_dependences,
)
from repro.errors import TransformError
from repro.trans.model import FusedNest


@dataclass(frozen=True)
class TilingRound:
    """What one bottom-up round did to one group."""

    group: int
    violations: tuple[Violation, ...]
    collapsed_dims: tuple[str, ...]


@dataclass(frozen=True)
class ElimWWWRResult:
    """Transformed nest plus a per-round audit trail."""

    nest: FusedNest
    rounds: tuple[TilingRound, ...]

    def collapsed_groups(self) -> dict[int, tuple[str, ...]]:
        """group index -> dimensions collapsed for it."""
        return {r.group: r.collapsed_dims for r in self.rounds if r.collapsed_dims}


def eliminate_ww_wr(
    nest: FusedNest,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
    verify: bool = True,
    session: DependenceSession | None = None,
) -> ElimWWWRResult:
    """Run the bottom-up tiling loop; returns the fixed nest and audit.

    Every round asks through *session* (FixDeps's, else one of its own),
    so a round retests only the pairs the last collapse changed.
    """
    if session is None:
        session = DependenceSession()
    groups = list(nest.groups)
    current = nest
    rounds: list[TilingRound] = []
    for k in range(len(groups) - 1, 0, -1):
        violations = violated_dependences(
            current,
            ("flow", "output"),
            src_group=groups[k - 1].index,
            value_ranges=value_ranges,
            session=session,
        )
        if not violations:
            rounds.append(TilingRound(groups[k - 1].index, (), ()))
            continue
        dims = collapse_dims(current, violations)
        if not dims:
            raise TransformError(
                f"group {groups[k - 1].index}: violations found "
                f"({[v.describe() for v in violations]}) but no dimension "
                "carries a positive distance"
            )
        origins = {v: current.fused_lower_bound(v) for v in dims}
        groups[k - 1] = groups[k - 1].with_collapsed(origins)
        current = current.with_groups(tuple(groups))
        rounds.append(
            TilingRound(groups[k - 1].index, tuple(violations), dims)
        )
        if verify:
            remaining = violated_dependences(
                current,
                ("flow", "output"),
                src_group=groups[k - 1].index,
                value_ranges=value_ranges,
                session=session,
            )
            if remaining:
                raise TransformError(
                    f"group {groups[k - 1].index}: collapsing {dims} left "
                    f"violations {[v.describe() for v in remaining]}"
                )
    return ElimWWWRResult(nest=current, rounds=tuple(reversed(rounds)))
