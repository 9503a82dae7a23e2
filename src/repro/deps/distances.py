"""The collapse set of one ``ElimWW_WR`` round (paper Fig. 2, lines 19–24).

The paper computes the distance bounds ``d_i`` of the violated set ``W(k)``
to pick tile sizes ``T_i > d_i``. This reproduction tiles with full extents
instead (the paper's own choice for LU and QR), so no ``d_i`` value is ever
read: only the set ``{ i : d_i > 0 }`` matters, the fused dimensions in
which some violating sink instance precedes its source::

    exec_src_i(I) - exec_dst_i(I') >= 1   for some (I, I') in W(k)

(the paper writes ``I_i - I'_i``; we use execution coordinates so earlier
collapsing rounds are taken into account), decided by integer feasibility.
"""

from __future__ import annotations

from typing import Sequence

from repro.deps.fusionpreventing import Violation
from repro.poly.constraint import ge0
from repro.poly.integer import integer_feasible
from repro.poly.linexpr import LinExpr
from repro.trans.model import FusedNest, primed


def _distance_objective(
    nest: FusedNest, violation: Violation, var: str
) -> LinExpr:
    src_group = next(g for g in nest.groups if g.index == violation.src.group)
    dst_group = next(g for g in nest.groups if g.index == violation.dst.group)
    prime = {v: primed(v) for v in nest.fused_vars}
    e_src = src_group.exec_coordinate(var)
    e_dst = dst_group.exec_coordinate(var).rename(prime)
    return e_src - e_dst


def collapse_dims(nest: FusedNest, violations: Sequence[Violation]) -> tuple[str, ...]:
    """Fused dimensions (in fused order) in which some violation has a
    distance >= 1."""
    return tuple(
        var
        for var in nest.fused_vars
        if any(
            integer_feasible(
                v.poly.with_constraints([ge0(_distance_objective(nest, v, var) - 1)])
            )
            for v in violations
        )
    )
