"""Statement-level dependence graphs within one loop.

Used by loop distribution (the inverse of fusion — the paper applies it to
expose perfect nests, e.g. QR's imperfect ``X`` nest, and names its
generalisation as future work): the statements directly inside a loop are
the nodes; a directed edge ``a -> b`` records a dependence whose source
instance executes before its sink instance. Distribution must keep every
strongly connected component together and order the components
topologically.

Statements may themselves contain loops (that is the point — distribution
splits imperfect nests); the one access walk (:mod:`repro.deps.access`)
gives their inner loop variables fresh dimensions, and an edge is a
feasible dependence component
(:func:`repro.deps.selfdeps.statement_components`) over the loop alone.
"""

from __future__ import annotations

from typing import Mapping

from repro.deps.access import ValueRange
from repro.deps.selfdeps import statement_components
from repro.ir.stmt import Loop


def dependence_graph(
    loop: Loop,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> frozenset[tuple[int, int]]:
    """Edges of the dependence graph of the statements directly inside
    *loop*, as ``(a, b)`` pairs of statement positions.

    Edge ``a -> b`` means some instance of statement ``a`` must execute
    before some conflicting instance of statement ``b`` (flow, anti or
    output — all are ordering constraints for distribution). A scalar the
    loop assigns carries dependences like a rank-0 array.
    """
    value_ranges = value_ranges or {}
    return frozenset(
        (r1.stmt_pos, r2.stmt_pos)
        for r1, r2, components in statement_components((loop,), loop.body, value_ranges)
        if components and r1.stmt_pos != r2.stmt_pos
    )
