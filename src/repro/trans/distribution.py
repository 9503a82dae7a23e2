"""Loop distribution (the inverse of fusion; paper Sec. 1 and future work).

``do i { S1; S2; ... }`` becomes a sequence of loops, one per group of
statements, with legality decided on the statement dependence graph:

- statements in one strongly connected component (a dependence cycle) must
  stay in the same loop;
- the resulting loops are emitted in a topological order of the SCC
  condensation, so every dependence still points forward.

The paper uses distribution implicitly to expose perfect nests before
fusion (QR's imperfect ``X`` nest splits into its init and accumulation
loops); :func:`distribute_loop` derives that split automatically instead
of by hand.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx

from repro.deps.access import ValueRange
from repro.deps.graph import dependence_graph
from repro.ir.stmt import Loop, Stmt


def distribution_partition(
    loop: Loop,
    *,
    scalars: frozenset[str] = frozenset(),
    value_ranges: Mapping[str, ValueRange] | None = None,
    param_lo: int | Mapping[str, int] = 4,
) -> list[list[int]]:
    """Maximal legal distribution: statement indices grouped by SCC, in a
    stable topological order (original order among independent groups)."""
    graph = dependence_graph(
        loop, scalars=scalars, value_ranges=value_ranges, param_lo=param_lo
    )
    condensation = nx.condensation(graph)
    order = list(nx.lexicographical_topological_sort(
        condensation, key=lambda n: min(condensation.nodes[n]["members"])
    ))
    return [sorted(condensation.nodes[n]["members"]) for n in order]


def distribute_loop(
    loop: Loop,
    *,
    scalars: frozenset[str] = frozenset(),
    value_ranges: Mapping[str, ValueRange] | None = None,
    param_lo: int | Mapping[str, int] = 4,
) -> list[Stmt]:
    """Split *loop* into the maximal legal sequence of loops.

    Returns the replacement statements (a single-element list when nothing
    can be distributed).
    """
    partition = distribution_partition(
        loop, scalars=scalars, value_ranges=value_ranges, param_lo=param_lo
    )
    if len(partition) == 1:
        return [loop]
    out: list[Stmt] = []
    for group in partition:
        body = tuple(loop.body[pos] for pos in group)
        out.append(Loop(loop.var, loop.lower, loop.upper, body, loop.step))
    return out
