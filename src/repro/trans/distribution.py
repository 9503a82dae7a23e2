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

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from repro.deps.access import ValueRange
from repro.deps.graph import dependence_graph
from repro.ir.stmt import Loop, Stmt


def ordered_sccs(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Strongly connected components of the digraph on ``range(n)``, each
    sorted, in topological order of the condensation; among components
    with no ordering constraint the one with the smallest member comes
    first.

    Tarjan's algorithm finds the components; Kahn's algorithm orders them,
    with the ready components in a heap keyed on their smallest member.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [0] * n
    groups: list[list[int]] = []
    visited = 0

    def visit(v: int) -> None:
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        for w in succ[v]:
            if index[w] < 0:
                visit(w)
                low[v] = min(low[v], low[w])
            elif on_stack[w]:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            members = []
            while not members or members[-1] != v:
                w = stack.pop()
                on_stack[w] = False
                comp[w] = len(groups)
                members.append(w)
            groups.append(sorted(members))

    for v in range(n):
        if index[v] < 0:
            visit(v)

    later: list[set[int]] = [set() for _ in groups]
    for a in range(n):
        for b in succ[a]:
            if comp[a] != comp[b]:
                later[comp[a]].add(comp[b])
    indegree = [0] * len(groups)
    for targets in later:
        for c in targets:
            indegree[c] += 1
    ready = [(group[0], c) for c, group in enumerate(groups) if not indegree[c]]
    heapify(ready)
    order: list[list[int]] = []
    while ready:
        _, c = heappop(ready)
        order.append(groups[c])
        for d in later[c]:
            indegree[d] -= 1
            if not indegree[d]:
                heappush(ready, (groups[d][0], d))
    return order


def distribution_partition(
    loop: Loop,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> list[list[int]]:
    """Maximal legal distribution: statement indices grouped by SCC, in a
    stable topological order (original order among independent groups)."""
    edges = dependence_graph(loop, value_ranges=value_ranges)
    return ordered_sccs(len(loop.body), edges)


def distribute_loop(
    loop: Loop,
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> list[Stmt]:
    """Split *loop* into the maximal legal sequence of loops.

    Returns the replacement statements (a single-element list when nothing
    can be distributed).
    """
    partition = distribution_partition(loop, value_ranges=value_ranges)
    if len(partition) == 1:
        return [loop]
    out: list[Stmt] = []
    for group in partition:
        body = tuple(loop.body[pos] for pos in group)
        out.append(Loop(loop.var, loop.lower, loop.upper, body, loop.step))
    return out
