"""``ordered_sccs`` (loop distribution's partition) against a brute-force
oracle: components from the transitive closure, then repeatedly the ready
component with the smallest member."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.trans.distribution import ordered_sccs


def oracle_partition(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    reach = [[a == b for b in range(n)] for a in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                for b in range(n):
                    reach[a][b] = reach[a][b] or reach[k][b]
    groups = {
        tuple(b for b in range(n) if reach[a][b] and reach[b][a]) for a in range(n)
    }
    order: list[list[int]] = []
    placed: set[int] = set()
    while groups:
        ready = [
            g for g in groups
            if all(a in placed or a in g for a, b in edges if b in g)
        ]
        first = min(ready)
        order.append(list(first))
        placed.update(first)
        groups.remove(first)
    return order


@st.composite
def digraphs(draw) -> tuple[int, set[tuple[int, int]]]:
    n = draw(st.integers(0, 12))
    nodes = list(range(n))
    shape = draw(st.sampled_from(["random", "edgeless", "cycle", "chain"]))
    if shape == "random" and n:
        node = st.integers(0, n - 1)
        return n, draw(st.sets(st.tuples(node, node), max_size=3 * n))
    if shape in ("cycle", "chain") and n:
        path = draw(st.permutations(nodes))
        edges = set(zip(path, path[1:]))
        if shape == "cycle":
            edges.add((path[-1], path[0]))
        return n, edges
    return n, set()


@given(digraphs())
def test_partition_matches_oracle(graph):
    n, edges = graph
    partition = ordered_sccs(n, edges)
    assert partition == oracle_partition(n, edges)
    position = {v: p for p, group in enumerate(partition) for v in group}
    assert sorted(position) == list(range(n))
    for a, b in edges:
        assert position[a] <= position[b]

