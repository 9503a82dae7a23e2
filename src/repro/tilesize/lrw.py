"""LRW tile-size selection (Wolf & Lam, PLDI'91).

LRW picks, per problem size, the largest square tile such that the number
of self-interference cache misses for one array reference is minimised.
We implement the standard formulation: walking the addresses of a tile of
a column-major ``N x N`` double array, count how many tile rows collide in
the cache (same set, different tag); the chosen edge is the largest one
with zero self-interference that fits the cache, falling back to the best
small edge otherwise.
"""

from __future__ import annotations

from repro.errors import MachineError
from repro.machine.cache import CacheConfig


def _self_interference(cache: CacheConfig, n: int, edge: int, element_bytes: int) -> int:
    """Number of colliding line pairs among the tile's rows.

    A tile column occupies ``edge`` consecutive elements; successive tile
    columns are ``n`` elements apart (column-major leading dimension).
    Count, over the tile's columns, how many cache sets are claimed by more
    lines than the associativity allows.
    """
    line = cache.line_bytes
    nsets = cache.num_sets
    claimed: dict[int, set[int]] = {}
    for col in range(edge):
        base = col * n * element_bytes
        for off in range(0, edge * element_bytes, line):
            addr = base + off
            line_no = addr // line
            claimed.setdefault(line_no % nsets, set()).add(line_no)
    return sum(max(0, len(lines) - cache.assoc) for lines in claimed.values())


def lrw_tile(cache: CacheConfig, n: int, *, element_bytes: int = 8) -> int:
    """Largest square tile edge with no self-interference for size *n*."""
    if n <= 0:
        raise MachineError("problem size must be positive")
    capacity = cache.size_bytes // element_bytes
    limit = min(int(capacity**0.5), n)
    best_edge, best_score = 2, None
    for edge in range(2, max(limit, 2) + 1):
        score = _self_interference(cache, n, edge, element_bytes)
        if score == 0:
            best_edge, best_score = edge, 0
        elif best_score != 0 and (best_score is None or score < best_score):
            best_edge, best_score = edge, score
    return best_edge
