"""Trace-based dependence oracle (test-only).

Runs the *original* (unfused) program and the *fused* iteration schedule
symbolically at small concrete sizes, recording every (element, access)
event, and reports which dependences fusion would reverse. Tests compare
this ground truth against the polyhedral :func:`violated_dependences`.

The oracle interprets accesses structurally (which element is touched at
which iteration) using the same reference extraction as the analysis, but
*enumerates* instead of solving — so it exercises domains, guards and
subscripts through an independent code path.
"""

from __future__ import annotations

from typing import Mapping

from repro.deps.access import ValueRange, extract_references
from repro.poly.enumerate import enumerate_points
from repro.trans.model import FusedNest


def _element(ref, point: Mapping[str, int], params: Mapping[str, int]):
    env = {**params, **point}
    return tuple(int(s.evaluate(env)) for s in ref.subscripts)


def trace_violations(
    nest: FusedNest,
    params: Mapping[str, int],
    *,
    value_ranges: Mapping[str, ValueRange] | None = None,
) -> set[tuple[str, str, int, int]]:
    """Violated dependences at concrete *params*, as
    ``(kind, name, src_group, dst_group)`` tuples.

    Fuzzy references are expanded over their whole value range (matching the
    analysis' over-approximation); opaque guards are treated as
    may-execute, also matching the analysis.
    """
    fused = nest.fused_vars
    out: set[tuple[str, str, int, int]] = set()
    refs_by_group = {
        g.index: extract_references(nest, g, value_ranges) for g in nest.groups
    }
    group_by_index = {g.index: g for g in nest.groups}

    # Collect (exec_vector, element) instances per reference.
    instances: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], object]]] = {}
    for gidx, refs in refs_by_group.items():
        group = group_by_index[gidx]
        for ridx, ref in enumerate(refs):
            inst = []
            for point in enumerate_points(ref.domain, params):
                env = {**params, **point}
                ctx_vec = tuple(point[v] for v in nest.context_vars)
                exec_vec = tuple(
                    int(group.exec_coordinate(v).evaluate(env)) for v in fused
                )
                inst.append((ctx_vec, exec_vec, _element(ref, point, params)))
            instances[(gidx, ridx)] = inst

    for g_src in nest.groups:
        for g_dst in nest.groups:
            if g_dst.index <= g_src.index:
                continue
            for kind, sw, dw in (
                ("flow", True, False),
                ("output", True, True),
                ("anti", False, True),
            ):
                for sidx, src in enumerate(refs_by_group[g_src.index]):
                    if src.is_write != sw:
                        continue
                    for didx, dst in enumerate(refs_by_group[g_dst.index]):
                        if dst.is_write != dw or dst.name != src.name:
                            continue
                        key = (kind, src.name, g_src.index, g_dst.index)
                        if key in out:
                            continue
                        if _pair_violated(
                            instances[(g_src.index, sidx)],
                            instances[(g_dst.index, didx)],
                        ):
                            out.add(key)
    return out


def _pair_violated(src_inst, dst_inst) -> bool:
    # Index sink instances by (ctx, element) for O(1) matching.
    by_key: dict[tuple, list[tuple[int, ...]]] = {}
    for ctx, ev, elem in dst_inst:
        by_key.setdefault((ctx, elem), []).append(ev)
    for ctx, ev, elem in src_inst:
        for dv in by_key.get((ctx, elem), ()):
            if dv < ev:  # sink executes strictly earlier
                return True
    return False
