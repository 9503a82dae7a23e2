"""Standard rectangular loop tiling (Sec. 4's final cache-tiling step).

Strip-mines each selected loop into a (tile, point) pair and regenerates
the nest in a caller-chosen loop order, with bounds recomputed from the
iteration-space polyhedron (so triangular spaces — LU, QR, Cholesky — get
the correct ``max``/``min`` clamps). Legality is not re-checked here: the
caller proves it (:func:`repro.trans.legality.fully_permutable_under`) or
tiles a schedule the paper gives (Sec. 4).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import TransformError
from repro.ir.analysis import as_perfect_nest, iteration_domain
from repro.ir.program import Program
from repro.ir.stmt import Stmt
from repro.poly.constraint import ge0
from repro.poly.linexpr import LinExpr
from repro.trans.loopgen import emit_loops
from repro.utils.naming import NameGenerator


def tile_perfect_nest(
    stmt: Stmt,
    tiles: Mapping[str, int],
    *,
    order: Sequence[str] | None = None,
    reserved: frozenset[str] = frozenset(),
) -> tuple[Stmt, dict[str, str]]:
    """Tile one perfect nest; returns the new nest and var -> tile-var map.

    ``order`` lists the full new loop order (tile variables named
    ``<var>t``); default puts all tile loops outermost (in original loop
    order) followed by all point loops.
    """
    nest = as_perfect_nest(stmt)
    if nest.depth == 0:
        raise TransformError("statement is not a loop nest")
    loop_vars = list(nest.loop_vars)
    unknown = set(tiles) - set(loop_vars)
    if unknown:
        raise TransformError(f"tile request for non-loop vars {sorted(unknown)}")
    for var, size in tiles.items():
        if not isinstance(size, int) or size < 1:
            raise TransformError(f"tile size for {var} must be a positive int")

    namer = NameGenerator(set(loop_vars) | reserved)
    tile_names = {v: namer.fresh(f"{v}t") for v in loop_vars if v in tiles}

    domain = iteration_domain(nest.loops)
    all_vars = tuple(tile_names[v] for v in loop_vars if v in tiles) + tuple(loop_vars)
    constraints = list(domain.constraints)
    from repro.poly.fm import project_onto

    for v, tv in tile_names.items():
        size = tiles[v]
        pv, tvv = LinExpr.var(v), LinExpr.var(tv)
        constraints.append(ge0(pv - tvv))
        constraints.append(ge0(tvv + (size - 1) - pv))
        # Anchor the tile lattice at the variable's global lower bound when
        # it is a single parameter-only expression (keeps tile loops like
        # ``do kt = 1, ...`` instead of the FM-relaxed ``lo - T + 1``).
        lowers, _ = project_onto(domain, [v]).bounds_on(v)
        if len(lowers) == 1:
            constraints.append(ge0(tvv - lowers[0]))
    from repro.poly.polyhedron import Polyhedron

    tiled_domain = Polyhedron(all_vars, constraints)

    if order is None:
        order = [tile_names[v] for v in loop_vars if v in tiles] + loop_vars
    else:
        order = list(order)
        if set(order) != set(all_vars):
            raise TransformError(
                f"order {order} must be a permutation of {all_vars}"
            )

    steps = {tile_names[v]: tiles[v] for v in tile_names}
    new_nest = emit_loops(tiled_domain, order, nest.body, steps=steps)
    return new_nest, tile_names


def tile_program(
    program: Program,
    tiles: Mapping[str, int],
    *,
    order: Sequence[str] | None = None,
    nest_index: int = 0,
    name: str | None = None,
) -> Program:
    """Tile the perfect nest at ``program.body[nest_index]``."""
    body = list(program.body)
    new_nest, _ = tile_perfect_nest(
        body[nest_index], tiles, order=order, reserved=frozenset(program.all_names())
    )
    body[nest_index] = new_nest
    out = program.with_body(body)
    return out.with_name(name or f"{program.name}_tiled")
