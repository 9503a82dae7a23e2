"""Jacobi 4-point stencil (paper Fig. 1d / Fig. 3d / Fig. 4d).

Two sweeps per time step over the same data: compute the smoothed field
``L`` from ``A``, then write it back. Fusing the sweeps violates the
anti-dependences on the backward neighbours ``A(j,i-1)`` and ``A(j-1,i)``;
``ElimRW`` fixes them with the copy array ``H`` and (via the guard
simplification) the paper's boundary pre-copies. The tiled variant skews
the fused ``(t, i, j)`` nest by time, moves time innermost, and tiles all
three loops.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir import ArrayDecl, Program, assign, idx, loop, sym, val
from repro.kernels.inputs import default_rng, grid_field
from repro.pipeline.passes import FusionSpec
from repro.trans.fixdeps import FixDepsReport, fix_dependences
from repro.trans.fusion import NestEmbedding
from repro.trans.model import FusedNest

NAME = "jacobi"
PARAMS = ("N", "M")
DEFAULT_PARAMS = {"N": 32, "M": 8}

_N, _M = sym("N"), sym("M")
_t, _i, _j = sym("t"), sym("i"), sym("j")

_IDENTITY = NestEmbedding(var_map={"i": "i", "j": "j"})

#: The Figure-3(d) fused form: both sweeps aligned identically.
FUSION = FusionSpec(
    fused_loops=(("i", val(2), _N - 1), ("j", val(2), _N - 1)),
    embeddings=(_IDENTITY, _IDENTITY),
    context_depth=1,
)


def _stencil_value():
    return (
        idx("A", _j, _i - 1)
        + idx("A", _j - 1, _i)
        + idx("A", _j + 1, _i)
        + idx("A", _j, _i + 1)
    ) * 0.25


def sequential() -> Program:
    """The Figure-1(d) program."""
    compute = loop(
        "i", 2, _N - 1, [loop("j", 2, _N - 1, [assign(idx("L", _j, _i), _stencil_value())])]
    )
    writeback = loop(
        "i", 2, _N - 1, [loop("j", 2, _N - 1, [assign(idx("A", _j, _i), idx("L", _j, _i))])]
    )
    body = loop("t", 0, _M, [compute, writeback])
    return Program(
        "jacobi_seq",
        PARAMS,
        (ArrayDecl("A", (_N, _N)), ArrayDecl("L", (_N, _N))),
        (),
        (body,),
        outputs=("A",),
    )


def fusable() -> Program:
    """Jacobi fuses as-is (no peeling or distribution needed)."""
    return sequential()


def fused_nest() -> FusedNest:
    """The Figure-3(d) fused form (:data:`FUSION` on :func:`fusable`)."""
    from repro.kernels.recipes import build_fused_nest

    return build_fused_nest(NAME)


def fixed() -> Program:
    """The Figure-4(d) form: copies inserted, ``L`` scalarised."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "fixed")


def fixdeps_report() -> FixDepsReport:
    """Full FixDeps audit (used by tests and reports)."""
    return fix_dependences(fused_nest())


def tiled(tile: int = 8, *, time_tile: int | None = None) -> Program:
    """Sec. 4 tiling: skew space loops by time, time innermost, tile all.

    ``tile`` is the space tile; ``time_tile`` defaults to the same. The
    skewed Jacobi carries no guards ("no extra conditionals are
    introduced"), so there is no sinking to undo.
    """
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "tiled", tile=tile, time_tile=time_tile)


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random initial field."""
    rng = rng or default_rng()
    return {"A": grid_field(params["N"], rng)}


def reference(params: Mapping[str, int], inputs: Mapping[str, np.ndarray]) -> dict:
    """Vectorised numpy Jacobi (M+1 steps, matching ``do t = 0, M``)."""
    a = np.array(inputs["A"], dtype=np.float64)
    n, m = params["N"], params["M"]
    for _ in range(m + 1):
        smooth = 0.25 * (
            a[1 : n - 1, 0 : n - 2]
            + a[0 : n - 2, 1 : n - 1]
            + a[2:n, 1 : n - 1]
            + a[1 : n - 1, 2:n]
        )
        a[1 : n - 1, 1 : n - 1] = smooth
    return {"A": a}
