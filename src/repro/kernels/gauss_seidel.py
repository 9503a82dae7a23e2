"""Gauss–Seidel stencil (extension kernel).

The paper mentions Gauss–Seidel alongside Jacobi as a stencil that defeats
data shackling [8]. Unlike Jacobi it updates **in place** — each sweep
reads the *current* time step's west/north neighbours and the previous
step's east/south ones — so there is nothing to fuse (a single nest
already) and no anti-dependence to copy away: the whole tiling story is
skewing legality, which our exact polyhedral checker proves.

Included as the natural "future work" extension: it reuses the
unimodular/legality/tiling layers end-to-end on a kernel the paper only
names.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir import ArrayDecl, Program, assign, idx, loop, sym
from repro.kernels.inputs import default_rng, grid_field

NAME = "gauss_seidel"
PARAMS = ("N", "M")
DEFAULT_PARAMS = {"N": 32, "M": 8}

_N, _M = sym("N"), sym("M")
_t, _i, _j = sym("t"), sym("i"), sym("j")


def sequential() -> Program:
    """In-place 4-point Gauss–Seidel sweeps."""
    body = loop(
        "t",
        0,
        _M,
        [
            loop(
                "i",
                2,
                _N - 1,
                [
                    loop(
                        "j",
                        2,
                        _N - 1,
                        [
                            assign(
                                idx("A", _j, _i),
                                (
                                    idx("A", _j, _i - 1)
                                    + idx("A", _j - 1, _i)
                                    + idx("A", _j + 1, _i)
                                    + idx("A", _j, _i + 1)
                                )
                                * 0.25,
                            )
                        ],
                    )
                ],
            )
        ],
    )
    return Program(
        "gauss_seidel_seq", PARAMS, (ArrayDecl("A", (_N, _N)),), (), (body,),
        outputs=("A",),
    )


#: The (t, i, j) skew making the nest fully permutable. Gauss–Seidel's
#: dependences are (0,1,0), (0,0,1) (within a sweep, via the west/north
#: reads) and the time-carried (1,-1,0), (1,0,-1) (east/south reads of the
#: previous sweep), so skewing each space loop by **1t** already suffices:
#: (1,-1,0) -> (1, 0, 1). Proven by the exact polyhedral legality check in
#: the tests; the unit skew also keeps every tile bound integral.
SKEWS = {1: {0: 1}, 2: {0: 1}}
ORDER = (0, 1, 2)


def tiled(tile: int = 8, *, time_tile: int | None = None) -> Program:
    """Skew the space loops by t and tile all three loops."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "tiled", tile=tile, time_tile=time_tile)


def fusable() -> Program:
    """Already a single perfect nest; provided for interface uniformity."""
    return sequential()


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random initial field."""
    rng = rng or default_rng()
    return {"A": grid_field(params["N"], rng)}


def reference(params: Mapping[str, int], inputs: Mapping[str, np.ndarray]) -> dict:
    """Literal numpy transcription (loops; Gauss–Seidel is sequential in
    its sweeps, so no vectorised shortcut exists along both axes)."""
    a = np.array(inputs["A"], dtype=np.float64)
    n, m = params["N"], params["M"]
    for _ in range(m + 1):
        for i in range(1, n - 1):  # 0-based column index
            for j in range(1, n - 1):
                a[j, i] = 0.25 * (
                    a[j, i - 1] + a[j - 1, i] + a[j + 1, i] + a[j, i + 1]
                )
    return {"A": a}
