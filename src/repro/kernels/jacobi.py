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

import functools
from typing import Mapping

import numpy as np

from repro.frontend import parse_program
from repro.ir import Program, sym, val
from repro.kernels.inputs import default_rng, grid_field
from repro.pipeline.passes import FusionSpec
from repro.trans.fusion import NestEmbedding

NAME = "jacobi"
PARAMS = ("N", "M")
DEFAULT_PARAMS = {"N": 32, "M": 8}

#: The Figure-1(d) program.
SOURCE = """
program jacobi_seq
  param N, M
  real A(N,N), L(N,N)
  output A
begin
  do t = 0, M
    do i = 2, N-1
      do j = 2, N-1
        L(j,i) = (A(j,i-1) + A(j-1,i) + A(j+1,i) + A(j,i+1)) * 0.25
      end do
    end do
    do i = 2, N-1
      do j = 2, N-1
        A(j,i) = L(j,i)
      end do
    end do
  end do
end
"""

_N = sym("N")

_IDENTITY = NestEmbedding(var_map={"i": "i", "j": "j"})

#: The Figure-3(d) fused form: both sweeps aligned identically.
FUSION = FusionSpec(
    fused_loops=(("i", val(2), _N - 1), ("j", val(2), _N - 1)),
    embeddings=(_IDENTITY, _IDENTITY),
    context_depth=1,
)


@functools.cache
def sequential() -> Program:
    """The Figure-1(d) program, parsed from :data:`SOURCE`."""
    return parse_program(SOURCE)


def fusable() -> Program:
    """Jacobi fuses as-is (no peeling or distribution needed)."""
    return sequential()


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
