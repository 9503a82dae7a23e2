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

import functools
from typing import Mapping

import numpy as np

from repro.frontend import parse_program
from repro.ir import Program
from repro.kernels.inputs import default_rng, grid_field

NAME = "gauss_seidel"
PARAMS = ("N", "M")
DEFAULT_PARAMS = {"N": 32, "M": 8}

#: In-place 4-point sweeps: Jacobi's stencil (Fig. 1d) without ``L``.
SOURCE = """
program gauss_seidel_seq
  param N, M
  real A(N,N)
  output A
begin
  do t = 0, M
    do i = 2, N-1
      do j = 2, N-1
        A(j,i) = (A(j,i-1) + A(j-1,i) + A(j+1,i) + A(j,i+1)) * 0.25
      end do
    end do
  end do
end
"""

#: The (t, i, j) skew making the nest fully permutable. Gauss–Seidel's
#: dependences are (0,1,0), (0,0,1) (within a sweep, via the west/north
#: reads) and the time-carried (1,-1,0), (1,0,-1) (east/south reads of the
#: previous sweep), so skewing each space loop by **1t** already suffices:
#: (1,-1,0) -> (1, 0, 1). Proven by the exact polyhedral legality check in
#: the tests; the unit skew also keeps every tile bound integral.
SKEWS = {1: {0: 1}, 2: {0: 1}}
ORDER = (0, 1, 2)


@functools.cache
def sequential() -> Program:
    """In-place 4-point Gauss–Seidel sweeps, parsed from :data:`SOURCE`."""
    return parse_program(SOURCE)


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
