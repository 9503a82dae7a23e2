"""Cholesky factorisation (paper Fig. 1c / Fig. 3c / Fig. 4c).

Per step ``k``: square root of the pivot, scale of the column below it,
symmetric rank-1 update of the trailing lower triangle. The fused form is
already legal — ``FixDeps`` verifies that and changes nothing (the paper's
observation "the fused program for Cholesky is already legal"). The tiled
variant blocks the ``k`` loop and sinks the point loop inside ``j``
(right-looking blocked Cholesky).
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

from repro.frontend import parse_program
from repro.ir import Program, sym
from repro.kernels.inputs import default_rng, spd_matrix
from repro.pipeline.passes import FusionSpec
from repro.trans.fusion import NestEmbedding
from repro.trans.peel import peel_last

NAME = "cholesky"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

#: The Figure-1(c) program (lower-triangular, in place).
SOURCE = """
program cholesky_seq
  param N
  real A(N,N)
  output A
begin
  do k = 1, N
    A(k,k) = sqrt(A(k,k))
    do i = k+1, N
      A(i,k) = A(i,k) / A(k,k)
    end do
    do j = k+1, N
      do i = j, N
        A(i,j) = A(i,j) - A(i,k) * A(j,k)
      end do
    end do
  end do
end
"""

_N = sym("N")
_k = sym("k")

#: The Figure-3(c) fused form: dims (j, i), triangular ``i >= j``.
FUSION = FusionSpec(
    fused_loops=(("j", _k + 1, _N), ("i", sym("j"), _N)),
    embeddings=(
        NestEmbedding(placement={"j": _k + 1, "i": _k + 1}),  # sqrt
        NestEmbedding(var_map={"i": "i"}, placement={"j": _k + 1}),  # scale
        NestEmbedding(var_map={"j": "j", "i": "i"}),  # update
    ),
    context_depth=1,
    epilogue_from=1,
)


@functools.cache
def sequential() -> Program:
    """The Figure-1(c) program, parsed from :data:`SOURCE`."""
    return parse_program(SOURCE)


@functools.cache
def fusable() -> Program:
    """Figure-3(c)'s peeled form: ``k`` to N-1 with the last sqrt split off.

    At ``k = N`` the inner loops are empty, so peeling leaves only the final
    ``A(N,N) = sqrt(A(N,N))``.
    """
    seq = sequential()
    shortened, peeled = peel_last(seq.body[0])
    epilogue = (peeled[0],)  # the sqrt; the peeled empty loops are dropped
    return seq.with_body((shortened,) + epilogue).with_name("cholesky_fusable")


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random SPD input."""
    rng = rng or default_rng()
    return {"A": spd_matrix(params["N"], rng)}


def reference(params: Mapping[str, int], inputs: Mapping[str, np.ndarray]) -> dict:
    """numpy Cholesky; only the lower triangle (incl. diagonal) is compared.

    The kernel leaves the strict upper triangle of ``A`` untouched, so the
    reference copies it through from the input.
    """
    a0 = np.array(inputs["A"], dtype=np.float64)
    n = params["N"]
    lower = np.linalg.cholesky(a0)
    out = np.triu(a0, 1) + lower
    assert out.shape == (n, n)
    return {"A": out}
