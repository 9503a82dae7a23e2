"""LU factorisation with partial pivoting (paper Fig. 1a / 3a / 4a).

The interesting kernel: the pivot search and row swap are *data-dependent*
(non-affine guards, and the swap's ``A(m,j)`` subscript uses the run-time
pivot row ``m``). The dependence analysis handles this with:

- may-execute treatment of the opaque guards, and
- a declared value range ``k <= m <= N`` that over-approximates the fuzzy
  subscript (the pivot row always lies in the trailing column).

FixDeps then finds exactly the paper's fix: ``WR_m(2,3)`` (plus the temp
flow/output violations the search/swap share) forces the search's ``i``
dimension to collapse — the Fig. 4a ``P`` loop running entirely at
``(j, i) = (k+1, k)``. No copying is needed (Sec. 3.2: "No extra memory
space is introduced for these kernels").
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

from repro.deps.access import ValueRange
from repro.frontend import parse_program
from repro.ir import Program, sym
from repro.ir.stmt import If, Loop
from repro.kernels.inputs import default_rng
from repro.pipeline.passes import FusionSpec
from repro.trans.fusion import NestEmbedding
from repro.trans.peel import peel_last, substitute_var

NAME = "lu"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

#: The Figure-1(a) program.
SOURCE = """
program lu_seq
  param N
  real A(N,N)
  real temp
  integer m
  real d
  output A
begin
  do k = 1, N
    temp = 0.0
    m = k
    do i = k, N
      d = A(i,k)
      if (abs(d) .GT. temp) then
        temp = abs(d)
        m = i
      end if
    end do
    ! Deviation: fusable() splits column k off this swap, so that the
    ! trailing columns embed along fused j, not along i as in Fig. 3a.
    if (m .NE. k) then
      do j = k, N
        temp = A(k,j)
        A(k,j) = A(m,j)
        A(m,j) = temp
      end do
    end if
    do i = k+1, N
      A(i,k) = A(i,k) / A(k,k)
    end do
    do j = k+1, N
      do i = k+1, N
        A(i,j) = A(i,j) - A(i,k) * A(k,j)
      end do
    end do
  end do
end
"""

_N = sym("N")
_k = sym("k")

#: The pivot row is always found in the trailing column: k <= m <= N.
VALUE_RANGES = {"m": ValueRange(_k, _N)}

_AT_ORIGIN = NestEmbedding(placement={"j": _k + 1, "i": _k})

#: Fused dims (j: k+1..N, i: k..N). Differs from Fig. 3a only in the swap
#: embedding: trailing-column swaps ride the fused ``j`` dimension at
#: ``i = k`` (lazy per-column swaps) instead of the ``i`` dimension at
#: ``j = k+1``.
FUSION = FusionSpec(
    fused_loops=(("j", _k + 1, _N), ("i", _k, _N)),
    embeddings=(
        _AT_ORIGIN,                                                 # temp = 0
        _AT_ORIGIN,                                                 # m = k
        NestEmbedding(var_map={"i": "i"}, placement={"j": _k + 1}),  # search
        _AT_ORIGIN,                                                 # swap col k
        NestEmbedding(var_map={"j": "j"}, placement={"i": _k}),     # swap cols
        NestEmbedding(var_map={"i": "i"}, placement={"j": _k + 1}),  # scale
        NestEmbedding(var_map={"j": "j", "i": "i"}),               # update
    ),
    context_depth=1,
    epilogue_from=1,
)


@functools.cache
def sequential() -> Program:
    """The Figure-1(a) program, parsed from :data:`SOURCE`."""
    return parse_program(SOURCE)


@functools.cache
def fusable() -> Program:
    """The form fed to fusion: the swap's first column split off, then
    ``k`` to N-1 with the last step peeled as an epilogue (as in Fig. 3a).

    The swap loop ``do j = k, N`` becomes the column-k exchange plus a loop
    over the trailing columns. This lets the trailing swaps be embedded
    along the fused ``j`` dimension (lazy per-column swaps), which — unlike
    the Fig. 3a embedding along ``i`` — admits the paper's final ``k``-loop
    tiling: a whole-row swap at the head of step ``k`` would have to follow
    every pending update of earlier steps in the same tile, making the
    ``k`` loop unblockable under conservative (fuzzy-``m``) dependences.
    """
    seq = sequential()
    (outer,) = seq.body
    items = list(outer.body)
    swap = items[3]
    (cols,) = swap.then
    col_k = [substitute_var(s, cols.var, cols.lower) for s in cols.body]
    trailing = Loop(cols.var, cols.lower + 1, cols.upper, cols.body)
    # Keep the guard outside the loop as in Fig. 1; sinking pushes it in.
    items[3:4] = [If(swap.cond, col_k), If(swap.cond, [trailing])]
    shortened, peeled = peel_last(Loop(outer.var, outer.lower, outer.upper, items))
    return seq.with_body((shortened, *peeled)).with_name("lu_fusable")


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random diagonally-dominant matrix (well-conditioned elimination,
    but off-diagonal pivots still occur occasionally)."""
    rng = rng or default_rng()
    # Milder dominance than for pure stability so that pivoting actually
    # triggers: scale the diagonal boost down.
    n = params["N"]
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a += np.eye(n) * 1.5
    return {"A": a}


def reference(params: Mapping[str, int], inputs: Mapping[str, np.ndarray]) -> dict:
    """Literal numpy transcription of Figure 1(a).

    Note the paper's swap exchanges only the *trailing* parts of rows k and
    m (columns k..N), unlike LAPACK's full-row pivoting.
    """
    a = np.array(inputs["A"], dtype=np.float64)
    n = params["N"]
    for k in range(n):
        m = k + int(np.argmax(np.abs(a[k:, k])))
        if m != k:
            tmp = a[k, k:].copy()
            a[k, k:] = a[m, k:]
            a[m, k:] = tmp
        if k + 1 < n:
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return {"A": a}
