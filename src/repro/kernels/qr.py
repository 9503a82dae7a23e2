"""QR factorisation, Householder-style (paper Fig. 1b / Fig. 3b / Fig. 4b).

Per step ``i``: column norm, reflector normalisation, products
``X(j,i) = sum_k A(k,i) A(k,j)``, and the trailing update. The program is
the simplified form the paper takes from Kodukula's thesis; it is not a
textbook QR, so the reference is a literal (vectorised) numpy transcription
of the same operation sequence.

The fused form (dims ``(j, k)``, context ``i``) violates:

- ``WR_norm(2,3)`` — the paper's reported dependence; fixed by collapsing
  the ``k`` dimension of the norm accumulation (the Fig. 4b ``P`` loop);
- the flow dependences from the column scaling into the ``X`` products and
  from the ``X`` accumulation into the trailing update — the paper's
  Fig. 3b/4b listings elide these (their printed QR codes are garbled by
  transposition typos), but they are real under Fig. 1b semantics; FixDeps
  collapses the scaling's ``j`` dimension and the accumulation's ``k``
  dimension, after which the nest is legal.

Preparation: the imperfect ``X`` nest (init + accumulation) is distributed
into two perfect nests before fusion.
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

from repro.frontend import parse_program
from repro.ir import Program, sym
from repro.ir.stmt import Loop
from repro.kernels.inputs import default_rng
from repro.pipeline.passes import FusionSpec
from repro.trans.distribution import distribute_loop
from repro.trans.fusion import NestEmbedding

NAME = "qr"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

#: The Figure-1(b) program (imperfect X nest intact).
SOURCE = """
program qr_seq
  param N
  real A(N,N), X(N,N)
  real norm, norm2, asqr
  output A, X
begin
  do i = 1, N
    norm = 0.0
    do j = i, N
      norm = norm + A(j,i) * A(j,i)
    end do
    norm2 = sqrt(norm)
    asqr = A(i,i) * A(i,i)
    A(i,i) = sqrt(norm - asqr + (A(i,i) - norm2) * (A(i,i) - norm2))
    do j = i+1, N
      A(j,i) = A(j,i) / A(i,i)
    end do
    ! Deviation: Figs. 3b/4b print some of these subscripts transposed;
    ! with Fig. 1b's subscripts, as here, the scaling feeds X and X feeds
    ! the update, two flow dependences those figures elide.
    do j = i+1, N
      X(j,i) = 0.0
      do k = i, N
        X(j,i) = X(j,i) + A(k,i) * A(k,j)
      end do
    end do
    do j = i+1, N
      do k = i+1, N
        A(k,j) = A(k,j) - A(k,i) * X(j,i)
      end do
    end do
  end do
end
"""

_N = sym("N")
_i = sym("i")

_AT_ORIGIN = NestEmbedding(placement={"j": _i, "k": _i})

#: The Figure-3(b) fused form: dims (j, k), both from i to N.
FUSION = FusionSpec(
    fused_loops=(("j", _i, _N), ("k", _i, _N)),
    embeddings=(
        _AT_ORIGIN,                                               # norm = 0
        NestEmbedding(var_map={"j": "k"}, placement={"j": _i}),   # norm +=
        _AT_ORIGIN,                                               # norm2 = sqrt
        _AT_ORIGIN,                                               # asqr = ...
        _AT_ORIGIN,                                               # A(i,i) = ||v||
        NestEmbedding(var_map={"j": "j"}, placement={"k": _i}),   # scale
        NestEmbedding(var_map={"j": "j"}, placement={"k": _i}),   # X init
        NestEmbedding(var_map={"j": "j", "k": "k"}),              # X acc
        NestEmbedding(var_map={"j": "j", "k": "k"}),              # update
    ),
    context_depth=1,
)


@functools.cache
def sequential() -> Program:
    """The Figure-1(b) program, parsed from :data:`SOURCE`."""
    return parse_program(SOURCE)


@functools.cache
def fusable() -> Program:
    """Figure-1(b) with the imperfect X nest distributed into init +
    accumulation loops.

    The split is *derived*, not hand-written: the statement dependence
    graph of the X nest has no cycle between the init and the accumulation
    (each ``X(j,i)`` is private to its ``j`` iteration), so
    :func:`repro.trans.distribution.distribute_loop` may separate them.
    """
    seq = sequential()
    (outer,) = seq.body
    items = list(outer.body)
    distributed = distribute_loop(items[6])
    if len(distributed) != 2:
        raise AssertionError("X nest must distribute into init + accumulation")
    items[6:7] = distributed
    body = Loop(outer.var, outer.lower, outer.upper, items)
    return seq.with_body((body,)).with_name("qr_fusable")


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random orthogonal input.

    The paper's simplified QR (Fig. 1b, "inessential statements removed")
    is not norm-preserving: on generic matrices the trailing updates grow
    multiplicatively and overflow doubles well below the experiment sizes.
    With an orthogonal input the iterates stay O(1) through N in the
    hundreds, which keeps every variant finite; the *access pattern* — all
    the machine model observes — is input-independent for QR anyway.

    The matrix is a product of N Householder reflections of random normal
    vectors in element-wise NumPy: no LAPACK call, whose threads made a
    ``np.linalg.qr`` input cost milliseconds to half a second.
    """
    rng = rng or default_rng()
    n = params["N"]
    q = np.eye(n)
    for v in rng.standard_normal((n, n)):
        q -= np.multiply.outer((q * v).sum(axis=1), v * (2.0 / (v * v).sum()))
    return {"A": q, "X": np.zeros((n, n))}


def reference(params: Mapping[str, int], inputs: Mapping[str, np.ndarray]) -> dict:
    """Vectorised numpy transcription of the Figure-1(b) sequence."""
    a = np.array(inputs["A"], dtype=np.float64)
    x = np.array(inputs["X"], dtype=np.float64)
    n = params["N"]
    for i in range(n):
        col = a[i:, i]
        norm = float(col @ col)
        norm2 = float(np.sqrt(norm))
        asqr = a[i, i] ** 2
        a[i, i] = np.sqrt(norm - asqr + (a[i, i] - norm2) ** 2)
        a[i + 1 :, i] /= a[i, i]
        if i + 1 < n:
            x[i + 1 :, i] = a[i:, i + 1 :].T @ a[i:, i]
            a[i + 1 :, i + 1 :] -= np.outer(a[i + 1 :, i], x[i + 1 :, i])
    return {"A": a, "X": x}
