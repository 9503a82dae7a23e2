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

from typing import Mapping

import numpy as np

from repro.ir import ArrayDecl, Program, ScalarDecl, assign, idx, loop, sym
from repro.ir.builder import sqrt
from repro.kernels.inputs import default_rng
from repro.pipeline.passes import FusionSpec
from repro.trans.fixdeps import FixDepsReport, fix_dependences
from repro.trans.fusion import NestEmbedding
from repro.trans.model import FusedNest

NAME = "qr"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

_N = sym("N")
_i, _j, _k = sym("i"), sym("j"), sym("k")
_norm, _norm2, _asqr = sym("norm"), sym("norm2"), sym("asqr")

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


def _decls():
    return (
        (ArrayDecl("A", (_N, _N)), ArrayDecl("X", (_N, _N))),
        (ScalarDecl("norm"), ScalarDecl("norm2"), ScalarDecl("asqr")),
    )


def _householder_pivot():
    """norm2 = sqrt(norm); asqr = A(i,i)^2; A(i,i) = ||v||."""
    aii = idx("A", _i, _i)
    return [
        assign("norm2", sqrt(_norm)),
        assign("asqr", aii * aii),
        assign(aii, sqrt(_norm - _asqr + (aii - _norm2) * (aii - _norm2))),
    ]


def sequential() -> Program:
    """The Figure-1(b) program (imperfect X nest intact)."""
    arrays, scalars = _decls()
    body = loop(
        "i",
        1,
        _N,
        [
            assign("norm", 0.0),
            loop("j", _i, _N, [assign("norm", _norm + idx("A", _j, _i) * idx("A", _j, _i))]),
            *_householder_pivot(),
            loop("j", _i + 1, _N, [assign(idx("A", _j, _i), idx("A", _j, _i) / idx("A", _i, _i))]),
            loop(
                "j",
                _i + 1,
                _N,
                [
                    assign(idx("X", _j, _i), 0.0),
                    loop(
                        "k",
                        _i,
                        _N,
                        [
                            assign(
                                idx("X", _j, _i),
                                idx("X", _j, _i) + idx("A", _k, _i) * idx("A", _k, _j),
                            )
                        ],
                    ),
                ],
            ),
            loop(
                "j",
                _i + 1,
                _N,
                [
                    loop(
                        "k",
                        _i + 1,
                        _N,
                        [
                            assign(
                                idx("A", _k, _j),
                                idx("A", _k, _j) - idx("A", _k, _i) * idx("X", _j, _i),
                            )
                        ],
                    )
                ],
            ),
        ],
    )
    return Program("qr_seq", PARAMS, arrays, scalars, (body,), outputs=("A", "X"))


def fusable() -> Program:
    """Figure-1(b) with the imperfect X nest distributed into init +
    accumulation loops.

    The split is *derived*, not hand-written: the statement dependence
    graph of the X nest has no cycle between the init and the accumulation
    (each ``X(j,i)`` is private to its ``j`` iteration), so
    :func:`repro.trans.distribution.distribute_loop` may separate them.
    """
    from repro.trans.distribution import distribute_loop

    arrays, scalars = _decls()
    seq = sequential()
    outer = seq.body[0]
    items = list(outer.body)
    x_nest = items[6]
    distributed = distribute_loop(x_nest, scalars=frozenset(s.name for s in scalars))
    if len(distributed) != 2:
        raise AssertionError("X nest must distribute into init + accumulation")
    items[6:7] = distributed
    body = loop("i", 1, _N, items)
    return Program(
        "qr_fusable", PARAMS, arrays, scalars, (body,), outputs=("A", "X")
    )


def fused_nest() -> FusedNest:
    """The Figure-3(b) fused form (:data:`FUSION` on :func:`fusable`)."""
    from repro.kernels.recipes import build_fused_nest

    return build_fused_nest(NAME)


def fixdeps_report() -> FixDepsReport:
    """FixDeps audit; expected collapses: G2.k, G4.j, G6.k; no copies."""
    return fix_dependences(fused_nest())


def fixed() -> Program:
    """The Figure-4(b) form."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "fixed")


def tiled(tile: int = 8) -> Program:
    """Sec. 4: tile the outermost ``i`` and ``j`` loops."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "tiled", tile=tile)


def make_inputs(params: Mapping[str, int], rng=None) -> dict[str, np.ndarray]:
    """Random near-orthogonal input.

    The paper's simplified QR (Fig. 1b, "inessential statements removed")
    is not norm-preserving: on generic matrices the trailing updates grow
    multiplicatively and overflow doubles well below the experiment sizes.
    With an orthogonal input the iterates stay O(1) through N in the
    hundreds, which keeps every variant finite; the *access pattern* — all
    the machine model observes — is input-independent for QR anyway.
    """
    rng = rng or default_rng()
    n = params["N"]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
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
