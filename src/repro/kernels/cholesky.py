"""Cholesky factorisation (paper Fig. 1c / Fig. 3c / Fig. 4c).

Per step ``k``: square root of the pivot, scale of the column below it,
symmetric rank-1 update of the trailing lower triangle. The fused form is
already legal — ``FixDeps`` verifies that and changes nothing (the paper's
observation "the fused program for Cholesky is already legal"). The tiled
variant blocks the ``k`` loop and sinks the point loop inside ``j``
(right-looking blocked Cholesky).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir import ArrayDecl, Program, assign, idx, loop, sym
from repro.ir.builder import sqrt
from repro.kernels.inputs import default_rng, spd_matrix
from repro.pipeline.passes import FusionSpec
from repro.trans.fixdeps import FixDepsReport, fix_dependences
from repro.trans.fusion import NestEmbedding
from repro.trans.model import FusedNest

NAME = "cholesky"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

_N = sym("N")
_k, _j, _i = sym("k"), sym("j"), sym("i")

#: The Figure-3(c) fused form: dims (j, i), triangular ``i >= j``.
FUSION = FusionSpec(
    fused_loops=(("j", _k + 1, _N), ("i", _j, _N)),
    embeddings=(
        NestEmbedding(placement={"j": _k + 1, "i": _k + 1}),  # sqrt
        NestEmbedding(var_map={"i": "i"}, placement={"j": _k + 1}),  # scale
        NestEmbedding(var_map={"j": "j", "i": "i"}),  # update
    ),
    context_depth=1,
    epilogue_from=1,
)


def sequential() -> Program:
    """The Figure-1(c) program (lower-triangular, in place)."""
    body = loop(
        "k",
        1,
        _N,
        [
            assign(idx("A", _k, _k), sqrt(idx("A", _k, _k))),
            loop("i", _k + 1, _N, [assign(idx("A", _i, _k), idx("A", _i, _k) / idx("A", _k, _k))]),
            loop(
                "j",
                _k + 1,
                _N,
                [
                    loop(
                        "i",
                        _j,
                        _N,
                        [
                            assign(
                                idx("A", _i, _j),
                                idx("A", _i, _j) - idx("A", _i, _k) * idx("A", _j, _k),
                            )
                        ],
                    )
                ],
            ),
        ],
    )
    return Program(
        "cholesky_seq", PARAMS, (ArrayDecl("A", (_N, _N)),), (), (body,), outputs=("A",)
    )


def fusable() -> Program:
    """Figure-3(c)'s peeled form: ``k`` to N-1 with the last sqrt split off.

    At ``k = N`` the inner loops are empty, so peeling leaves only the final
    ``A(N,N) = sqrt(A(N,N))``.
    """
    seq = sequential()
    outer = seq.body[0]
    from repro.trans.peel import peel_last

    shortened, peeled = peel_last(outer)
    epilogue = (peeled[0],)  # the sqrt; the peeled empty loops are dropped
    return seq.with_body((shortened,) + epilogue).with_name("cholesky_fusable")


def fused_nest() -> FusedNest:
    """The Figure-3(c) fused form (:data:`FUSION` on :func:`fusable`)."""
    from repro.kernels.recipes import build_fused_nest

    return build_fused_nest(NAME)


def fixdeps_report() -> FixDepsReport:
    """FixDeps audit; expected: no collapses, no copies (legal as fused)."""
    return fix_dependences(fused_nest())


def fixed() -> Program:
    """The Figure-4(c) program."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "fixed")


def tiled(tile: int = 8) -> Program:
    """Sec. 4: tile the outermost ``k`` loop (point loop sunk inside j)."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "tiled", tile=tile)


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
