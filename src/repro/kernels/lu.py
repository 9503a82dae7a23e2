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

from typing import Mapping

import numpy as np

from repro.deps.access import ValueRange
from repro.ir import (
    ArrayDecl,
    Program,
    ScalarDecl,
    assign,
    cgt,
    cne,
    idx,
    if_,
    loop,
    sym,
)
from repro.ir.builder import fabs
from repro.kernels.inputs import default_rng
from repro.pipeline.passes import FusionSpec
from repro.trans.fixdeps import FixDepsReport, fix_dependences
from repro.trans.fusion import NestEmbedding
from repro.trans.model import FusedNest
from repro.trans.peel import peel_last

NAME = "lu"
PARAMS = ("N",)
DEFAULT_PARAMS = {"N": 32}

_N = sym("N")
_k, _j, _i = sym("k"), sym("j"), sym("i")
_m, _temp, _d = sym("m"), sym("temp"), sym("d")

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


def _step_items():
    """The five items of one elimination step (Fig. 1a body)."""
    search = loop(
        "i",
        _k,
        _N,
        [
            assign("d", idx("A", _i, _k)),
            if_(cgt(fabs(_d), _temp), [assign("temp", fabs(_d)), assign("m", _i)]),
        ],
    )
    swap = if_(
        cne(_m, _k),
        loop(
            "j",
            _k,
            _N,
            [
                assign("temp", idx("A", _k, _j)),
                assign(idx("A", _k, _j), idx("A", _m, _j)),
                assign(idx("A", _m, _j), _temp),
            ],
        ),
    )
    scale = loop(
        "i", _k + 1, _N, [assign(idx("A", _i, _k), idx("A", _i, _k) / idx("A", _k, _k))]
    )
    update = loop(
        "j",
        _k + 1,
        _N,
        [
            loop(
                "i",
                _k + 1,
                _N,
                [
                    assign(
                        idx("A", _i, _j),
                        idx("A", _i, _j) - idx("A", _i, _k) * idx("A", _k, _j),
                    )
                ],
            )
        ],
    )
    return [assign("temp", 0.0), assign("m", _k), search, swap, scale, update]


def _swap_col(col):
    """Exchange rows k and m within one column (guarded by m != k)."""
    return if_(
        cne(_m, _k),
        [
            assign("temp", idx("A", _k, col)),
            assign(idx("A", _k, col), idx("A", _m, col)),
            assign(idx("A", _m, col), _temp),
        ],
    )


def _fusable_items():
    """The Fig-1a step with the swap's first column peeled off.

    The swap loop ``do j = k, N`` becomes the column-k exchange plus a loop
    over the trailing columns. This lets the trailing swaps be embedded
    along the fused ``j`` dimension (lazy per-column swaps), which — unlike
    the Fig. 3a embedding along ``i`` — admits the paper's final ``k``-loop
    tiling: a whole-row swap at the head of step ``k`` would have to follow
    every pending update of earlier steps in the same tile, making the
    ``k`` loop unblockable under conservative (fuzzy-``m``) dependences.
    """
    items = _step_items()
    swap_cols = loop("j", _k + 1, _N, list(_swap_col(_j).then))
    # Keep the guard outside the loop as in Fig. 1; sinking pushes it in.
    swap_cols = if_(cne(_m, _k), swap_cols)
    items[3:4] = [_swap_col(_k), swap_cols]
    return items


def _decls():
    return (
        (ArrayDecl("A", (_N, _N)),),
        (ScalarDecl("temp"), ScalarDecl("m", "i8"), ScalarDecl("d")),
    )


def sequential() -> Program:
    """The Figure-1(a) program."""
    arrays, scalars = _decls()
    body = loop("k", 1, _N, _step_items())
    return Program("lu_seq", PARAMS, arrays, scalars, (body,), outputs=("A",))


def fusable() -> Program:
    """The peeled form fed to fusion: ``k`` to N-1 with the last step as an
    epilogue (as in Fig. 3a), and the swap's first column split off (see
    :func:`_fusable_items`)."""
    arrays, scalars = _decls()
    outer = loop("k", 1, _N, _fusable_items())
    shortened, peeled = peel_last(outer)
    return Program(
        "lu_fusable",
        PARAMS,
        arrays,
        scalars,
        (shortened,) + peeled,
        outputs=("A",),
    )


def fused_nest() -> FusedNest:
    """The fused form (:data:`FUSION` applied to :func:`fusable`)."""
    from repro.kernels.recipes import build_fused_nest

    return build_fused_nest(NAME)


def fixdeps_report() -> FixDepsReport:
    """FixDeps audit; expected: collapse i of the pivot search, no copies."""
    return fix_dependences(fused_nest(), value_ranges=VALUE_RANGES)


def fixed() -> Program:
    """The Figure-4(a) form (pivot search as the ``P`` sweep loop)."""
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "fixed")


def tiled(tile: int = 8) -> Program:
    """Sec. 4: tile the outermost ``k`` loop (point loop inside ``j``).

    The pivot row ``m`` is array-expanded over ``k`` first: with ``k``
    inside ``j``, searches of different steps interleave with the lazy
    column swaps, so each step needs its own pivot cell.
    """
    from repro.kernels.recipes import build_variant

    return build_variant(NAME, "tiled", tile=tile)


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
