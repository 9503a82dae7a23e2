"""A user kernel outside the registry: the shift/scale producer-consumer
pair of ``examples/fix_your_own_kernel.py`` (one fusion-preventing flow
dependence through the running scalar ``s`` and one anti-dependence on
``A``), fused with identity embeddings. Shared by the FixDeps, ElimWW_WR
and legality tests.
"""

import numpy as np

from repro.ir import val
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.trans.cleanup import scalarize_arrays
from repro.trans.fixdeps import fix_dependences
from repro.trans.fusion import NestEmbedding, fuse_siblings
from repro.trans.model import FusedNest

N = sym("N")
FUSED_LOOPS = [("i", val(3), N - 2)]


def shift_scale() -> Program:
    i = sym("i")
    nest1 = loop(
        "i",
        3,
        N - 2,
        [
            assign("s", sym("s") + idx("A", i)),
            assign(idx("B", i), idx("A", i - 1)),
        ],
    )
    nest2 = loop("i", 3, N - 2, [assign(idx("A", i), idx("B", i) * 0.5 + sym("s"))])
    return Program(
        "shift_scale",
        ("N",),
        (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))),
        (ScalarDecl("s"),),
        (nest1, nest2),
        outputs=("A", "B"),
    )


def fused_nest() -> FusedNest:
    ident = NestEmbedding(var_map={"i": "i"})
    return fuse_siblings(shift_scale(), FUSED_LOOPS, [ident, ident])


def fixed() -> Program:
    """FixDeps, then scalarisation: one perfect 1-D nest."""
    report = fix_dependences(fused_nest())
    return scalarize_arrays(report.program("shift_scale_fixed"), None)


def make_inputs(params):
    rng = np.random.default_rng(11)
    return {"A": rng.uniform(-1, 1, params["N"]), "B": np.zeros(params["N"])}
