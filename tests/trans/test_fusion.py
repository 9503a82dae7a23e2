"""Unit tests for embeddings and fused-nest construction."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.exec import run_compiled
from repro.ir import pretty
from repro.ir.builder import assign, idx, loop, sym, val
from repro.ir.program import ArrayDecl, Program
from repro.kernels import jacobi
from repro.kernels.recipes import build_fused_nest
from repro.trans.fusion import NestEmbedding, fuse_siblings

N, i, j, k = sym("N"), sym("i"), sym("j"), sym("k")


def two_nests() -> Program:
    a_fill = loop("i", 1, N, [assign(idx("A", i), 1.0)])
    b_fill = loop("i", 1, N, [assign(idx("B", i), idx("A", i) * 2.0)])
    return Program(
        "p", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (), (a_fill, b_fill)
    )


class TestFuseSiblings:
    def test_basic_fusion_runs_and_is_correct(self):
        ident = NestEmbedding(var_map={"i": "i"})
        nest = fuse_siblings(two_nests(), [("i", val(1), N)], [ident, ident])
        fused = nest.to_program()
        out = run_compiled(fused, {"N": 5})
        # legal here: element-wise producer/consumer at same iteration
        assert np.allclose(out.arrays["B"], 2.0)

    def test_group_count_and_indices(self):
        ident = NestEmbedding(var_map={"i": "i"})
        nest = fuse_siblings(two_nests(), [("i", val(1), N)], [ident, ident])
        assert [g.index for g in nest.groups] == [1, 2]

    def test_embedding_count_mismatch(self):
        with pytest.raises(TransformError):
            fuse_siblings(two_nests(), [("i", val(1), N)], [NestEmbedding({"i": "i"})])

    def test_unmapped_loop_var_rejected(self):
        with pytest.raises(TransformError):
            fuse_siblings(
                two_nests(), [("i", val(1), N)], [NestEmbedding(), NestEmbedding()]
            )

    def test_placement_outside_space_rejected(self):
        # place a depth-0 statement at i = N + 1, outside [1, N]
        p = Program(
            "p",
            ("N",),
            (ArrayDecl("A", (N,)),),
            (),
            (assign(idx("A", val(1)), 1.0), loop("i", 1, N, [assign(idx("A", i), 2.0)])),
        )
        with pytest.raises(TransformError):
            fuse_siblings(
                p,
                [("i", val(1), N)],
                [NestEmbedding(placement={"i": N + 1}), NestEmbedding(var_map={"i": "i"})],
            )

    def test_non_injective_var_map_rejected(self):
        p = Program(
            "p",
            ("N",),
            (ArrayDecl("C", (N, N)),),
            (),
            (
                loop("i", 1, N, [loop("j", 1, N, [assign(idx("C", i, j), 1.0)])]),
            ),
        )
        with pytest.raises(TransformError):
            fuse_siblings(
                p,
                [("x", val(1), N), ("y", val(1), N)],
                [NestEmbedding(var_map={"i": "x", "j": "x"})],
            )


class TestKernelFusions:
    def test_jacobi_matches_figure3d_shape(self):
        text = pretty(build_fused_nest("jacobi").to_program())
        # one t loop, one i loop, one j loop, both statements in one body
        assert text.count("do ") == 3

    def test_cholesky_matches_figure3c_guards(self):
        text = pretty(build_fused_nest("cholesky").to_program())
        assert "j .EQ. k + 1 .AND. i .EQ. k + 1" in text or (
            "i .EQ. k + 1" in text and "j .EQ. k + 1" in text
        )

    def test_fused_jacobi_is_wrong_without_fixing(self):
        params = {"N": 8, "M": 2}
        inputs = jacobi.make_inputs(params)
        fused = build_fused_nest("jacobi").to_program()
        out = run_compiled(fused, params, inputs)
        ref = jacobi.reference(params, inputs)
        assert not np.allclose(out.arrays["A"], ref["A"])

    def test_epilogue_preserved(self):
        prog = build_fused_nest("cholesky").to_program()
        assert "A(N,N) = sqrt(A(N,N))" in pretty(prog)
