"""Unit tests for ElimRW (the copying half of FixDeps)."""

import numpy as np
import pytest

from repro.exec import run_compiled
from repro.ir import pretty
from repro.kernels import jacobi
from repro.kernels.recipes import build_fused_nest
from repro.trans.elim_rw import eliminate_rw
from repro.trans.elim_ww_wr import eliminate_ww_wr


@pytest.fixture(scope="module")
def jacobi_prepared():
    return eliminate_ww_wr(build_fused_nest("jacobi")).nest


class TestJacobiCopies:
    def test_copy_array_introduced(self, jacobi_prepared):
        out = eliminate_rw(jacobi_prepared)
        (ins,) = out.insertions
        assert ins.array == "A" and ins.copy_array == "H_A"
        assert out.nest.base.has_array("H_A")

    def test_precopy_simplification_applies(self, jacobi_prepared):
        out = eliminate_rw(jacobi_prepared)
        (ins,) = out.insertions
        # both backward-neighbour reads are pre-copied (boundary strips)
        assert ins.precopied_reads == 2 and ins.redirected_reads == 0
        assert out.nest.preamble  # boundary copy loops exist

    def test_exact_mode_uses_guarded_select(self, jacobi_prepared):
        out = eliminate_rw(jacobi_prepared, simplify=False)
        (ins,) = out.insertions
        assert ins.redirected_reads == 2
        text = pretty(out.nest.to_program())
        assert "merge(" in text

    def test_widen_vs_exact_copies(self, jacobi_prepared):
        widened = eliminate_rw(jacobi_prepared, widen_copies=True)
        exact = eliminate_rw(jacobi_prepared, widen_copies=False)
        w_text = pretty(widened.nest.to_program())
        e_text = pretty(exact.nest.to_program())
        # widened copy is unguarded (Fig. 4d); exact copies carry guards
        assert "H_A(j,i) = A(j,i)" in w_text
        assert e_text.count("if (") > w_text.count("if (")

    @pytest.mark.parametrize("simplify", [True, False])
    @pytest.mark.parametrize("widen", [True, False])
    def test_all_modes_semantically_correct(self, jacobi_prepared, simplify, widen):
        out = eliminate_rw(jacobi_prepared, simplify=simplify, widen_copies=widen)
        program = out.nest.to_program("jacobi_rw")
        params = {"N": 9, "M": 3}
        inputs = jacobi.make_inputs(params)
        result = run_compiled(program, params, inputs)
        ref = jacobi.reference(params, inputs)
        assert np.allclose(result.arrays["A"], ref["A"])

    def test_copy_placed_in_second_group(self, jacobi_prepared):
        out = eliminate_rw(jacobi_prepared)
        g2 = next(g for g in out.nest.groups if g.index == 2)
        assert g2.prologue, "copies must precede the writeback group"

    def test_no_violations_no_changes(self):
        nest = eliminate_ww_wr(build_fused_nest("cholesky")).nest
        out = eliminate_rw(nest)
        assert out.insertions == ()
        assert out.nest is nest
