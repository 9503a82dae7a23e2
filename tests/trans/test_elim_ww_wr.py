"""Unit tests for ElimWW_WR (the tiling half of FixDeps)."""

import numpy as np

from repro.deps.fusionpreventing import violated_dependences
from repro.exec import run_compiled
from repro.kernels import lu, qr
from repro.kernels.recipes import build_fused_nest
from repro.trans.elim_ww_wr import eliminate_ww_wr
from tests.trans import shift_scale


class TestPerKernel:
    def test_cholesky_untouched(self):
        out = eliminate_ww_wr(build_fused_nest("cholesky"))
        assert out.collapsed_groups() == {}

    def test_jacobi_untouched(self):
        out = eliminate_ww_wr(build_fused_nest("jacobi"))
        assert out.collapsed_groups() == {}

    def test_lu_collapses_search_i(self):
        out = eliminate_ww_wr(build_fused_nest("lu"), value_ranges=lu.VALUE_RANGES)
        assert out.collapsed_groups() == {3: ("i",)}

    def test_qr_collapses_three_groups(self):
        out = eliminate_ww_wr(build_fused_nest("qr"))
        assert out.collapsed_groups() == {2: ("k",), 6: ("j",), 8: ("k",)}

    def test_theorem1_no_remaining_flow_output(self):
        # Mechanical Theorem 1: after the pass, zero flow/output violations.
        for nest, vr in [
            (build_fused_nest("lu"), lu.VALUE_RANGES),
            (build_fused_nest("qr"), None),
            (shift_scale.fused_nest(), None),
        ]:
            fixed = eliminate_ww_wr(nest, value_ranges=vr)
            assert (
                violated_dependences(
                    fixed.nest, ("flow", "output"), value_ranges=vr
                )
                == []
            )


class TestGeneratedCode:
    def test_lu_p_loop_emitted(self):
        out = eliminate_ww_wr(build_fused_nest("lu"), value_ranges=lu.VALUE_RANGES)
        text = str(out.nest.to_program())
        # the collapsed pivot search becomes a sweep loop at the origin
        assert "do is" in text
        assert "i .EQ. k" in text

    def test_qr_collapsed_code_correct(self):
        out = eliminate_ww_wr(build_fused_nest("qr"))
        program = out.nest.to_program("qr_elim")
        params = {"N": 9}
        inputs = qr.make_inputs(params)
        result = run_compiled(program, params, inputs)
        ref = qr.reference(params, inputs)
        assert np.allclose(result.arrays["A"], ref["A"], rtol=1e-9)

    def test_rounds_audit(self):
        out = eliminate_ww_wr(build_fused_nest("qr"))
        touched = [r for r in out.rounds if r.collapsed_dims]
        assert [r.group for r in touched] == [2, 6, 8]
        assert all(r.violations for r in touched)
