"""Tests for the Gauss–Seidel extension kernel."""

import numpy as np
import pytest

from repro.exec import run_compiled
from repro.kernels import gauss_seidel as gs
from repro.kernels.recipes import build_variant
from repro.kernels.registry import EXTENSION_KERNELS, get_kernel


class TestSemantics:
    @pytest.mark.parametrize("n,m", [(8, 2), (12, 5), (17, 3)])
    def test_sequential_matches_reference(self, n, m):
        params = {"N": n, "M": m}
        inputs = gs.make_inputs(params)
        out = run_compiled(gs.sequential(), params, inputs)
        assert np.allclose(out.arrays["A"], gs.reference(params, inputs)["A"])

    @pytest.mark.parametrize("tile", [3, 5, 8])
    def test_tiled_matches_reference(self, tile):
        params = {"N": 14, "M": 4}
        inputs = gs.make_inputs(params)
        program = build_variant("gauss_seidel", "tiled", tile=tile)
        out = run_compiled(program, params, inputs)
        assert np.allclose(out.arrays["A"], gs.reference(params, inputs)["A"])

    def test_in_place_update_differs_from_jacobi(self):
        from repro.kernels import jacobi

        params = {"N": 10, "M": 1}
        inputs = gs.make_inputs(params)
        a_gs = run_compiled(gs.sequential(), params, inputs).arrays["A"]
        a_ja = run_compiled(jacobi.sequential(), params, inputs).arrays["A"]
        assert not np.allclose(a_gs, a_ja)


class TestLegality:
    def test_raw_nest_not_permutable(self):
        from repro.trans.legality import fully_permutable_under

        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert not fully_permutable_under(gs.sequential().body[0], ident)

    def test_unit_skew_proven_permutable(self):
        from repro.trans.legality import fully_permutable_under
        from repro.trans.skew import matmul, permutation_matrix, skew_matrix

        U = matmul(permutation_matrix(gs.ORDER), skew_matrix(3, gs.SKEWS))
        assert fully_permutable_under(gs.sequential().body[0], U)


class TestRegistry:
    def test_reachable_by_name(self):
        assert get_kernel("gauss_seidel") is gs
        assert "gauss_seidel" in EXTENSION_KERNELS

    def test_tiling_pays_off(self):
        from repro.exec.compiled import CompiledProgram
        from repro.machine import measure_streaming, octane2_scaled

        # N=88: the field (61 KB) exceeds the scaled 32 KB L2.
        params = {"N": 88, "M": 8}
        inputs = gs.make_inputs(params)
        machine = octane2_scaled()
        reports = {}
        tiled = build_variant("gauss_seidel", "tiled", tile=11)
        for label, prog in (("seq", gs.sequential()), ("tiled", tiled)):
            cp = CompiledProgram(prog, trace=True)
            _, reports[label] = measure_streaming(cp, params, machine, inputs)
        assert reports["tiled"].l2_misses < reports["seq"].l2_misses / 4
        assert reports["tiled"].total_cycles < reports["seq"].total_cycles
