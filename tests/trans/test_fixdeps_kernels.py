"""FixDeps end-to-end per kernel: the executable Theorems 1 and 2.

For every kernel and several problem sizes, the fixed (Figure-4) program
must have the same input/output behaviour as the sequential (Figure-1)
program — and so must the fusable pre-form and the final tiled variant.
"""

import numpy as np
import pytest

from repro.exec import assert_equivalent, run_compiled
from repro.kernels import lu
from repro.kernels.recipes import build_fused_nest, build_variant
from repro.kernels.registry import KERNELS, get_kernel
from repro.kernels.validation import ATOL, RTOL
from repro.trans.fixdeps import fix_dependences
from repro.trans.splitting import undo_sinking
from repro.trans.tiling import tile_program
from tests.trans import shift_scale

SIZES = (6, 9, 13)
TILES = (3, 5)


def _params(mod, n):
    p = {"N": n}
    if "M" in mod.PARAMS:
        p["M"] = 4
    return p


def _check(mod, program, n):
    params = _params(mod, n)
    inputs = mod.make_inputs(params)
    ref = mod.reference(params, inputs)
    out = run_compiled(program, params, inputs)
    for name in program.outputs:
        if name in ref:
            assert np.allclose(
                out.arrays[name], ref[name], rtol=RTOL, atol=ATOL
            ), f"{program.name} diverges on {name} at N={n}"


@pytest.mark.parametrize("kernel", KERNELS)
class TestVariantsEquivalent:
    def test_sequential_matches_reference(self, kernel):
        mod = get_kernel(kernel)
        for n in SIZES:
            _check(mod, mod.sequential(), n)

    def test_fusable_matches_reference(self, kernel):
        mod = get_kernel(kernel)
        for n in SIZES:
            _check(mod, mod.fusable(), n)

    def test_fixed_matches_reference(self, kernel):
        mod = get_kernel(kernel)
        fixed = build_variant(kernel, "fixed")
        for n in SIZES:
            _check(mod, fixed, n)

    def test_tiled_matches_reference(self, kernel):
        mod = get_kernel(kernel)
        for tile in TILES:
            tiled = build_variant(kernel, "tiled", tile=tile)
            for n in SIZES:
                _check(mod, tiled, n)


class TestPaperFindings:
    def test_lu_fix_is_the_p_loop(self):
        report = fix_dependences(
            build_fused_nest("lu"), value_ranges=lu.VALUE_RANGES
        )
        assert report.ww_wr.collapsed_groups() == {3: ("i",)}
        assert report.rw.insertions == ()

    def test_qr_fix_includes_norm_collapse(self):
        report = fix_dependences(build_fused_nest("qr"))
        assert 2 in report.ww_wr.collapsed_groups()
        assert report.rw.insertions == ()

    def test_cholesky_needs_nothing(self):
        report = fix_dependences(build_fused_nest("cholesky"))
        assert report.ww_wr.collapsed_groups() == {}
        assert report.rw.insertions == ()

    def test_jacobi_fixed_by_copying_only(self):
        report = fix_dependences(build_fused_nest("jacobi"))
        assert report.ww_wr.collapsed_groups() == {}
        assert [i.array for i in report.rw.insertions] == ["A"]

    def test_no_extra_space_for_factorisations(self):
        # Sec. 3.2: "No extra memory space is introduced for these kernels."
        for kernel in ("lu", "qr", "cholesky"):
            mod = get_kernel(kernel)
            seq_arrays = {a.name for a in mod.sequential().arrays}
            fixed_arrays = {a.name for a in build_variant(kernel, "fixed").arrays}
            assert fixed_arrays == seq_arrays

    def test_jacobi_fixed_matches_figure4d_shape(self):
        from repro.ir import pretty

        text = pretty(build_variant("jacobi", "fixed"))
        assert "H_A(j,i) = A(j,i)" in text  # per-iteration copy
        assert text.count("do c") >= 2  # boundary pre-copy loops
        assert "merge(" not in text  # guards simplified away


class TestShiftScale:
    """A user kernel through the public building blocks: fuse with identity
    embeddings, FixDeps, scalarise, tile, undo sinking."""

    def test_flow_violation_collapses_i(self):
        report = fix_dependences(shift_scale.fused_nest())
        assert report.ww_wr.collapsed_groups() == {1: ("i",)}
        assert report.rw.insertions == ()

    @pytest.mark.parametrize("tile", [3, 11])
    def test_fixed_and_tiled_match_source(self, tile):
        source = shift_scale.shift_scale()
        fixed = shift_scale.fixed()
        tiled = undo_sinking(tile_program(fixed, {"i": tile}))
        # N = 17 spans several tiles of 3 and two of 11
        for n in (10, 17):
            params = {"N": n}
            for candidate in (fixed, tiled):
                assert_equivalent(
                    source, candidate, params, shift_scale.make_inputs(params)
                )
