"""Boundary sizes: every kernel variant at the smallest meaningful N.

The analyses assume parameters of at least ``repro.poly.integer.PARAM_LO``
(4); these tests pin correct behaviour exactly at that floor (and just
above), where peeled iterations, boundary copies and partial tiles all
degenerate.
"""

import numpy as np
import pytest

from repro.exec import run_compiled
from repro.kernels.recipes import build_variant
from repro.kernels.registry import KERNELS, get_kernel


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("n", [4, 5])
def test_variants_at_minimum_size(kernel, n):
    mod = get_kernel(kernel)
    params = {"N": n}
    if "M" in mod.PARAMS:
        params["M"] = 1
    inputs = mod.make_inputs(params)
    ref = mod.reference(params, inputs)
    for program in (
        mod.sequential(),
        mod.fusable(),
        build_variant(kernel, "fixed"),
        build_variant(kernel, "tiled", tile=3),
    ):
        out = run_compiled(program, params, inputs)
        for name in program.outputs:
            if name in ref:
                assert np.allclose(
                    out.arrays[name], ref[name], rtol=1e-8, atol=1e-10
                ), (kernel, program.name, n)


def test_jacobi_n4_boundary_only():
    # N = 4: interior is 2x2; boundary pre-copies cover strips of length 2.
    mod = get_kernel("jacobi")
    params = {"N": 4, "M": 2}
    inputs = mod.make_inputs(params)
    out = run_compiled(build_variant("jacobi", "fixed"), params, inputs)
    assert np.allclose(out.arrays["A"], mod.reference(params, inputs)["A"])


def test_gauss_seidel_minimum():
    mod = get_kernel("gauss_seidel")
    params = {"N": 4, "M": 1}
    inputs = mod.make_inputs(params)
    out = run_compiled(build_variant("gauss_seidel", "tiled", tile=2), params, inputs)
    assert np.allclose(out.arrays["A"], mod.reference(params, inputs)["A"])
