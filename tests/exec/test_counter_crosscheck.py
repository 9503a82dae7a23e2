"""Cross-check: compiled static counters == interpreter dynamic counters.

The compiler accumulates costs statically per block; the interpreter counts
every event as it happens. Agreement on loads/stores/branches/loop
iterations across all kernels and variants pins both accounting schemes.
"""

import pytest

from repro.exec.compiled import run_compiled
from repro.kernels.registry import KERNELS, get_kernel
from tests.exec.interp import CHECKED_COUNTERS, run_interpreted


_CASES = [
    (kernel, variant)
    for kernel in KERNELS + ("gauss_seidel",)
    for variant in ("sequential", "fixed", "tiled")
    # the extension kernel has no FixDeps stage (already a single nest)
    if not (kernel == "gauss_seidel" and variant == "fixed")
]


@pytest.mark.parametrize("kernel,variant", _CASES)
def test_counters_agree(kernel, variant):
    mod = get_kernel(kernel)
    if variant == "tiled":
        program = mod.tiled(4)
    elif variant == "fixed":
        program = mod.fixed()
    else:
        program = mod.sequential()
    params = {"N": 8}
    if "M" in mod.PARAMS:
        params["M"] = 3
    inputs = mod.make_inputs(params)
    a = run_compiled(program, params, inputs).counters
    b = run_interpreted(program, params, inputs).counters
    for field in CHECKED_COUNTERS:
        assert getattr(a, field) == getattr(b, field), (kernel, variant, field)


def test_select_arm_loads_counted_dynamically():
    """Only the taken Select arm's loads count — in both engines."""
    from repro.ir.builder import assign, cge, idx, loop, sym
    from repro.ir.expr import Select
    from repro.ir.program import ArrayDecl, Program

    N, i = sym("N"), sym("i")
    body = loop(
        "i",
        1,
        N,
        [
            assign(
                idx("C", i),
                Select(cge(i, 3), idx("A", i), idx("B", i)),
            )
        ],
    )
    p = Program(
        "sel",
        ("N",),
        (ArrayDecl("A", (N,)), ArrayDecl("B", (N,)), ArrayDecl("C", (N,))),
        (),
        (body,),
    )
    a = run_compiled(p, {"N": 6}).counters
    b = run_interpreted(p, {"N": 6}).counters
    assert a.loads == b.loads == 6  # one arm per iteration
    assert a.branches == b.branches == 6
