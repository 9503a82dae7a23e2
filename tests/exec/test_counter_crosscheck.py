"""Cross-check: compiled static counters == interpreter dynamic counters.

The compiler accumulates costs statically per block and adds a loop
body's unconditional costs once per loop entry; the interpreter counts
every event as it happens. Agreement on loads/stores/branches/loop
iterations across all kernels and variants pins both accounting schemes.
Every registry recipe's traced run must also match the interpreter's
memory and branch traces event for event.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import run_compiled
from repro.experiments.runner import build_program
from repro.kernels.recipes import build_variant
from repro.kernels.registry import ALL_KERNELS, KERNELS, get_kernel, variants_for
from tests.exec.interp import CHECKED_COUNTERS, crosscheck_traces, run_interpreted


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
        program = build_variant(kernel, "tiled", tile=4)
    elif variant == "fixed":
        program = build_variant(kernel, "fixed")
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


@pytest.mark.parametrize(
    "kernel,variant",
    [pytest.param(k, v, id=f"{k}-{v}") for k in ALL_KERNELS for v in variants_for(k)],
)
def test_traces_agree(kernel, variant):
    tile = 4 if variant in ("tiled", "tiled_sunk") else None
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": 8}
    if "M" in mod.PARAMS:
        params["M"] = 3
    inputs = mod.make_inputs(params, np.random.default_rng(7))
    if (kernel, variant) == ("qr", "fused"):
        # Fusion without FixDeps breaks QR: both engines divide by zero.
        for engine in (run_compiled, run_interpreted):
            with pytest.raises(ExecutionError, match="division by zero"):
                engine(program, params, inputs)
        return
    crosscheck_traces(program, params, inputs)


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
