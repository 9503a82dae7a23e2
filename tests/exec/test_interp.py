"""Unit tests for the tree-walking interpreter, including the
compiled-vs-interpreted agreement checks that guard the code generator."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import run_compiled
from repro.ir.builder import assign, cgt, idx, if_, loop, sqrt, sym, val
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from tests.exec.interp import run_interpreted

N, i, j = sym("N"), sym("i"), sym("j")


class TestSemantics:
    def test_bounds_checked(self):
        p = Program(
            "t", ("N",), (ArrayDecl("A", (N,)),), (), (assign(idx("A", N + 1), 0.0),)
        )
        with pytest.raises(ExecutionError):
            run_interpreted(p, {"N": 3})

    def test_non_integer_subscript_rejected(self):
        p = Program(
            "t",
            ("N",),
            (ArrayDecl("A", (N,)),),
            (ScalarDecl("x"),),
            (assign("x", 1.5), assign(idx("A", sym("x")), 0.0)),
        )
        with pytest.raises(ExecutionError):
            run_interpreted(p, {"N": 3})

    def test_unbound_variable(self):
        p = Program(
            "t",
            ("N",),
            (ArrayDecl("A", (N,)),),
            (),
            (loop("i", 1, N, [assign(idx("A", sym("i")), 0.0)]),),
        )
        # fine: loop binds i
        run_interpreted(p, {"N": 2})

    def test_min_max_intrinsics(self):
        from repro.ir.builder import fmax, fmin

        p = Program(
            "t", (), (), (ScalarDecl("x"),),
            (assign("x", fmin(val(3.0), fmax(val(1.0), val(2.0)))),),
        )
        assert run_interpreted(p, {}).scalars["x"] == 2.0

    def test_negative_step_rejected(self):
        p = Program(
            "t", ("N",), (ArrayDecl("A", (N,)),), (),
            (loop("i", 1, N, [assign(idx("A", sym("i")), 0.0)], step=0),),
        )
        with pytest.raises(ExecutionError):
            run_interpreted(p, {"N": 2})


class TestAgreementWithCompiled:
    """The interpreter is the oracle for the code generator."""

    @pytest.mark.parametrize("kernel_name", ["lu", "qr", "cholesky", "jacobi"])
    @pytest.mark.parametrize("variant", ["sequential", "fixed"])
    def test_kernels_agree(self, kernel_name, variant):
        from repro.kernels.registry import get_kernel

        mod = get_kernel(kernel_name)
        program = getattr(mod, variant)()
        params = {"N": 7}
        if "M" in mod.PARAMS:
            params["M"] = 3
        inputs = mod.make_inputs(params)
        a = run_compiled(program, params, inputs)
        b = run_interpreted(program, params, inputs)
        for name in program.outputs:
            if name in a.arrays:
                assert np.allclose(a.arrays[name], b.arrays[name], rtol=1e-12)

    def test_guard_heavy_program_agrees(self, rng):
        body = loop(
            "i",
            1,
            N,
            [
                loop(
                    "j",
                    1,
                    N,
                    [
                        if_(
                            cgt(idx("A", i, j), 0.5),
                            assign(idx("A", i, j), idx("A", i, j) * 0.5),
                            assign(idx("A", i, j), idx("A", i, j) + 1.0),
                        )
                    ],
                )
            ],
        )
        p = Program("t", ("N",), (ArrayDecl("A", (N, N)),), (), (body,))
        a0 = rng.random((6, 6))
        ra = run_compiled(p, {"N": 6}, {"A": a0})
        rb = run_interpreted(p, {"N": 6}, {"A": a0})
        assert np.allclose(ra.arrays["A"], rb.arrays["A"])


def _elementwise(rhs):
    """B(i) = rhs over i = 1..N."""
    return Program(
        "arith",
        ("N",),
        (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))),
        (),
        (loop("i", 1, N, [assign(idx("B", i), rhs)]),),
    )


#: engine -> run(program, params, inputs)
_ENGINES = {"interp": run_interpreted, "compiled": run_compiled}


@pytest.mark.parametrize("engine", sorted(_ENGINES))
@pytest.mark.parametrize(
    "rhs",
    [sqrt(idx("A", i)), idx("A", i) / 0.0],
    ids=["negative_sqrt", "divide_by_zero"],
)
def test_arithmetic_failure_is_execution_error(engine, rhs):
    """A math domain error or a division by zero surfaces as the typed
    ExecutionError, naming the program, whichever engine runs it."""
    with pytest.raises(ExecutionError, match="arith"):
        _ENGINES[engine](_elementwise(rhs), {"N": 40}, {"A": -np.ones(40)})
