"""End-to-end tests of the optimisation driver."""

import numpy as np

from repro.ir import val
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.pipeline import optimize_program

N = sym("N")


def shift_scale() -> Program:
    """The fix_your_own_kernel example program (flow + anti violations)."""
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


#: Audit trail of ``shift_scale`` optimised without validation inputs.
UNVALIDATED_NOTES = [
    "fused with derived boundary embeddings",
    "ElimWW_WR collapsed dimensions: {1: ('i',)}",
    "tiling proven legal (fully permutable), tile 11",
]


def inputs_for(params):
    rng = np.random.default_rng(11)
    return {"A": rng.uniform(-1, 1, params["N"]), "B": np.zeros(params["N"])}


class TestOptimizeProgram:
    def test_full_run_with_validation(self):
        result = optimize_program(
            shift_scale(),
            [("i", val(3), N - 2)],
            validate_inputs=inputs_for,
            validate_sizes=({"N": 10}, {"N": 17}),
        )
        assert result.fixdeps.ww_wr.collapsed_groups() == {1: ("i",)}
        assert result.notes == [
            "fused with derived boundary embeddings",
            "ElimWW_WR collapsed dimensions: {1: ('i',)}",
            "fixed program validated at [{'N': 10}, {'N': 17}]",
            "tiling proven legal (fully permutable), tile 11",
        ]
        assert result.tile == 11 and result.tiled is not None
        assert result.best is not None

    def test_without_validation_tiling_gated_by_proof(self):
        result = optimize_program(shift_scale(), [("i", val(3), N - 2)])
        # without validation inputs, tiling happens only because the
        # full-permutability proof succeeds on the fixed nest.
        assert result.notes == UNVALIDATED_NOTES
        assert result.tile == 11 and result.tiled is not None

    def test_jacobi_through_driver(self):
        from repro.kernels import jacobi

        result = optimize_program(
            jacobi.fusable(),
            [("i", val(2), N - 1), ("j", val(2), N - 1)],
            context_depth=1,
            validate_inputs=lambda p: jacobi.make_inputs(p),
            validate_sizes=({"N": 9, "M": 3},),
        )
        # the fixed Jacobi nest is not fully permutable as it stands (its
        # time loop needs the skew), so tiling is validated by execution.
        assert result.notes == [
            "fused with derived boundary embeddings",
            "ElimRW introduced 'H_A' for 'A' (2 pre-copied, 0 guarded reads)",
            "scalarised temporaries: ['L']",
            "fixed program validated at [{'N': 9, 'M': 3}]",
            "tiling validated by execution, tile 11",
        ]
        assert result.tile == 11 and result.tiled is not None
        # sanity: the driver's best program reproduces the reference
        from repro.exec import run_compiled

        params = {"N": 11, "M": 4}
        inputs = jacobi.make_inputs(params)
        out = run_compiled(result.best, params, inputs)
        assert np.allclose(out.arrays["A"], jacobi.reference(params, inputs)["A"])

    def test_legal_fusion_notes_no_changes(self):
        i = sym("i")
        n1 = loop("i", 1, N, [assign(idx("A", i), 1.0)])
        n2 = loop("i", 1, N, [assign(idx("B", i), idx("A", i))])
        p = Program(
            "legal", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (), (n1, n2)
        )
        result = optimize_program(
            p,
            [("i", val(1), N)],
            validate_inputs=lambda params: {"A": np.zeros(params["N"])},
            validate_sizes=({"N": 8},),
        )
        assert result.notes == [
            "fused with derived boundary embeddings",
            "fusion already legal; FixDeps changed nothing",
            "fixed program validated at [{'N': 8}]",
            "tiling proven legal (fully permutable), tile 11",
        ]
        # 1-D "tiling" = strip-mining, legal
        assert result.tile == 11 and result.tiled is not None

    def test_audit_trail_nonempty(self):
        result = optimize_program(shift_scale(), [("i", val(3), N - 2)])
        assert result.notes == UNVALIDATED_NOTES
        assert result.tile == 11 and result.tiled is not None
