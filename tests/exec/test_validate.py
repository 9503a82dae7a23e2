"""Unit tests for the equivalence checker."""

import pytest

from repro.errors import ValidationError
from repro.exec.validate import assert_equivalent, compare_outputs
from repro.exec.compiled import run_compiled
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program

N, i = sym("N"), sym("i")


def fill(value: float, name: str = "p") -> Program:
    return Program(
        name,
        ("N",),
        (ArrayDecl("A", (N,)),),
        (),
        (loop("i", 1, N, [assign(idx("A", i), value)]),),
    )


class TestCompareOutputs:
    def test_identical(self):
        a = run_compiled(fill(1.0), {"N": 4})
        b = run_compiled(fill(1.0, "q"), {"N": 4})
        assert compare_outputs(a, b, ("A",)) == []

    def test_differences_reported(self):
        a = run_compiled(fill(1.0), {"N": 4})
        b = run_compiled(fill(2.0, "q"), {"N": 4})
        problems = compare_outputs(a, b, ("A",))
        assert problems and "A" in problems[0]

    def test_missing_output(self):
        a = run_compiled(fill(1.0), {"N": 4})
        problems = compare_outputs(a, a, ("B",))
        assert "missing" in problems[0]


class TestAssertEquivalent:
    def test_passes(self):
        assert_equivalent(fill(3.0), fill(3.0, "q"), {"N": 5})

    def test_raises_with_location(self):
        with pytest.raises(ValidationError) as exc:
            assert_equivalent(fill(1.0), fill(2.0, "q"), {"N": 5})
        assert "N" in str(exc.value)

    def test_extra_arrays_in_transformed_ignored(self):
        original = fill(1.0)
        transformed = Program(
            "q",
            ("N",),
            (ArrayDecl("A", (N,)), ArrayDecl("H", (N,))),
            (),
            (
                loop("i", 1, N, [assign(idx("H", i), 9.0)]),
                loop("i", 1, N, [assign(idx("A", i), 1.0)]),
            ),
            outputs=("A",),
        )
        assert_equivalent(original, transformed, {"N": 4}, outputs=("A",))
