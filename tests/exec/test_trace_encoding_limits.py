"""Layout-time validation of the memory event form.

A memory event is ``byte_address << 1 | is_write`` in one ``int64``, so
every byte address must lie below 2**62; a larger one would overflow the
shift. The layout refuses such a program up front, naming it and the
array, before any storage is allocated.
"""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram
from repro.ir.builder import assign, idx, loop, sym, val
from repro.ir.program import ArrayDecl, Program
from repro.machine.layout import ADDRESS_LIMIT, layout_for_program

N = sym("N")

#: A(4) takes bytes 0..31, so B starts at the next 128-byte boundary, and
#: B(N)'s last byte is 128 + 8 N - 1: below 2**62 up to this N.
LARGEST_N = (ADDRESS_LIMIT - 128) // 8


def two_arrays():
    return Program(
        "big",
        ("N",),
        (ArrayDecl("A", (val(4),)), ArrayDecl("B", (N,))),
        (),
        (assign(idx("B", val(1)), 1.0),),
    )


class TestCheckAddressable:
    def test_limit_is_62_bits(self):
        assert ADDRESS_LIMIT == 1 << 62
        assert (ADDRESS_LIMIT - 1) << 1 | 1 == np.iinfo(np.int64).max

    def test_boundary_is_inclusive(self):
        # B's last byte may be 2**62 - 1, not one element more.
        layout = layout_for_program(two_arrays(), {"N": LARGEST_N})
        assert layout.bases["B"] + 8 * LARGEST_N - 1 == ADDRESS_LIMIT - 1
        last = ADDRESS_LIMIT + 7
        with pytest.raises(ExecutionError, match=f"big: array B ends at byte address {last};"):
            layout_for_program(two_arrays(), {"N": LARGEST_N + 1})

    def test_exact_element_counts(self):
        # (2**21)**3 = 2**63 elements: the count itself overflows int64,
        # and the guard still sees it.
        cubed = Program(
            "cubed", ("N",), (ArrayDecl("A", (N, N, N)),), (),
            (assign(idx("A", val(1), val(1), val(1)), 1.0),),
        )
        with pytest.raises(ExecutionError, match="cubed: array A"):
            layout_for_program(cubed, {"N": 1 << 21})

    def test_traced_run_rejects_oversized_array(self):
        # Before any storage is allocated.
        cp = CompiledProgram(two_arrays(), trace=True)
        with pytest.raises(ExecutionError, match="big: array B"):
            cp.run({"N": LARGEST_N + 1})
        with pytest.raises(ExecutionError, match="big: array B"):
            cp.run_streaming({"N": LARGEST_N + 1})

    def test_untraced_run_is_not_constrained(self):
        # Without tracing there is no event to encode and no layout is
        # built (the array below is small anyway).
        p = Program(
            "small",
            ("N",),
            (ArrayDecl("A", (N,)),),
            (),
            (loop("i", 1, N, [assign(idx("A", sym("i")), 3.0)]),),
        )
        out = CompiledProgram(p, trace=False).run({"N": 4})
        assert np.allclose(out.arrays["A"], 3.0)
