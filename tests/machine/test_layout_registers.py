"""Unit tests for memory layout and the register-file load filter."""

import numpy as np
import pytest

from repro.errors import ExecutionError, MachineError
from repro.exec.compiled import CompiledProgram
from repro.ir.builder import assign, idx, sym
from repro.ir.program import ArrayDecl, Program, ScalarDecl
from repro.machine.layout import MemoryLayout
from repro.machine.registers import RegisterFilterSink
from tests.machine.reference import memory_events

N = sym("N")


def traced_addresses(reads):
    """The byte addresses a traced run records when it adds the elements
    *reads* (array name, subscript) of A(8) and B(8) to a scalar."""
    body = tuple(assign("x", sym("x") + idx(name, sub)) for name, sub in reads)
    program = Program(
        "reads", ("N",), (ArrayDecl("A", (N,)), ArrayDecl("B", (N,))), (ScalarDecl("x"),), body
    )
    run = CompiledProgram(program, trace=True).run({"N": 8})
    return (run.trace.memory >> 1).tolist()


class TestLayout:
    def test_alignment(self):
        layout = MemoryLayout.build({"A": 10, "B": 3}, align=128)
        assert layout.bases["A"] == 0
        assert layout.bases["B"] == 128  # 80 bytes rounded up

    def test_address_of(self):
        assert traced_addresses([("A", 3)]) == [16]

    def test_bounds_checked(self):
        with pytest.raises(ExecutionError, match=r"subscript 9 out of bounds 1\.\.8 in A\(9\)"):
            traced_addresses([("A", 9)])

    def test_vectorised_addresses(self):
        # A(8) holds bytes 0..63, so B starts at the next 128-byte boundary.
        assert traced_addresses([("A", 1), ("B", 1), ("A", 4)]) == [0, 128, 24]

    def test_vectorised_addresses_bounds_checked(self):
        """A subscript below 1 or past its extent never reaches the trace,
        even where its address would lie inside the layout (A(9) and B(0)
        fall in the alignment gap between A and B): the run fails naming
        the reference."""
        for sub in (0, 9):
            for name in "AB":
                with pytest.raises(ExecutionError, match=rf"subscript {sub} out of bounds"):
                    traced_addresses([("A", 1), (name, sub)])

    def test_bad_alignment(self):
        with pytest.raises(MachineError):
            MemoryLayout.build({"A": 4}, align=3)

    def test_nonpositive_size(self):
        with pytest.raises(MachineError):
            MemoryLayout.build({"A": 0})


def survivors(sink, addresses, writes):
    """Feed one chunk of events made of *addresses* and *writes*; the
    addresses that go to memory, compacted in place."""
    events = memory_events(np.array(addresses, dtype=np.int64), np.array(writes))
    kept = sink.feed((events, events))
    assert kept.base is events or kept.base is events.base
    return kept.tolist()


class TestRegisterFilter:
    def test_repeat_load_elided(self):
        sink = RegisterFilterSink(capacity=4)
        assert survivors(sink, [0, 0, 0], [0, 0, 0]) == [0]
        assert sink.finish() == 2

    def test_store_always_to_memory_but_makes_resident(self):
        sink = RegisterFilterSink(capacity=4)
        assert survivors(sink, [0, 0, 8, 8], [1, 0, 0, 1]) == [0, 8, 8]  # forwarding

    def test_capacity_eviction_lru(self):
        # touch 0,8,16 with capacity 2: 0 evicted, reload misses.
        sink = RegisterFilterSink(capacity=2)
        assert survivors(sink, [0, 8, 16, 0], [0] * 4) == [0, 8, 16, 0]

    def test_zero_capacity_disables(self):
        sink = RegisterFilterSink(capacity=0)
        assert survivors(sink, [0, 0, 8], [0, 1, 0]) == [0, 0, 8]
        assert sink.finish() == 0

    def test_element_granularity(self):
        # different elements of the same cache line are distinct registers
        sink = RegisterFilterSink(capacity=4)
        assert survivors(sink, [0, 4, 8], [0, 0, 0]) == [0, 8]  # 4 >> 3 == 0 too
        assert sink.finish() == 1

    def test_negative_capacity(self):
        with pytest.raises(MachineError):
            RegisterFilterSink(capacity=-1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_output_must_hold_the_chunk(self, n):
        # n reads: n - 1 distinct elements, then the first one again.
        addresses = [8 * i for i in range(n - 1)] + [0]
        events = memory_events(np.array(addresses, dtype=np.int64), np.zeros(n))
        sink = RegisterFilterSink(capacity=4)
        for out in (np.empty(n - 1, dtype=np.int64), np.empty(n, dtype=np.int32), [0] * n):
            with pytest.raises(MachineError, match=f"at least {n} elements"):
                sink.feed((events, out))
        out = np.full(n + 2, -1, dtype=np.int64)
        assert sink.feed((events, out)).tolist() == addresses[:-1]
        # a separate output leaves the events be
        assert events.tolist() == [a << 1 for a in addresses]

    def test_wide_address_span(self):
        # Elements 2**61 apart, negative ones included, are distinct
        # elements like any other.
        far = 1 << 61
        sink = RegisterFilterSink(capacity=4)
        assert survivors(sink, [-far, far, -far, far], [0] * 4) == [-far, far]
