"""Unit tests for memory layout and the register-file load filter."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.layout import MemoryLayout
from repro.machine.registers import RegisterFilterSink


def address_of(layout, name, linear_index):
    """Byte address of one element, through the vectorised path."""
    ids = {0: name}
    return int(layout.addresses(np.array([0]), np.array([linear_index]), ids)[0])


class TestLayout:
    def test_alignment(self):
        layout = MemoryLayout.build({"A": 10, "B": 3}, align=128)
        assert layout.bases["A"] == 0
        assert layout.bases["B"] == 128  # 80 bytes rounded up

    def test_address_of(self):
        layout = MemoryLayout.build({"A": 10})
        assert address_of(layout, "A", 2) == 16

    def test_bounds_checked(self):
        layout = MemoryLayout.build({"A": 4})
        with pytest.raises(MachineError):
            address_of(layout, "A", 4)

    def test_vectorised_addresses(self):
        layout = MemoryLayout.build({"A": 8, "B": 8}, align=64)
        aid = np.array([0, 1, 0])
        lin = np.array([0, 0, 3])
        out = layout.addresses(aid, lin, {0: "A", 1: "B"})
        assert list(out) == [0, 64, 24]

    def test_vectorised_addresses_bounds_checked(self):
        """An index past its array's end, or an array id outside the
        layout, raises a MachineError naming the array and index."""
        layout = MemoryLayout.build({"A": 8, "B": 8}, align=64)
        names = {0: "A", 1: "B"}
        with pytest.raises(MachineError, match=r"B\[8\] outside 0\.\.7"):
            layout.addresses(np.array([0, 1]), np.array([7, 8]), names)
        with pytest.raises(MachineError, match="array id 2 .* not in the layout"):
            layout.addresses(np.array([0, 2]), np.array([0, 0]), names)
        # A(0) read: index -1 added to A's event code decodes as array id
        # -1 with index 2**40 - 1, which the message traces back to A.
        with pytest.raises(MachineError, match=r"array id -1 .*a read of A\[-1\]"):
            layout.addresses(np.array([-1]), np.array([2**40 - 1]), names)
        empty = np.array([], dtype=np.int64)
        assert len(layout.addresses(empty, empty, names)) == 0

    def test_bad_alignment(self):
        with pytest.raises(MachineError):
            MemoryLayout.build({"A": 4}, align=3)

    def test_nonpositive_size(self):
        with pytest.raises(MachineError):
            MemoryLayout.build({"A": 0})


class TestRegisterFilter:
    def test_repeat_load_elided(self):
        addrs = np.array([0, 0, 0], dtype=np.int64)
        w = np.array([0, 0, 0])
        sink = RegisterFilterSink(capacity=4)
        assert list(sink.feed((addrs, w))) == [True, False, False]
        assert sink.finish() == 2

    def test_store_always_to_memory_but_makes_resident(self):
        addrs = np.array([0, 0], dtype=np.int64)
        w = np.array([1, 0])
        keep = RegisterFilterSink(capacity=4).feed((addrs, w))
        assert list(keep) == [True, False]  # forwarding

    def test_capacity_eviction_lru(self):
        # touch 0,8,16 with capacity 2: 0 evicted, reload misses.
        addrs = np.array([0, 8, 16, 0], dtype=np.int64)
        w = np.zeros(4)
        keep = RegisterFilterSink(capacity=2).feed((addrs, w))
        assert list(keep) == [True, True, True, True]

    def test_zero_capacity_disables(self):
        addrs = np.array([0, 0], dtype=np.int64)
        sink = RegisterFilterSink(capacity=0)
        sink.feed((addrs, np.zeros(2)))
        assert sink.finish() == 0

    def test_element_granularity(self):
        # different elements of the same cache line are distinct registers
        addrs = np.array([0, 4], dtype=np.int64)  # same 8-byte element!
        sink = RegisterFilterSink(capacity=4)
        sink.feed((addrs, np.zeros(2)))
        assert sink.finish() == 1  # 4 >> 3 == 0 too

    def test_negative_capacity(self):
        with pytest.raises(MachineError):
            RegisterFilterSink(capacity=-1)

    @pytest.mark.parametrize("flags", [2, 4])
    def test_write_mask_length_must_match(self, flags):
        addrs = np.array([0, 8, 0], dtype=np.int64)
        sink = RegisterFilterSink(capacity=4)
        with pytest.raises(MachineError, match=f"3 addresses but {flags} write"):
            sink.feed((addrs, np.zeros(flags)))

    def test_wide_address_span(self):
        # Elements 2**60 apart, negative ones included, are distinct
        # elements like any other.
        addrs = np.array([-(1 << 62), 1 << 62, -(1 << 62), 1 << 62], dtype=np.int64)
        keep = RegisterFilterSink(capacity=4).feed((addrs, np.zeros(4)))
        assert list(keep) == [True, True, False, False]
