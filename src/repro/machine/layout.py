"""Mapping array elements to machine addresses.

The paper's kernels are Fortran programs (column-major); the executor's
memory trace carries ``(array_id, linear_index)`` pairs where the linear
index is already the column-major element offset. This module assigns each
array a base address and turns traces into address streams.

Base placement matters for cache behaviour (the paper's problem-size sweep
is designed to expose pathological conflict cases); arrays are placed
back-to-back with configurable alignment, mimicking a simple static
allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine import native

#: Size of a double-precision element (all paper kernels use doubles).
ELEMENT_BYTES = 8


@dataclass(frozen=True)
class MemoryLayout:
    """Placement of a program's arrays in a flat byte-address space."""

    #: array name -> base byte address
    bases: dict[str, int]
    #: array name -> element count
    sizes: dict[str, int]
    element_bytes: int = ELEMENT_BYTES

    @staticmethod
    def build(
        sizes: dict[str, int],
        *,
        element_bytes: int = ELEMENT_BYTES,
        align: int = 128,
        base: int = 0,
    ) -> "MemoryLayout":
        """Place arrays in name-insertion order, aligning each base."""
        if align <= 0 or align & (align - 1):
            raise MachineError(f"alignment must be a power of two, got {align}")
        bases: dict[str, int] = {}
        cursor = base
        for name, count in sizes.items():
            if count <= 0:
                raise MachineError(f"array {name} has non-positive size {count}")
            cursor = (cursor + align - 1) & ~(align - 1)
            bases[name] = cursor
            cursor += count * element_bytes
        return MemoryLayout(bases, dict(sizes), element_bytes)

    def addresses(
        self, array_ids: np.ndarray, linear: np.ndarray, id_to_name: dict[int, str]
    ) -> np.ndarray:
        """Byte addresses of a whole trace of decoded (hence non-negative)
        linear indices, in one C loop (``layout`` in ``native.c``).

        Raises :class:`MachineError`, naming the array and index, for the
        first event outside the layout: an array id *id_to_name* does not
        map, or an index past the end of its array. Only the flat index is
        checked: a subscript that overflows one dimension but stays inside
        the array (``A(N+1, 1)`` is ``A(1, 2)``) addresses a real element
        and passes.
        """
        n = max(id_to_name, default=-1) + 1
        base_by_id = np.zeros(n, dtype=np.int64)
        size_by_id = np.zeros(n, dtype=np.int64)  # unmapped ids hold nothing
        for aid, name in id_to_name.items():
            base_by_id[aid] = self.bases[name]
            size_by_id[aid] = self.sizes[name]
        array_ids = np.ascontiguousarray(array_ids, dtype=np.int64)
        linear = np.ascontiguousarray(linear, dtype=np.int64)
        if len(linear) != len(array_ids):
            raise MachineError(
                f"{len(array_ids)} array ids but {len(linear)} linear indices"
            )
        out = np.empty(len(array_ids), dtype=np.int64)
        bad = native.lib().layout(
            array_ids.ctypes.data, linear.ctypes.data, len(array_ids),
            base_by_id.ctypes.data, size_by_id.ctypes.data, n,
            self.element_bytes, out.ctypes.data,
        )
        if bad >= 0:
            raise self._outside(int(array_ids[bad]), int(linear[bad]), id_to_name)
        return out

    def _outside(self, aid: int, lin: int, id_to_name: dict[int, str]) -> MachineError:
        """The error for one decoded event outside the layout."""
        from repro.exec.events import ADDR_BITS

        name = id_to_name.get(aid)
        if name is None:
            msg = f"array id {aid} (index {lin}) is not in the layout"
        else:
            msg = f"{name}[{lin}] outside 0..{self.sizes[name] - 1}"
        if lin >= 1 << (ADDR_BITS - 1):
            # A negative index borrows from the event code's array-id
            # bits: this event is a read of array aid+1 or a write of aid.
            off = lin - (1 << ADDR_BITS)
            guesses = [
                f"{verb} {id_to_name[a]}[{off}]"
                for verb, a in (("a read of", aid + 1), ("a write of", aid))
                if a in id_to_name
            ]
            if guesses:
                msg += f"; likely a negative index: {' or '.join(guesses)}"
        return MachineError(msg)


def layout_for_program(program, params, *, align: int = 128) -> MemoryLayout:
    """Build the layout of *program*'s arrays at concrete *params*.

    Deterministic given (program, params) — usable before a run even
    starts, which is what lets the streaming pipeline map addresses
    chunk-by-chunk while the program is still executing.
    """
    from repro.exec.events import evaluate_extents

    sizes: dict[str, int] = {}
    for decl in program.arrays:
        shape = evaluate_extents(decl.extents, params)
        sizes[decl.name] = int(np.prod(shape))
    return MemoryLayout.build(sizes, align=align)
