"""Mapping array elements to machine addresses.

The paper's kernels are Fortran programs (column-major). This module
assigns each array a base address; a traced run writes each access as
its element's byte address (``base + 8 * column-major offset``; see
:mod:`repro.exec.events` for the event form), so the memory trace is the
address stream the machine model replays.

Base placement matters for cache behaviour (the paper's problem-size sweep
is designed to expose pathological conflict cases); arrays are placed
back-to-back with configurable alignment, mimicking a simple static
allocator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError, MachineError

#: Size of a double-precision element (all paper kernels use doubles).
ELEMENT_BYTES = 8
#: Every byte address must lie below this: a memory event is
#: ``address << 1 | is_write`` in one ``int64``.
ADDRESS_LIMIT = 1 << 62


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

    # Kept only for perfbench/tracer.py, which wraps it by name; not on the production path.
    def addresses(self, name: str, linear: np.ndarray) -> np.ndarray:
        """Byte addresses of the elements *linear* of array *name*."""
        return self.bases[name] + self.element_bytes * np.asarray(linear, dtype=np.int64)


def layout_for_program(program, params, *, align: int = 128) -> MemoryLayout:
    """Build the layout of *program*'s arrays at concrete *params*: the one
    layout a traced run writes its addresses from.

    Raises :class:`~repro.errors.ExecutionError`, naming the program and
    the array, if an array's last byte lies at or past
    :data:`ADDRESS_LIMIT`.
    """
    from repro.exec.events import evaluate_extents

    sizes = {
        decl.name: math.prod(evaluate_extents(decl.extents, params))
        for decl in program.arrays
    }
    layout = MemoryLayout.build(sizes, align=align)
    for name, base in layout.bases.items():
        last = base + layout.sizes[name] * layout.element_bytes - 1
        if last >= ADDRESS_LIMIT:
            raise ExecutionError(
                f"{program.name}: array {name} ends at byte address {last}; memory "
                f"events need every address below 2**62 ({ADDRESS_LIMIT})"
            )
    return layout
