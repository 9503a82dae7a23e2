"""Execution results: dynamic counters and event traces.

The machine model is trace-driven: it replays the memory-access and branch
traces produced by a run. Each event is one ``int64``:

- memory event: ``((array_id * 2 + is_write) << ADDR_BITS) | linear_index``
- branch event: ``site_id * 2 + taken``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

#: Default number of events an executor buffers before flushing a chunk
#: to the trace sinks (streaming mode).
DEFAULT_CHUNK_EVENTS = 1 << 16

#: Bits reserved for the linear element index within one array.
ADDR_BITS = 40
#: Mask extracting the linear index from a memory event code.
ADDR_MASK = (1 << ADDR_BITS) - 1


def memory_event_base(array_id: int, is_write: bool | int) -> int:
    """The high bits of a memory event code; add the linear index in."""
    return (array_id * 2 + int(is_write)) << ADDR_BITS


def decode_memory_events(
    codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode encoded memory events into (array_id, linear_index, is_write):
    two ``int64`` arrays and a ``bool`` one, in one C loop (``decode`` in
    :mod:`repro.machine.native`).

    Works on any chunk of the stream — the encoding is stateless — so the
    streaming sinks and the materialized :class:`TraceBuffers` share it.
    """
    from repro.machine import native

    codes = np.ascontiguousarray(codes, dtype=np.int64)
    n = len(codes)
    aid = np.empty(n, dtype=np.int64)
    lin = np.empty(n, dtype=np.int64)
    is_write = np.empty(n, dtype=bool)
    native.lib().decode(
        codes.ctypes.data, n, ADDR_BITS,
        aid.ctypes.data, lin.ctypes.data, is_write.ctypes.data,
    )
    return aid, lin, is_write


def check_addressable(program_name: str, array_name: str, size: int) -> None:
    """Layout-time guard for the trace encoding.

    A memory event packs the linear element index into the low
    :data:`ADDR_BITS` bits; an array with more than ``2**ADDR_BITS``
    elements would silently alias its high indices into the array-id
    field. Raise instead of corrupting the trace.
    """
    from repro.errors import ExecutionError

    if size > ADDR_MASK + 1:
        raise ExecutionError(
            f"{program_name}: array {array_name} has {size} elements; linear "
            f"indices do not fit the {ADDR_BITS}-bit trace address field "
            f"(max {ADDR_MASK + 1} elements)"
        )


@dataclass
class Counters:
    """Dynamic operation counts of one run.

    These feed the perfex-style cost model: *graduated instructions* are a
    weighted combination (see :mod:`repro.machine.costmodel`), branches feed
    the predictor, loads/stores cross-check the memory trace length.
    """

    loads: int = 0
    stores: int = 0
    flops: int = 0
    intops: int = 0
    branches: int = 0
    loop_iters: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order)."""
        return {
            "loads": self.loads,
            "stores": self.stores,
            "flops": self.flops,
            "intops": self.intops,
            "branches": self.branches,
            "loop_iters": self.loop_iters,
        }

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(
            self.loads + other.loads,
            self.stores + other.stores,
            self.flops + other.flops,
            self.intops + other.intops,
            self.branches + other.branches,
            self.loop_iters + other.loop_iters,
        )


@dataclass
class TraceBuffers:
    """Raw event traces of one run (see module docstring for encodings)."""

    #: Encoded memory events in program order.
    memory: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Encoded branch events in program order.
    branches: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass
class RunResult:
    """Everything a run produced."""

    #: Final array values, shaped per declaration (column-major semantics).
    arrays: dict[str, np.ndarray]
    #: Final scalar values.
    scalars: dict[str, float]
    counters: Counters
    #: Present only for traced runs.
    trace: TraceBuffers | None = None
    #: array name -> integer id used in the memory trace.
    array_ids: dict[str, int] = field(default_factory=dict)
    #: branch site id -> human-readable description (source condition).
    branch_sites: dict[int, str] = field(default_factory=dict)


def evaluate_extents(
    extent_exprs, params: Mapping[str, int]
) -> tuple[int, ...]:
    """Evaluate declared array extents under concrete parameters."""
    from repro.ir.affine import expr_to_linexpr

    out = []
    for e in extent_exprs:
        value = expr_to_linexpr(e).evaluate(params)
        if value.denominator != 1 or value < 1:
            raise ValueError(f"array extent {e} evaluates to {value}")
        out.append(int(value))
    return tuple(out)
