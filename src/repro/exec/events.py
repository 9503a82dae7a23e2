"""Execution results: dynamic counters and event traces.

The machine model is trace-driven: it replays the memory-access and branch
traces produced by a run. Each event is one ``int64``:

- memory event: ``byte_address << 1 | is_write``, the element's byte
  address in the run's :func:`~repro.machine.layout.layout_for_program`;
- branch event: ``site_id * 2 + taken``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

#: Default number of events an executor buffers before flushing a chunk
#: to the trace sinks (streaming mode).
DEFAULT_CHUNK_EVENTS = 1 << 16


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
