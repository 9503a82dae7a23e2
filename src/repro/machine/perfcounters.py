"""End-to-end perfex-style measurement of one traced run.

:func:`measure_streaming` executes a compiled program and drives the whole
machine model in a single fused pass over bounded trace chunks — the trace
never exists as one object. It replays the memory trace (byte addresses
in the run's layout) through the register filter and cache hierarchy and
the branch trace through the 2-bit predictor, and aggregates cycles with
the cost model — yielding every observable the paper's Figures 5–8 plot. The
sinks are chunking-invariant and the pipeline preserves program order, so
the report equals the one the per-access oracles compute from the whole
trace; the golden corpus (``tests/golden/corpus.json``) stores that
report for every recipe, and tier-1 replays this function against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.exec.events import Counters, RunResult
from repro.ir.program import Program
from repro.machine import native
from repro.machine.branch import BranchStats, TwoBitPredictorSink
from repro.machine.configs import MachineConfig
from repro.machine.hierarchy import HierarchyResult, HierarchySink
from repro.machine.registers import RegisterFilterSink
from repro.telemetry.instrument import stage_clock


@dataclass(frozen=True)
class PerfReport:
    """All per-run observables (the paper's perfex counters + cycles)."""

    program: str
    machine: str
    accesses: int
    register_load_hits: int
    l1_misses: int
    l2_misses: int
    branches_resolved: int
    branches_mispredicted: int
    graduated_instructions: int
    l1_miss_cycles: float
    l2_miss_cycles: float
    branch_resolve_cycles: float
    branch_mispredict_cycles: float
    total_cycles: float

    def as_dict(self) -> dict[str, float]:
        """Flat dict (stable order) for tables and JSON dumps."""
        return {
            "program": self.program,
            "machine": self.machine,
            "accesses": self.accesses,
            "register_load_hits": self.register_load_hits,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "branches_resolved": self.branches_resolved,
            "branches_mispredicted": self.branches_mispredicted,
            "graduated_instructions": self.graduated_instructions,
            "l1_miss_cycles": self.l1_miss_cycles,
            "l2_miss_cycles": self.l2_miss_cycles,
            "branch_resolve_cycles": self.branch_resolve_cycles,
            "branch_mispredict_cycles": self.branch_mispredict_cycles,
            "total_cycles": self.total_cycles,
        }


# Kept only for perfbench/tracer.py, which wraps this name; not on the production path.
def decode_memory_events(events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split memory events into (byte addresses, is_write)."""
    events = np.asarray(events, dtype=np.int64)
    return events >> 1, (events & 1).astype(bool)


class MemoryPipelineSink:
    """Fused memory-side pipeline over memory-event chunks.

    Each chunk flows register filter → L1 → L2 in one pass, one C loop
    per stage (:mod:`repro.machine.native`). The filter compacts the
    survivors' byte addresses in place into the chunk, which ``feed``
    therefore overwrites: the producer's buffer carries the chunk from
    production to L2. With telemetry enabled, each stage's time, events
    and chunks are recorded as a ``machine.memory.{regfilter,l1l2}`` span
    under the ``exec.run`` span that fed the chunks.
    """

    def __init__(self, machine: MachineConfig):
        native.lib()  # build or load the C core before any stage is timed
        self._registers = RegisterFilterSink(machine.registers)
        self._hierarchy = HierarchySink(machine.l1, machine.l2)
        self._clock = stage_clock("machine.memory")

    def feed(self, events: np.ndarray) -> None:
        """Push one chunk through the whole memory pipeline."""
        clock = self._clock
        clock.start()
        to_memory = self._registers.feed((events, events))
        clock.lap("regfilter", len(events))
        self._hierarchy.feed(to_memory)
        clock.lap("l1l2", len(to_memory))

    def finish(self) -> tuple[int, HierarchyResult]:
        """(register load hits, hierarchy result)."""
        self._clock.finish()
        return self._registers.finish(), self._hierarchy.finish()


def _assemble_report(
    program: Program,
    machine: MachineConfig,
    counters: Counters,
    load_hits: int,
    hier: HierarchyResult,
    branch: BranchStats,
) -> PerfReport:
    """Cost aggregation of one measured run."""
    costs = machine.costs
    # Register-elided loads never graduate as instructions.
    effective = Counters(**counters.as_dict())
    effective.loads = max(counters.loads - load_hits, 0)
    return PerfReport(
        program=program.name,
        machine=machine.name,
        accesses=hier.accesses,
        register_load_hits=load_hits,
        l1_misses=hier.l1_misses,
        l2_misses=hier.l2_misses,
        branches_resolved=branch.resolved,
        branches_mispredicted=branch.mispredicted,
        graduated_instructions=costs.graduated_instructions(effective),
        l1_miss_cycles=costs.l1_miss_cycle_total(hier.l1_misses),
        l2_miss_cycles=costs.l2_miss_cycle_total(hier.l2_misses),
        branch_resolve_cycles=branch.resolved * costs.branch_resolve_cycles,
        branch_mispredict_cycles=branch.mispredicted * costs.branch_mispredict_cycles,
        total_cycles=costs.total_cycles(
            effective, hier.l1_misses, hier.l2_misses, branch.mispredicted
        ),
    )


def measure_streaming(
    compiled,
    params: Mapping[str, int],
    machine: MachineConfig,
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    chunk_events: int | None = None,
) -> tuple[RunResult, PerfReport]:
    """Execute *compiled* and measure it in one fused streaming pass.

    *compiled* is a traced :class:`~repro.exec.compiled.CompiledProgram`;
    the returned :class:`~repro.exec.events.RunResult` has ``trace=None``
    (arrays, scalars and counters are intact). Peak trace memory is
    bounded by the chunk size regardless of the run's event count.
    """
    program = compiled.program
    with telemetry.span(
        "machine.measure_streaming", program=program.name, machine=machine.name
    ):
        memory_sink = MemoryPipelineSink(machine)
        branch_sink = TwoBitPredictorSink()
        kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
        result = compiled.run_streaming(
            params, inputs, memory_sink=memory_sink, branch_sink=branch_sink, **kwargs
        )
        load_hits, hier = memory_sink.finish()
        branch = branch_sink.finish()
        report = _assemble_report(
            program, machine, result.counters, load_hits, hier, branch
        )
        return result, report
