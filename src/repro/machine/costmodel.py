"""Per-event cycle costs and cycle aggregation.

All constants are the paper's own published numbers for the SGI Octane2
(600 MHz MIPS R14000A, Sec. 4):

- typical L1 data-cache miss: 9.92 cycles;
- typical L2 data-cache miss: 162.55 cycles (so one avoided L2 miss saves
  162.55 − 9.92 = 152.63 cycles relative to an L1 miss that hits L2);
- resolving a conditional branch: 1 cycle;
- one branch misprediction: 5 cycles;
- graduated instructions: 0.25 cycles each. The R14000A is a 4-way
  superscalar, so sustained throughput is up to 4 instructions/cycle; the
  paper compares raw *event counts* (Figs. 6–8), which this model
  reproduces exactly, and only the end-to-end cycle aggregation behind the
  Fig. 5 speedups needs an IPC assumption. ``instruction_cycles = 1.0``
  (strictly scalar issue) is available for the sensitivity ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.events import Counters


@dataclass(frozen=True)
class CostModel:
    """Cycle costs per event class."""

    l1_miss_cycles: float = 9.92
    l2_miss_cycles: float = 162.55
    branch_resolve_cycles: float = 1.0
    branch_mispredict_cycles: float = 5.0
    instruction_cycles: float = 0.25

    def graduated_instructions(self, counters: Counters) -> int:
        """Dynamic instruction count (Fig. 8's observable).

        loads + stores + fp ops + integer/address ops + resolved
        conditionals + one back-edge branch per loop iteration.
        """
        return (
            counters.loads
            + counters.stores
            + counters.flops
            + counters.intops
            + counters.branches
            + counters.loop_iters
        )

    def l1_miss_cycle_total(self, l1_misses: int) -> float:
        """Fig. 6 convention: every L1 miss charged the typical L1 cost."""
        return l1_misses * self.l1_miss_cycles

    def l2_miss_cycle_total(self, l2_misses: int) -> float:
        """Fig. 6 convention: every L2 miss charged the typical L2 cost."""
        return l2_misses * self.l2_miss_cycles

    def memory_stall_cycles(self, l1_misses: int, l2_misses: int) -> float:
        """Total stall: L1 misses that hit L2 pay 9.92; L2 misses pay 162.55."""
        l1_only = max(l1_misses - l2_misses, 0)
        return l1_only * self.l1_miss_cycles + l2_misses * self.l2_miss_cycles

    def total_cycles(
        self, counters: Counters, l1_misses: int, l2_misses: int, mispredicted: int
    ) -> float:
        """End-to-end cycle estimate used for Fig. 5 speedups."""
        return (
            self.graduated_instructions(counters) * self.instruction_cycles
            + self.memory_stall_cycles(l1_misses, l2_misses)
            + mispredicted * self.branch_mispredict_cycles
        )
