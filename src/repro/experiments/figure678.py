"""Figures 6–8: the Cholesky deep-dive (miss cycles, branch cycles,
graduated instructions), sequential vs tiled across problem sizes.

The tiled variant measured here keeps the code-sinking guards in place
(``tiled_sunk``): the paper's Figures 7-8 clearly show per-point guard
overhead in their tiled codes, so reproducing those shapes requires the
same code shape. (Figure 5 uses the fully cleaned-up tiled codes; our
unswitching pass removes most of the overhead the paper still paid —
see EXPERIMENTS.md.)

The paper's qualitative findings these series must reproduce:

- Fig. 6: tiling cuts the L2 miss cycles dramatically; L1 miss cycles
  change much less (for Cholesky/LU the method is "far more effective in
  reducing L2 misses");
- Fig. 7: branch resolution/misprediction cycles *increase* in the tiled
  code (code sinking adds conditionals) but stay small relative to the
  saved miss cycles, and the misprediction series stays below the
  resolution series;
- Fig. 8: graduated instructions increase at all sizes, yet each extra
  instruction is a 1-cycle integer op while an avoided L2 miss saves
  ~152.6 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import measure_points
from repro.experiments.sweep import SweepConfig, default_config
from repro.utils.tables import render_table

KERNEL = "cholesky"


@dataclass(frozen=True)
class CholRow:
    """One sweep point with both variants' perfex counters."""

    n: int
    seq_l1_cycles: float
    seq_l2_cycles: float
    tiled_l1_cycles: float
    tiled_l2_cycles: float
    seq_branch_resolved: int
    seq_branch_mispredicted: int
    seq_branch_cycles: float
    tiled_branch_resolved: int
    tiled_branch_mispredicted: int
    tiled_branch_cycles: float
    seq_instructions: int
    tiled_instructions: int


def generate(config: SweepConfig | None = None, kernel: str = KERNEL) -> list[CholRow]:
    """Measure the Cholesky (by default) seq/tiled sweep."""
    config = config or default_config()
    reports = [
        m.report
        for m in measure_points(
            [
                (kernel, variant, n)
                for n in config.sizes
                for variant in ("seq", "tiled_sunk")
            ],
            config,
        )
    ]
    rows = []
    for n, seq, tiled in zip(config.sizes, reports[::2], reports[1::2]):
        rows.append(
            CholRow(
                n=n,
                seq_l1_cycles=seq.l1_miss_cycles,
                seq_l2_cycles=seq.l2_miss_cycles,
                tiled_l1_cycles=tiled.l1_miss_cycles,
                tiled_l2_cycles=tiled.l2_miss_cycles,
                seq_branch_resolved=seq.branches_resolved,
                seq_branch_mispredicted=seq.branches_mispredicted,
                seq_branch_cycles=seq.branch_resolve_cycles
                + seq.branch_mispredict_cycles,
                tiled_branch_resolved=tiled.branches_resolved,
                tiled_branch_mispredicted=tiled.branches_mispredicted,
                tiled_branch_cycles=tiled.branch_resolve_cycles
                + tiled.branch_mispredict_cycles,
                seq_instructions=seq.graduated_instructions,
                tiled_instructions=tiled.graduated_instructions,
            )
        )
    return rows


def render_figure6(rows: list[CholRow]) -> str:
    """L1/L2 miss cycles, seq vs tiled."""
    return render_table(
        ["N", "seq L1 cyc", "tiled L1 cyc", "seq L2 cyc", "tiled L2 cyc",
         "L2 reduction"],
        [
            [
                r.n,
                r.seq_l1_cycles,
                r.tiled_l1_cycles,
                r.seq_l2_cycles,
                r.tiled_l2_cycles,
                (r.seq_l2_cycles / r.tiled_l2_cycles if r.tiled_l2_cycles else float("inf")),
            ]
            for r in rows
        ],
        title="Figure 6 — CHOL typical miss cycles (L1 @9.92, L2 @162.55)",
        float_fmt=",.0f",
    )


def render_figure7(rows: list[CholRow]) -> str:
    """Branch resolution + misprediction cycles, seq vs tiled."""
    return render_table(
        ["N", "seq resolved", "seq mispredicted", "seq branch cyc", "tiled resolved",
         "tiled mispredicted", "tiled branch cyc"],
        [
            [
                r.n,
                r.seq_branch_resolved,
                r.seq_branch_mispredicted,
                r.seq_branch_cycles,
                r.tiled_branch_resolved,
                r.tiled_branch_mispredicted,
                r.tiled_branch_cycles,
            ]
            for r in rows
        ],
        title="Figure 7 — CHOL branch resolution/misprediction cycles",
        float_fmt=",.0f",
    )


def render_figure8(rows: list[CholRow]) -> str:
    """Graduated instruction counts, seq vs tiled."""
    return render_table(
        ["N", "seq instructions", "tiled instructions", "increase"],
        [
            [
                r.n,
                r.seq_instructions,
                r.tiled_instructions,
                r.tiled_instructions / r.seq_instructions,
            ]
            for r in rows
        ],
        title="Figure 8 — CHOL graduated instructions",
        float_fmt=",.2f",
    )
