"""Section 4's in-text Jacobi statistics.

The paper singles Jacobi out: "By fusing the two loop nests in the
sequential code, we have also reduced the number of array loads in the
tiled code by an average of 40.9%", for a net 3.4 % fewer instructions.
The mechanism is fusion: the ``L`` round-trip disappears (scalarised) and
the adjacent reads become register-reusable. We therefore measure the
*fused/fixed* program against the sequential one — our register-reuse
model recovers the same direction (fewer loads *and* fewer instructions
after fusion) at a smaller magnitude, since MIPSpro's scalar replacement
of overlapping stencil reads is stronger than a pure LRU register window
(see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import measure_points
from repro.experiments.sweep import SweepConfig, default_config
from repro.utils.tables import render_table

PAPER_LOAD_REDUCTION = 0.409
PAPER_INSTR_REDUCTION = 0.034


@dataclass(frozen=True)
class JacobiStatsRow:
    """One sweep point."""

    n: int
    seq_loads: int
    tiled_loads: int
    load_reduction: float
    seq_instructions: int
    tiled_instructions: int
    instr_change: float


def generate(config: SweepConfig | None = None) -> list[JacobiStatsRow]:
    """Loads and instruction counts, seq vs tiled Jacobi."""
    config = config or default_config()
    reports = [
        m.report
        for m in measure_points(
            [("jacobi", variant, n) for n in config.sizes for variant in ("seq", "fixed")],
            config,
        )
    ]
    rows = []
    for n, seq, tiled in zip(config.sizes, reports[::2], reports[1::2]):
        rows.append(
            JacobiStatsRow(
                n=n,
                seq_loads=seq.accesses,
                tiled_loads=tiled.accesses,
                load_reduction=1.0 - tiled.accesses / seq.accesses,
                seq_instructions=seq.graduated_instructions,
                tiled_instructions=tiled.graduated_instructions,
                instr_change=1.0 - tiled.graduated_instructions / seq.graduated_instructions,
            )
        )
    return rows


def render(rows: list[JacobiStatsRow]) -> str:
    """Table plus averages vs the paper's figures."""
    table = render_table(
        ["N", "seq mem ops", "tiled mem ops", "reduction",
         "seq instr", "tiled instr", "instr reduction"],
        [
            [r.n, r.seq_loads, r.tiled_loads, r.load_reduction,
             r.seq_instructions, r.tiled_instructions, r.instr_change]
            for r in rows
        ],
        title="Jacobi in-text statistics (Sec. 4)",
    )
    avg_load = sum(r.load_reduction for r in rows) / len(rows)
    avg_instr = sum(r.instr_change for r in rows) / len(rows)
    return (
        f"{table}\n\n"
        f"average memory-op reduction: {avg_load:.1%} (paper: array loads "
        f"{PAPER_LOAD_REDUCTION:.1%})\n"
        f"average instruction reduction: {avg_instr:.1%} (paper: "
        f"{PAPER_INSTR_REDUCTION:.1%})"
    )
