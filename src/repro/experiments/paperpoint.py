"""One genuine paper point on the *unscaled* Octane2 geometry.

Everything else in the harness runs on the scaled machine; this experiment
anchors the scaling argument by measuring Cholesky at N = 238 — the
paper's first sweep size — with the real 32 KB L1 / 2 MB L2 and the PDAT
tile (45). The paper's Figure 5 shows Cholesky at ~1.1x there (its minimum,
1.11, is attained at the small end of the sweep); the matrix still fits L2,
so the entire win is the L1 behaviour.

The seq + tiled pair costs about 0.7 s of simulation on 2 vCPUs, where
the whole 48-point scaled Figure-5 sweep takes about 5 s; cached like
every other measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import measure_points
from repro.experiments.sweep import SweepConfig
from repro.machine.configs import octane2

PAPER_N = 238
#: Paper Figure 5: Cholesky's speedups start at 1.11 at the sweep's small end.
PAPER_SMALL_END_SPEEDUP = 1.11


@dataclass(frozen=True)
class PaperPoint:
    """Measured vs paper at the anchor point."""

    n: int
    tile: int
    speedup: float
    seq_l1: int
    tiled_l1: int
    seq_l2: int
    tiled_l2: int
    seq_instructions: int
    tiled_instructions: int


def paper_config(n: int = PAPER_N) -> SweepConfig:
    """The true Octane2 geometry at the one size *n*, with the PDAT tile."""
    return SweepConfig(machine=octane2(), sizes=(n,), jacobi_m=500)


def measure(kernel: str = "cholesky", n: int = PAPER_N) -> PaperPoint:
    """Measure one kernel at a paper size on the true machine."""
    seq, tiled = measure_points(
        [(kernel, "seq", n), (kernel, "tiled", n)], paper_config(n)
    )
    return PaperPoint(
        n=n,
        tile=tiled.tile or 0,
        speedup=seq.report.total_cycles / tiled.report.total_cycles,
        seq_l1=seq.report.l1_misses,
        tiled_l1=tiled.report.l1_misses,
        seq_l2=seq.report.l2_misses,
        tiled_l2=tiled.report.l2_misses,
        seq_instructions=seq.report.graduated_instructions,
        tiled_instructions=tiled.report.graduated_instructions,
    )


def render(point: PaperPoint) -> str:
    """The anchor-point comparison."""
    return "\n".join(
        [
            "Paper anchor point — Cholesky, true Octane2 geometry",
            f"  N = {point.n}, PDAT tile = {point.tile}",
            f"  measured speedup: {point.speedup:.2f} "
            f"(paper small-end: {PAPER_SMALL_END_SPEEDUP:.2f})",
            f"  L1 misses: {point.seq_l1:,} -> {point.tiled_l1:,}",
            f"  L2 misses: {point.seq_l2:,} -> {point.tiled_l2:,} "
            "(matrix fits L2 at this size)",
            f"  instructions: {point.seq_instructions:,} -> "
            f"{point.tiled_instructions:,}",
        ]
    )
