"""Figure 5: performance improvements (tiled-over-sequential speedups).

The paper plots, per kernel, the speedup of the tiled code over the
sequential code across problem sizes. Reported ranges (SGI Octane2):
LU 0.98–2.80, QR 0.57–2.28, Cholesky 1.11–4.27, Jacobi 2.16–7.51, with
Jacobi consistently the largest and every kernel improving at large N.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import measure_points
from repro.experiments.sweep import SweepConfig, default_config
from repro.kernels.registry import KERNELS
from repro.utils.tables import render_table

#: Paper-reported speedup ranges per kernel (min, max across sizes).
PAPER_SPEEDUP_RANGES = {
    "lu": (0.98, 2.80),
    "qr": (0.57, 2.28),
    "cholesky": (1.11, 4.27),
    "jacobi": (2.16, 7.51),
}


@dataclass(frozen=True)
class Figure5Row:
    """One sweep point."""

    kernel: str
    n: int
    tile: int
    seq_cycles: float
    tiled_cycles: float
    speedup: float


def generate(config: SweepConfig | None = None) -> list[Figure5Row]:
    """Measure every (kernel, size) pair in one :func:`measure_points` grid
    (parallel when ``REPRO_JOBS`` > 1; the rows are equal either way)."""
    config = config or default_config()
    measured = measure_points(
        [
            (kernel, variant, n)
            for kernel in KERNELS
            for n in config.sizes
            for variant in ("seq", "tiled")
        ],
        config,
    )
    return [
        Figure5Row(
            kernel=seq.kernel,
            n=seq.n,
            tile=tiled.tile or 0,
            seq_cycles=seq.report.total_cycles,
            tiled_cycles=tiled.report.total_cycles,
            speedup=seq.report.total_cycles / tiled.report.total_cycles,
        )
        for seq, tiled in zip(measured[::2], measured[1::2])
    ]


def render(rows: list[Figure5Row]) -> str:
    """The figure as a text table plus per-kernel range summary."""
    table = render_table(
        ["kernel", "N", "tile", "seq cycles", "tiled cycles", "speedup"],
        [
            [
                r.kernel,
                r.n,
                r.tile,
                f"{r.seq_cycles:,.0f}",
                f"{r.tiled_cycles:,.0f}",
                f"{r.speedup:.2f}",
            ]
            for r in rows
        ],
        title="Figure 5 — speedups of tiled over sequential",
    )
    lines = [table, "", "speedup ranges (measured vs paper):"]
    for kernel in KERNELS:
        ours = [r.speedup for r in rows if r.kernel == kernel]
        lo, hi = min(ours), max(ours)
        plo, phi = PAPER_SPEEDUP_RANGES[kernel]
        lines.append(
            f"  {kernel:9s} measured {lo:.2f}..{hi:.2f}   paper {plo:.2f}..{phi:.2f}"
        )
    return "\n".join(lines)
