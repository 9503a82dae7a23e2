"""Locating the break-even size: where does tiling start to win?

The task of a reproduction is the *shape*: who wins, by how much, and
**where the crossover falls**. The paper's curves cross 1.0 near its
smallest sizes (LU dips to 0.98); on the scaled machine the cleaned-up
tiled codes win everywhere, so we locate the more informative crossover of
the *sunk* (guard-carrying) tiled codes instead — the point where the
locality gain outgrows the code-sinking overhead, i.e. the paper's
trade-off becoming profitable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import measure_points
from repro.experiments.sweep import SweepConfig, default_config
from repro.kernels.registry import KERNELS
from repro.machine.configs import MachineConfig
from repro.utils.tables import render_table


@dataclass(frozen=True)
class Crossover:
    """Break-even information for one kernel."""

    kernel: str
    #: smallest probed N with sunk-tiled speedup >= 1 (None: never crossed)
    break_even_n: int | None
    #: speedups at the probe sizes
    probes: tuple[tuple[int, float], ...]


def find_crossover(
    kernel: str,
    config: SweepConfig,
    *,
    lo: int = 16,
    hi: int = 120,
    step: int = 8,
) -> Crossover:
    """Scan N in [lo, hi] for the sunk-tiled break-even point."""
    sizes = range(lo, hi + 1, step)
    cycles = [
        m.report.total_cycles
        for m in measure_points(
            [(kernel, variant, n) for n in sizes for variant in ("seq", "tiled_sunk")],
            config,
        )
    ]
    probes = tuple(zip(sizes, (s / t for s, t in zip(cycles[::2], cycles[1::2]))))
    break_even = next((n for n, speedup in probes if speedup >= 1.0), None)
    return Crossover(kernel=kernel, break_even_n=break_even, probes=probes)


def generate(config: SweepConfig | None = None) -> list[Crossover]:
    """Crossovers for all four kernels."""
    config = config or default_config()
    return [find_crossover(k, config) for k in KERNELS]


def render(results: list[Crossover], machine: MachineConfig) -> str:
    """Text table with the break-even sizes in units of *machine*'s
    L2-fill order."""
    fill = machine.l2_fill_order()
    rows = []
    for r in results:
        rows.append(
            [
                r.kernel,
                r.break_even_n if r.break_even_n is not None else "none",
                (round(r.break_even_n / fill, 2) if r.break_even_n else "-"),
                " ".join(f"{n}:{s:.2f}" for n, s in r.probes),
            ]
        )
    return render_table(
        ["kernel", "break-even N", "x L2-fill", "probes (N:speedup)"],
        rows,
        title="Crossover — sunk-tiled codes break even against sequential",
    )
