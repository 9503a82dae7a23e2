"""Sweep configuration: problem sizes, machine and the sweep's tile edge.

The paper sweeps N = 200..2500 at multiples of 238 (about 10 points
bracketing the size where one array fills the 2 MB L2: 512x512 doubles)
with Jacobi's M fixed at 500. The scaled machine's L2 holds 64x64 doubles,
so the default scaled sweep brackets 64 the same way. Quick mode (the
default) uses a 4-point subset; ``quick=False`` (the CLI's ``--full``)
selects the full curve. Only ``paperpoint`` runs the real Octane2 geometry,
at one size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError
from repro.machine.configs import MachineConfig, default_machine
from repro.tilesize.pdat import pdat_tile

#: Scaled sweep: same ratio band around the L2-filling order (64). Like the
#: paper's multiples of 238, the sizes avoid power-of-two leading
#: dimensions, whose column stride aliases the 2-way sets pathologically
#: (use REPRO_SIZES=128,... to study exactly that effect).
SCALED_SIZES = (24, 56, 88, 120, 152, 184)
#: Quick subset, the default sweep.
QUICK_SIZES = (24, 56, 88, 120)

#: Jacobi time steps: paper 500; scaled runs use 12 (the miss behaviour is
#: periodic in t once the working set is established).
SCALED_JACOBI_M = 12


def resolve_jobs(override: int | None = None) -> int:
    """Worker-process count for sweep fan-out (``>= 1``).

    *override*, else ``REPRO_JOBS``, else 1 — serial by default, so figure
    output is produced by exactly the code path it always was. Parallel
    runs are byte-identical anyway (workers measure the points the parent
    resolved and return their reports), so ``REPRO_JOBS=4`` is purely a
    wall-clock knob.
    """
    if override is None:
        text = os.environ.get("REPRO_JOBS", "1")
        try:
            override = int(text)
        except ValueError:
            raise ReproError(f"REPRO_JOBS={text!r} is not an integer") from None
    return max(1, int(override))


@dataclass(frozen=True)
class SweepConfig:
    """Everything a figure generator needs."""

    machine: MachineConfig
    sizes: tuple[int, ...]
    jacobi_m: int
    seed: int = 20050615

    @property
    def tile(self) -> int:
        """The sweep's tile edge: PDAT's for the machine's L1 (Sec. 4), the
        edge of every tiled point that names none."""
        return pdat_tile(self.machine.l1)


def default_config(*, quick: bool = True) -> SweepConfig:
    """The quick (default) or full sweep on the default machine;
    ``REPRO_SIZES`` overrides the sizes."""
    sizes = QUICK_SIZES if quick else SCALED_SIZES
    env_sizes = os.environ.get("REPRO_SIZES")
    if env_sizes:
        try:
            sizes = tuple(int(s) for s in env_sizes.split(",") if s.strip())
        except ValueError:
            raise ReproError(
                f"REPRO_SIZES={env_sizes!r} is not a comma-separated list of integers"
            ) from None
        if not sizes:
            raise ReproError(f"REPRO_SIZES={env_sizes!r} lists no size")
        if any(n < 1 for n in sizes):
            raise ReproError(f"REPRO_SIZES={env_sizes!r}: every size must be positive")
    return SweepConfig(default_machine(), tuple(sizes), SCALED_JACOBI_M)
