"""Machine configurations.

``octane2()`` is the paper's testbed geometry. ``octane2_scaled()`` shrinks
both caches by 16x/64x so that the miss-rate transitions the paper observes
at N = 200..2500 appear at N = 16..176. Simulated cost grows as N³: on the
true geometry one seq + tiled pair took 0.7 s for Cholesky at N = 238 and
17.2 s for LU at N = 714 (2 vCPUs), so one LU pair at N = 2500 would take
about 12 minutes, while the whole scaled Figure-5 sweep (48 points) takes
seconds. The *ratios* that drive the figures are kept:

- 2-way associativity and LRU at both levels;
- L2/L1 capacity ratio large (64x paper, 16x scaled) so the L1/L2 miss
  regimes stay separated;
- the paper's 512x512-doubles-fill-L2 landmark becomes 64x64 for the
  scaled L2 (64*64*8 B = 32 KiB).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cache import CacheConfig
from repro.machine.costmodel import CostModel

@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated machine."""

    name: str
    l1: CacheConfig
    l2: CacheConfig
    costs: CostModel = field(default_factory=CostModel)
    #: Floating-point registers available for element reuse (the register
    #: filter ahead of L1); 0 disables the filter.
    registers: int = 32

    def l2_fill_order(self, element_bytes: int = 8) -> int:
        """Square array order n such that an n x n array fills L2 exactly
        (the paper's 512 landmark; 64 for the scaled machine)."""
        n = int((self.l2.size_bytes / element_bytes) ** 0.5)
        return n


def octane2() -> MachineConfig:
    """The paper's SGI Octane2: L1 32 KB/32 B/2-way, L2 2 MB/128 B/2-way."""
    return MachineConfig(
        name="octane2",
        l1=CacheConfig("L1", size_bytes=32 * 1024, line_bytes=32, assoc=2),
        l2=CacheConfig("L2", size_bytes=2 * 1024 * 1024, line_bytes=128, assoc=2),
    )


def octane2_scaled() -> MachineConfig:
    """Scaled-down Octane2: sweeps that take seconds, not hours.

    L1 2 KB/32 B/2-way (16x smaller), L2 32 KB/64 B/2-way (64x smaller).
    Cycle costs are unchanged — they are properties of the pipeline, not of
    the cache sizes.
    """
    return MachineConfig(
        name="octane2-scaled",
        l1=CacheConfig("L1", size_bytes=2 * 1024, line_bytes=32, assoc=2),
        l2=CacheConfig("L2", size_bytes=32 * 1024, line_bytes=64, assoc=2),
    )


def default_machine() -> MachineConfig:
    """The machine every sweep runs on: :func:`octane2_scaled`."""
    return octane2_scaled()
