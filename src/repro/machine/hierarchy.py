"""Two-level cache hierarchy: L1 data cache filtered into a unified L2.

Accesses that hit L1 never reach L2 (inclusive lookup path); every L1 miss
is replayed against L2 in order. This is the standard trace-filtering model
and matches how perfex's L1/L2 miss counters relate on the R14000A.

:class:`HierarchySink` fuses both levels into one streaming pass: each
chunk is replayed against L1 and only the missing subset is forwarded to
L2, so the L2 engine touches a small fraction of the trace. ``feed`` returns
each chunk's L1 miss mask; ``finish`` returns the miss totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cache import CacheConfig, CacheSink


@dataclass(frozen=True)
class HierarchyResult:
    """Miss statistics of one trace replay."""

    accesses: int
    l1_misses: int
    l2_misses: int

    @property
    def l1_miss_rate(self) -> float:
        """L1 misses / accesses (0 for an empty trace)."""
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        """L2 misses / L1 misses (local miss rate; 0 when L1 never missed)."""
        return self.l2_misses / self.l1_misses if self.l1_misses else 0.0


class HierarchySink:
    """Streaming L1 → L2 replay over address chunks."""

    def __init__(self, l1: CacheConfig, l2: CacheConfig):
        self._l1 = CacheSink(l1)
        self._l2 = CacheSink(l2)

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns its L1 miss mask."""
        addresses = np.asarray(addresses)
        if len(addresses) == 0:
            return np.zeros(0, dtype=bool)
        l1_mask = self._l1.feed(addresses)
        l2_stream = addresses[l1_mask]
        if len(l2_stream):
            self._l2.feed(l2_stream)
        return l1_mask

    def finish(self) -> HierarchyResult:
        """Accumulated miss statistics."""
        l1 = self._l1.finish()
        l2 = self._l2.finish()
        return HierarchyResult(
            accesses=l1.accesses,
            l1_misses=l1.misses,
            l2_misses=l2.misses,
        )

