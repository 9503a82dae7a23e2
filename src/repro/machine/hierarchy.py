"""Two-level cache hierarchy: L1 data cache filtered into a unified L2.

Accesses that hit L1 never reach L2 (inclusive lookup path); every L1 miss
is replayed against L2 in order. This is the standard trace-filtering model
and matches how perfex's L1/L2 miss counters relate on the R14000A.

:class:`HierarchySink` fuses both levels into one streaming pass: each
chunk goes through one C loop (:func:`~repro.machine.cache.replay`) that
walks every access through L1's per-set MRU lists and, on an L1 miss,
straight on through L2's, so L2 sees the misses in program order without
a second pass. The loop is compiled once per key (C source, compiler,
flags) by :mod:`repro.machine.native`. ``feed`` returns each chunk's L1
miss mask; ``finish`` returns the miss totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cache import CacheConfig, CacheSink, replay


@dataclass(frozen=True)
class HierarchyResult:
    """Miss statistics of one trace replay."""

    accesses: int
    l1_misses: int
    l2_misses: int


class HierarchySink:
    """Streaming L1 → L2 replay over address chunks."""

    def __init__(self, l1: CacheConfig, l2: CacheConfig):
        self._l1 = CacheSink(l1)
        self._l2 = CacheSink(l2)

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns its L1 miss mask."""
        return replay(self._l1, self._l2, addresses)

    def finish(self) -> HierarchyResult:
        """Accumulated miss statistics."""
        l1 = self._l1.finish()
        l2 = self._l2.finish()
        return HierarchyResult(
            accesses=l1.accesses,
            l1_misses=l1.misses,
            l2_misses=l2.misses,
        )

