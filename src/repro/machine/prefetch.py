"""Sequential (next-line) hardware prefetching.

An ablation instrument: how much of tiling's win would a simple stream
prefetcher capture on its own? The model is tagged next-line prefetch: a
demand miss on line ``L`` also installs ``L+1`` (as LRU-inserted, so a
useless prefetch is evicted first); a demand hit on a prefetched line
promotes it and triggers the next line (stream follow-through).

Prefetching hides *latency* for sequential streams — exactly the access
shape of untiled column walks — but cannot manufacture *reuse*: the
tiled codes keep their advantage in bandwidth-bound regimes, which the
benchmark asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine.cache import CacheConfig


@dataclass(frozen=True)
class PrefetchResult:
    """Outcome of a prefetching replay."""

    demand_misses: int
    prefetches_issued: int
    #: demand accesses served by a previously prefetched line
    prefetch_hits: int
    accesses: int

    @property
    def covered_fraction(self) -> float:
        """Share of would-be misses covered by prefetching."""
        would_miss = self.demand_misses + self.prefetch_hits
        return self.prefetch_hits / would_miss if would_miss else 0.0


class PrefetchSink:
    """Streaming tagged next-line prefetch replay over address chunks.

    Per-set residency state (``[line, prefetched]`` entries in MRU order)
    persists across chunks.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Per set: list of [line, prefetched] in MRU order.
        self._sets: list[list[list]] = [[] for _ in range(config.num_sets)]
        self._demand_misses = 0
        self._prefetches = 0
        self._prefetch_hits = 0
        self._accesses = 0

    def _install(self, line: int, *, prefetched: bool) -> None:
        ways = self._sets[line % self.config.num_sets]
        for way in ways:
            if way[0] == line:
                return  # already resident; leave position/flag
        entry = [line, prefetched]
        if prefetched:
            # LRU-insert: evict the old LRU, park the prefetch at the LRU
            # position so a useless prefetch is the next victim.
            while len(ways) >= self.config.assoc:
                ways.pop()
            ways.append(entry)
        else:
            ways.insert(0, entry)
            if len(ways) > self.config.assoc:
                ways.pop()

    def feed(self, addresses: np.ndarray) -> None:
        """Replay one chunk of byte addresses."""
        addresses = np.asarray(addresses)
        if addresses.ndim != 1:
            raise MachineError("addresses must be 1-D")
        lines = (addresses >> self.config.line_shift).tolist()
        nsets = self.config.num_sets
        sets = self._sets
        for line in lines:
            ways = sets[line % nsets]
            hit = None
            for way in ways:
                if way[0] == line:
                    hit = way
                    break
            follow = False
            if hit is not None:
                if hit[1]:
                    self._prefetch_hits += 1
                    hit[1] = False
                    follow = True  # stream follow-through
                if ways[0] is not hit:
                    ways.remove(hit)
                    ways.insert(0, hit)
            else:
                self._demand_misses += 1
                self._install(line, prefetched=False)
                follow = True
            if follow:
                self._prefetches += 1
                self._install(line + 1, prefetched=True)
        self._accesses += len(lines)

    def finish(self) -> PrefetchResult:
        """Accumulated prefetch statistics."""
        return PrefetchResult(
            demand_misses=self._demand_misses,
            prefetches_issued=self._prefetches,
            prefetch_hits=self._prefetch_hits,
            accesses=self._accesses,
        )

