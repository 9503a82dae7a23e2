"""Write-back cache simulation (dirty-line eviction traffic).

The paper's analysis uses miss counts only; this extension models the
write-back traffic a real Octane2 generates, for the bandwidth ablation:
every store dirties its line, and evicting a dirty line costs a write of
one line to the next level. Tiling changes not only the miss count but the
*dirty* eviction count (tiled kernels overwrite resident lines many times
before eviction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine.cache import CacheConfig


@dataclass(frozen=True)
class WritebackResult:
    """Misses and dirty evictions of one replay."""

    miss_count: int
    writebacks: int
    #: dirty lines still resident at the end (flushed at program exit)
    dirty_at_end: int

    @property
    def total_writeback_lines(self) -> int:
        """Evicted-dirty plus final flush."""
        return self.writebacks + self.dirty_at_end


class WritebackSink:
    """Streaming write-allocate/write-back replay.

    Consumes ``(addresses, is_write)`` chunks; per-set ``[line, dirty]``
    residency state persists across chunks.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Per set: list of [line, dirty] in MRU order.
        self._sets: list[list[list]] = [[] for _ in range(config.num_sets)]
        self._writebacks = 0
        self._miss_count = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Replay one chunk; returns its per-access miss mask."""
        addresses, is_write = chunk
        if len(addresses) != len(is_write):
            raise MachineError("addresses and is_write must align")
        n = len(addresses)
        miss_list = [False] * n
        if n:
            lines = (np.asarray(addresses) >> self.config.line_shift).tolist()
            writes = np.asarray(is_write).astype(bool).tolist()
            nsets = self.config.num_sets
            assoc = self.config.assoc
            sets = self._sets
            for pos, line in enumerate(lines):
                ways = sets[line % nsets]
                hit = None
                for way in ways:
                    if way[0] == line:
                        hit = way
                        break
                if hit is not None:
                    if ways[0] is not hit:
                        ways.remove(hit)
                        ways.insert(0, hit)
                    if writes[pos]:
                        hit[1] = True
                else:
                    miss_list[pos] = True
                    ways.insert(0, [line, writes[pos]])
                    if len(ways) > assoc:
                        victim = ways.pop()
                        if victim[1]:
                            self._writebacks += 1
        mask = np.asarray(miss_list, dtype=bool)
        self._miss_count += int(mask.sum())
        return mask

    def finish(self) -> WritebackResult:
        """Accumulated totals."""
        dirty = sum(1 for ways in self._sets for way in ways if way[1])
        return WritebackResult(
            miss_count=self._miss_count,
            writebacks=self._writebacks,
            dirty_at_end=dirty,
        )

