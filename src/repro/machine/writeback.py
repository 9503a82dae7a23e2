"""Write-back cache simulation (dirty-line eviction traffic).

The paper's analysis uses miss counts only; this extension models the
write-back traffic a real Octane2 generates, for the bandwidth ablation:
every store dirties its line, and evicting a dirty line costs a write of
one line to the next level. Tiling changes not only the miss count but the
*dirty* eviction count (tiled kernels overwrite resident lines many times
before eviction).

:class:`WritebackSink` replays each chunk in one C loop (``writeback`` in
``native.c``): the LRU walk of :class:`~repro.machine.cache.CacheSink`
plus a dirty flag per way. The per-access oracle is
``writeback_reference`` in ``tests/machine/reference.py``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine import native
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

    Consumes ``(addresses, is_write)`` chunks; each set's resident lines
    (most recent first, ``-1`` = empty way) and their dirty flags persist
    across chunks.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._ways = np.full(config.num_sets * config.assoc, -1, dtype=np.int64)
        self._dirty = np.zeros(len(self._ways), dtype=np.uint8)
        self._writebacks = ctypes.c_int64(0)
        self._miss_count = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Replay one chunk; returns its per-access miss mask."""
        addresses, is_write = chunk
        if len(addresses) != len(is_write):
            raise MachineError("addresses and is_write must align")
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        writes = np.ascontiguousarray(is_write, dtype=bool)
        n = len(addresses)
        miss = np.empty(n, dtype=bool)
        config = self.config
        misses = native.lib().writeback(
            self._ways.ctypes.data, self._dirty.ctypes.data,
            config.num_sets, config.assoc, config.line_shift,
            addresses.ctypes.data, writes.ctypes.data, n,
            miss.ctypes.data, ctypes.byref(self._writebacks),
        )
        if misses < 0:
            raise MachineError("addresses must be non-negative")
        self._miss_count += misses
        return miss

    def finish(self) -> WritebackResult:
        """Accumulated totals."""
        return WritebackResult(
            miss_count=self._miss_count,
            writebacks=self._writebacks.value,
            dirty_at_end=int(self._dirty.sum()),
        )
