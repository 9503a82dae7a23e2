"""Register-file model: load filtering ahead of the cache hierarchy.

The MIPSpro compiler keeps recently used array elements in the R14000A's
32 floating-point registers; a load whose value is already register-resident
never issues. This matters for exactly the effect the paper highlights for
Jacobi: with the time loop innermost, consecutive time steps touch the same
elements, and the compiler turns those reloads into register reuse ("we have
also reduced the number of array loads in the tiled code by an average of
40.9%").

The model is a fully-associative LRU window of *element* addresses:

- a load hits (is elided) iff its element is among the ``capacity`` most
  recently touched distinct elements;
- stores always reach memory (write-through towards the cache model) and
  make their element register-resident (store-to-load forwarding).

:class:`RegisterFilterSink` is the model: ``feed`` returns each chunk's
to-memory mask, ``finish`` the number of elided loads.

**Engine.** ``feed`` hands each chunk to one C loop (``regfilter`` in
``native.c``, built by :mod:`repro.machine.native` under a key of the C
source, the compiler and its flags): a linked recency list over
``capacity`` slots plus an element → slot hash table, so hits and
evictions are O(1). Its state array carries across chunks, so the masks
equal the per-access LRU walk's bit for bit on any chunking.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError
from repro.machine import native

#: Element granularity (doubles).
ELEMENT_SHIFT = 3


class RegisterFilterSink:
    """Streaming LRU register window over ``(addresses, is_write)`` chunks.

    ``feed`` returns the chunk's keep mask (``True`` where the access goes
    to memory) so the fused pipeline can filter the address stream before
    the cache hierarchy; the window itself persists across chunks.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise MachineError("register capacity must be non-negative")
        self.capacity = capacity
        #: log2 of the element -> slot table size (at least 4 * capacity).
        self._table_bits = (4 * capacity - 1).bit_length() if capacity else 0
        #: [used, head, tail | elem | prev | next | table], -1 for "none".
        self._state = np.full(
            3 + 3 * capacity + (1 << self._table_bits), -1, dtype=np.int64
        )
        self._state[0] = 0
        self._hits = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Filter one chunk; returns its boolean to-memory mask."""
        addresses, is_write = chunk
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        writes = np.ascontiguousarray(is_write, dtype=bool)
        n = len(addresses)
        if len(writes) != n:
            raise MachineError(
                f"register filter chunk has {n} addresses but "
                f"{len(writes)} write flags"
            )
        if self.capacity == 0 or n == 0:
            return np.ones(n, dtype=bool)
        keep = np.empty(n, dtype=bool)
        self._hits += native.lib().regfilter(
            self._state.ctypes.data, self.capacity, self._table_bits,
            addresses.ctypes.data, writes.ctypes.data, n, ELEMENT_SHIFT,
            keep.ctypes.data,
        )
        return keep

    def finish(self) -> int:
        """Number of loads elided by register reuse."""
        return self._hits
