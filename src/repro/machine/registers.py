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

:class:`RegisterFilterSink` is the model: ``feed`` compacts each chunk
of memory events (``byte_address << 1 | is_write``, see
:mod:`repro.exec.events`) to the byte addresses that go to memory,
``finish`` returns the number of elided loads.

**Engine.** ``feed`` hands each chunk to one C loop (``regfilter`` in
``native.c``, built by :mod:`repro.machine.native` under a key of the C
source, the compiler and its flags): a linked recency list over
``capacity`` slots plus an element → slot hash table, so hits and
evictions are O(1). Its state array carries across chunks, so the
survivors equal the per-access LRU walk's on any chunking.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError
from repro.machine import native

#: Element granularity (doubles).
ELEMENT_SHIFT = 3


class RegisterFilterSink:
    """Streaming LRU register window over ``(events, out)`` chunks.

    ``feed`` writes the byte addresses of the chunk's events that go to
    memory, in order, to the front of ``out`` (which may be ``events``
    itself: the filter compacts in place) and returns them as a view, so
    the fused pipeline hands the survivors to the cache hierarchy without
    a copy; the window itself persists across chunks.
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
        """Filter one chunk; returns the survivors' addresses, ``out[:kept]``."""
        events, out = chunk
        events = np.ascontiguousarray(events, dtype=np.int64)
        n = len(events)
        if not (
            isinstance(out, np.ndarray) and out.dtype == np.int64
            and out.flags.c_contiguous and out.flags.writeable and len(out) >= n
        ):
            raise MachineError(
                f"register filter output must be a writable contiguous int64 "
                f"array of at least {n} elements"
            )
        kept = native.lib().regfilter(
            self._state.ctypes.data, self.capacity, self._table_bits,
            events.ctypes.data, n, ELEMENT_SHIFT, out.ctypes.data,
        )
        self._hits += n - kept
        return out[:kept]

    def finish(self) -> int:
        """Number of loads elided by register reuse."""
        return self._hits
