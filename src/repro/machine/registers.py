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
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import MachineError

#: Element granularity (doubles).
ELEMENT_SHIFT = 3


class RegisterFilterSink:
    """Streaming LRU register window over ``(addresses, is_write)`` chunks.

    ``feed`` returns the chunk's keep mask (``True`` where the access goes
    to memory) so the fused pipeline can filter the address stream before
    the cache hierarchy; the window itself persists across chunks.

    The per-access ``OrderedDict`` walk is not fast: on whole-trace chunks
    at N=184 it costs 4-7x the entire L1+L2 replay. It is kept because it
    is the direct statement of LRU semantics, so its output is exact by
    inspection; a vectorized replacement (a reuse-distance test
    thresholded at ``capacity``) must reproduce it bit for bit.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise MachineError("register capacity must be non-negative")
        self.capacity = capacity
        self._window: OrderedDict[int, None] = OrderedDict()
        self._hits = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Filter one chunk; returns its boolean to-memory mask."""
        addresses, is_write = chunk
        n = len(addresses)
        if self.capacity == 0 or n == 0:
            return np.ones(n, dtype=bool)
        elements = (np.asarray(addresses) >> ELEMENT_SHIFT).tolist()
        writes = np.asarray(is_write).astype(bool).tolist()
        window = self._window
        capacity = self.capacity
        keep = [True] * n
        hits = 0
        for pos, elem in enumerate(elements):
            resident = elem in window
            if resident:
                window.move_to_end(elem)
            else:
                window[elem] = None
                if len(window) > capacity:
                    window.popitem(last=False)
            if resident and not writes[pos]:
                keep[pos] = False
                hits += 1
        self._hits += hits
        return np.asarray(keep, dtype=bool)

    def finish(self) -> int:
        """Number of loads elided by register reuse."""
        return self._hits

