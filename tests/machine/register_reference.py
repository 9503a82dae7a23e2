"""The per-access LRU walk: the register filter's test oracle.

It is the direct statement of the register model's semantics (see
:mod:`repro.machine.registers`): one ``OrderedDict`` window of element
addresses, most recently used last, updated access by access. Slow (about
2M accesses per second), but exact by inspection, so
:class:`~repro.machine.registers.RegisterFilterSink` must reproduce it bit
for bit on every chunking.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from repro.machine.registers import ELEMENT_SHIFT


def register_filter_reference(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], capacity: int
) -> tuple[list[np.ndarray], int]:
    """Walk ``(addresses, is_write)`` chunks through one LRU window of
    *capacity* elements; returns each chunk's to-memory mask and the
    number of elided loads."""
    window: OrderedDict[int, None] = OrderedDict()
    masks: list[np.ndarray] = []
    hits = 0
    for addresses, is_write in chunks:
        elements = (np.asarray(addresses) >> ELEMENT_SHIFT).tolist()
        writes = np.asarray(is_write).astype(bool).tolist()
        keep = [True] * len(elements)
        if capacity:
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
        masks.append(np.asarray(keep, dtype=bool))
    return masks, hits
