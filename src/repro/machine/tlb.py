"""TLB model: a fully-associative LRU cache of page translations.

Not part of the paper's measurements, but column walks with large leading
dimensions are exactly the access shape that thrashes a TLB, so the
ablation suite reports TLB misses alongside cache misses. The R10000
family has a 64-entry fully-associative TLB with (configurable) 4 KB-16 MB
pages; we model 64 entries x 4 KB by default.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the translation cache."""

    entries: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise MachineError("TLB needs at least one entry")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise MachineError("page size must be a positive power of two")

    @property
    def page_shift(self) -> int:
        """log2(page size)."""
        return self.page_bytes.bit_length() - 1


class TLBSink:
    """Streaming TLB replay over address chunks.

    The LRU window persists across chunks; most chunks touch few distinct
    pages, so the per-access Python walk is cheap relative to the caches.
    """

    def __init__(self, config: TLBConfig):
        self.config = config
        self._window: OrderedDict[int, None] = OrderedDict()
        self._misses = 0

    def feed(self, addresses: np.ndarray) -> None:
        """Translate one chunk of byte addresses."""
        pages = (np.asarray(addresses) >> self.config.page_shift).tolist()
        window = self._window
        entries = self.config.entries
        misses = 0
        for page in pages:
            if page in window:
                window.move_to_end(page)
            else:
                misses += 1
                window[page] = None
                if len(window) > entries:
                    window.popitem(last=False)
        self._misses += misses

    def finish(self) -> int:
        """Total TLB misses."""
        return self._misses

