"""Caching helpers: a capped LRU mapping and the on-disk cache directory.

The experiment runner used to memoise builds and measurements in plain
module-level dicts — unbounded, and with no way to reset them between
sweeps. :class:`LRUCache` bounds the footprint (oldest-used entries fall
out first) and supports explicit clearing. :func:`cache_dir` is the one
directory that holds the measurement cache and the machine model's
compiled C core.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Hashable, Iterator, MutableMapping


def cache_dir() -> Path | None:
    """``REPRO_CACHE_DIR`` (default ``.repro_cache``), or ``None`` under
    ``REPRO_NO_CACHE=1``."""
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


class LRUCache(MutableMapping):
    """A dict with a maximum size, evicting the least-recently-used entry.

    Reads and writes both refresh recency. ``maxsize=None`` means
    unbounded (but still clearable).
    """

    def __init__(self, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.evictions = 0

    def __getitem__(self, key: Hashable) -> Any:
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def __delitem__(self, key: Hashable) -> None:
        del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def __repr__(self) -> str:
        cap = "∞" if self.maxsize is None else self.maxsize
        return f"LRUCache({len(self._data)}/{cap}, evictions={self.evictions})"
