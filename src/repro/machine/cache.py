"""Set-associative LRU data-cache simulation.

Matches the paper's Octane2 caches: physically simple, LRU replacement,
write-allocate (reads and writes are treated alike for residency — perfex's
data-cache miss counters do not distinguish them either). Write-back traffic
is not modelled; the paper's analysis uses miss *counts* only.

The simulator exploits the classic LRU property: with associativity ``A``,
the resident lines of a set are exactly the ``A`` most recently accessed
distinct lines mapping to it.

:class:`CacheSink` is the streaming production engine. It keeps the whole
cache state as each set's resident lines, most recent first (``-1`` =
empty way), in one ``int64`` array, and :func:`replay` walks each chunk
through one sequential C loop (``cache`` in ``native.c``, built by
:mod:`repro.machine.native` under a key of the C source, the compiler and
its flags) that moves a hit to the front of its set's list and pushes a
miss in, for any associativity. The same call chains the L1 misses into
an L2 level in order (:class:`~repro.machine.hierarchy.HierarchySink`).

The loop is checked against the per-access oracle in
``tests/machine/reference.py`` and, end to end, against the golden corpus
(``tests/golden/corpus.json``).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine import native


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int

    def __post_init__(self) -> None:
        for field in ("size_bytes", "line_bytes", "assoc"):
            v = getattr(self, field)
            if not isinstance(v, int) or v <= 0:
                raise MachineError(f"{self.name}: {field} must be positive int")
        if self.line_bytes & (self.line_bytes - 1):
            raise MachineError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise MachineError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc = {self.line_bytes * self.assoc}"
            )

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def line_shift(self) -> int:
        """log2(line size)."""
        return self.line_bytes.bit_length() - 1


@dataclass(frozen=True)
class CacheResult:
    """Accumulated outcome of one cache replay."""

    accesses: int
    misses: int


class CacheSink:
    """Streaming set-associative LRU cache (see module docstring).

    ``feed(addresses)`` replays one byte-address chunk against the
    persistent cache state and returns that chunk's boolean miss mask;
    ``finish()`` returns a :class:`CacheResult`.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        #: Resident lines per set, MRU first; -1 marks an empty way.
        self._ways = np.full(config.num_sets * config.assoc, -1, dtype=np.int64)
        #: This level's arguments to the C loop.
        self._level = (self._ways.ctypes.data, config.num_sets, config.assoc, config.line_shift)
        self._accesses = 0
        self._misses = 0

    def feed(self, addresses: np.ndarray) -> np.ndarray:
        """Replay one chunk; returns the chunk's per-access miss mask."""
        miss = np.empty(len(addresses), dtype=bool)
        replay(self, None, addresses, miss)
        return miss

    def finish(self) -> CacheResult:
        """Access and miss totals of the whole stream."""
        return CacheResult(self._accesses, self._misses)


def replay(
    l1: CacheSink, l2: CacheSink | None, addresses: np.ndarray, miss: np.ndarray | None = None
) -> None:
    """Replay one chunk through *l1* and, in order, its misses through
    *l2* (if any) in one C call; writes the *l1* miss mask into *miss*
    (a ``bool`` array of the chunk's length) if one is given."""
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise MachineError("addresses must be a 1-D array")
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    n = len(addresses)
    if miss is not None and not (
        miss.dtype == bool and miss.shape == (n,) and miss.flags.c_contiguous
        and miss.flags.writeable
    ):
        raise MachineError(f"the miss mask must be a writable contiguous bool array of {n}")
    l2_misses = ctypes.c_int64(0)
    misses = native.lib().cache(
        *l1._level, *(l2._level if l2 else (None, 0, 0, 0)),
        addresses.ctypes.data, n, None if miss is None else miss.ctypes.data,
        ctypes.byref(l2_misses),
    )
    if misses < 0:
        raise MachineError("addresses must be non-negative")
    l1._accesses += n
    l1._misses += misses
    if l2 is not None:
        l2._accesses += misses
        l2._misses += l2_misses.value
