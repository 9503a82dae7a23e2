"""The machine model's test oracles: one direct statement per component.

Each oracle walks the trace access by access in plain Python, exact by
inspection and slow, and the production sinks must reproduce it bit for
bit on every chunking:

- :func:`register_filter_reference` — the register window as one
  ``OrderedDict`` of element addresses, most recently used last (the
  semantics of :mod:`repro.machine.registers`);
- :func:`simulate_cache_reference` — the original whole-trace
  set-associative LRU simulator (:class:`~repro.machine.cache.CacheSink`);
- :func:`writeback_reference` — the same walk with a dirty bit per
  resident line (:class:`~repro.machine.writeback.WritebackSink`);
- :class:`TwoBitPredictor` — per-site 2-bit counters replayed site by
  site, one event at a time (:class:`~repro.machine.branch.TwoBitPredictorSink`,
  which settles whole runs of equal outcomes in closed form).

``tests/golden/regen.py`` builds the golden corpus's reports from these.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable

import numpy as np

from repro.errors import MachineError
from repro.machine.branch import INITIAL_STATE, BranchStats
from repro.machine.cache import CacheConfig
from repro.machine.registers import ELEMENT_SHIFT
from repro.machine.writeback import WritebackResult


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


def simulate_cache_reference(config: CacheConfig, addresses: np.ndarray) -> np.ndarray:
    """Per-access miss mask of one cold set-associative LRU cache;
    roughly 0.3 µs per access."""
    if addresses.ndim != 1:
        raise MachineError("addresses must be a 1-D array")
    n = len(addresses)
    misses = np.zeros(n, dtype=bool)
    if n == 0:
        return misses
    lines = (addresses >> config.line_shift).tolist()
    nsets = config.num_sets
    assoc = config.assoc
    sets: list[list[int]] = [[] for _ in range(nsets)]
    miss_list = [False] * n
    for pos, line in enumerate(lines):
        ways = sets[line % nsets]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
        else:
            miss_list[pos] = True
            ways.insert(0, line)
            if len(ways) > assoc:
                ways.pop()
    return np.asarray(miss_list, dtype=bool)


def writeback_reference(
    config: CacheConfig, chunks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> tuple[list[np.ndarray], WritebackResult]:
    """Walk ``(addresses, is_write)`` chunks through one cold
    write-allocate, write-back LRU cache of per-set ``[line, dirty]``
    lists; returns each chunk's miss mask and the totals."""
    nsets, assoc = config.num_sets, config.assoc
    sets: list[list[list]] = [[] for _ in range(nsets)]
    masks: list[np.ndarray] = []
    writebacks = 0
    for addresses, is_write in chunks:
        lines = (np.asarray(addresses) >> config.line_shift).tolist()
        writes = np.asarray(is_write).astype(bool).tolist()
        miss_list = [False] * len(lines)
        for pos, line in enumerate(lines):
            ways = sets[line % nsets]
            hit = next((way for way in ways if way[0] == line), None)
            if hit is not None:
                ways.remove(hit)
                ways.insert(0, hit)
                hit[1] = hit[1] or writes[pos]
            else:
                miss_list[pos] = True
                ways.insert(0, [line, writes[pos]])
                if len(ways) > assoc and ways.pop()[1]:
                    writebacks += 1
        masks.append(np.asarray(miss_list, dtype=bool))
    dirty = sum(1 for ways in sets for way in ways if way[1])
    misses = sum(int(m.sum()) for m in masks)
    return masks, WritebackResult(misses, writebacks, dirty)


def memory_events(addresses: np.ndarray, is_write: np.ndarray) -> np.ndarray:
    """Memory events (``byte_address << 1 | is_write``) of aligned
    address and write-flag arrays."""
    return np.asarray(addresses, dtype=np.int64) << 1 | np.asarray(is_write).astype(np.int64)


def split_memory_events(events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(byte addresses, ``bool`` write flags) of memory events."""
    events = np.asarray(events, dtype=np.int64)
    return events >> 1, (events & 1).astype(bool)


def decode_branch_events(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode encoded branch events (``site_id * 2 + taken``) into
    (site_id, taken)."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >> 1, codes & 1


class TwoBitPredictor:
    """Per-site 2-bit saturating counter (init: weakly taken).

    States 0..3; predict taken when state >= 2; increment on taken,
    decrement on not-taken, saturating. :meth:`simulate` steps through
    every event, so it checks the sink's closed-form run replay rather
    than repeating it.
    """

    def simulate(self, site_ids: np.ndarray, taken: np.ndarray) -> BranchStats:
        """Replay (site, outcome) events in order; sites are independent, so
        events are processed grouped by site (stable order within a site)."""
        n = len(site_ids)
        if n == 0:
            return BranchStats(0, 0)
        order = np.argsort(site_ids, kind="stable")
        sid_sorted = site_ids[order]
        taken_sorted = taken[order].tolist()
        boundaries = np.flatnonzero(np.diff(sid_sorted)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), n]
        mispredicted = 0
        for start, end in zip(starts, ends):
            state = INITIAL_STATE
            for pos in range(start, end):
                outcome = taken_sorted[pos]
                if (state >= 2) != bool(outcome):
                    mispredicted += 1
                if outcome:
                    if state < 3:
                        state += 1
                elif state > 0:
                    state -= 1
        return BranchStats(resolved=n, mispredicted=mispredicted)
