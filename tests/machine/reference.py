"""The machine model's test oracles: one direct statement per component.

Each oracle walks the trace access by access in plain Python, exact by
inspection and slow, and the production sinks must reproduce it bit for
bit on every chunking:

- :func:`register_filter_reference` — the register window as one
  ``OrderedDict`` of element addresses, most recently used last (the
  semantics of :mod:`repro.machine.registers`);
- :func:`simulate_cache_reference` — the original whole-trace
  set-associative LRU simulator (:class:`~repro.machine.cache.CacheSink`);
- :func:`stack_distances_reference` — the list-based Mattson stack
  (:func:`~repro.machine.cache.stack_distances`);
- :class:`TwoBitPredictor` — per-site 2-bit counters replayed site by site
  (:class:`~repro.machine.branch.TwoBitPredictorSink`).

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


def stack_distances_reference(addresses: np.ndarray, line_shift: int) -> np.ndarray:
    """LRU stack distance of each access at line granularity (``-1`` for
    cold accesses), by ``list.index`` on an explicit Mattson stack."""
    lines = (np.asarray(addresses) >> line_shift).tolist()
    stack: list[int] = []
    out = np.empty(len(lines), dtype=np.int64)
    for pos, line in enumerate(lines):
        try:
            depth = stack.index(line)
        except ValueError:
            out[pos] = -1
            stack.insert(0, line)
            continue
        out[pos] = depth
        if depth:
            del stack[depth]
            stack.insert(0, line)
    return out


class TwoBitPredictor:
    """Per-site 2-bit saturating counter (init: weakly taken).

    States 0..3; predict taken when state >= 2; increment on taken,
    decrement on not-taken, saturating. :meth:`simulate` regroups the
    events by site before replaying, so it checks the sink's interleaved
    replay rather than repeating it.
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
