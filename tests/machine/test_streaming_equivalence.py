"""Streaming vs whole-trace equivalence of every sink, through the
differential harness (:mod:`tests.machine.test_core_differential`): the
stream families over cache, write-back and L1 -> L2 geometries, accesses
spread over many sets or piled onto a few, one 700-event stream through
every memory sink, and guard-like branch traces of 1 to 40 sparse sites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.cache import CacheSink
from tests.machine.reference import memory_events
from tests.machine.test_core_differential import (
    ENTRIES,
    branches,
    cache_config,
    check,
    check_families,
)


class TestCacheSinkAgainstOracle:
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("nsets", [1, 4, 32, 100])
    def test_randomized_traces(self, assoc, nsets):
        # The cache and the write-back cache over one geometry sweep.
        rng = np.random.default_rng(nsets * 10 + assoc)
        for name in ("cache", "writeback"):
            check_families(ENTRIES[name], cache_config(assoc, nsets), rng)

    def test_wide_walk_across_chunks(self):
        # Accesses spread over many sets or piled onto a few, with state
        # carried across chunks.
        rng = np.random.default_rng(3)
        spread = rng.integers(0, 16 * 64 * 32, size=1200)
        narrow = rng.integers(0, 8, size=1200) * 16 * 32
        for what, addrs in (("spread", spread), ("narrow", narrow),
                            ("both", np.concatenate([spread, narrow]))):
            check(ENTRIES["cache"], cache_config(4, 16), memory_events(addrs, 0), rng, what)

    @pytest.mark.parametrize("assoc1, assoc2", [(1, 2), (2, 2), (2, 8), (4, 16), (16, 1)])
    @pytest.mark.parametrize("sets1, sets2", [(16, 64), (12, 100)])
    def test_hierarchy_chains_l1_misses_into_l2(self, assoc1, assoc2, sets1, sets2):
        # One call walks L1 and, on each L1 miss, L2: L2 must see exactly
        # the L1-miss stream in order, on any chunking, for any geometry.
        levels = cache_config(assoc1, sets1, 32, "L1"), cache_config(assoc2, sets2, 64, "L2")
        rng = np.random.default_rng([assoc1, assoc2, sets1])
        check_families(ENTRIES["hierarchy"], levels, rng)

    def test_negative_address_rejected(self):
        sink = CacheSink(cache_config(2, 4))
        with pytest.raises(MachineError, match="non-negative"):
            sink.feed(np.array([0, -8], dtype=np.int64))


class TestSinkChunkingInvariance:
    def setup_method(self):
        self.rng = np.random.default_rng(21)
        n = 700
        self.events = memory_events(
            self.rng.integers(0, 1 << 14, size=n), self.rng.integers(0, 2, size=n)
        )

    def test_hierarchy(self):
        levels = cache_config(2, 8, 32, "L1"), cache_config(2, 32, 64, "L2")
        check(ENTRIES["hierarchy"], levels, self.events, self.rng, "hierarchy")

    def test_writeback(self):
        check(ENTRIES["writeback"], cache_config(2, 32, 64), self.events, self.rng, "writeback")

    def test_register_filter(self):
        check(ENTRIES["regfilter"], 8, self.events, self.rng, "register filter")

    def test_branch_sink(self):
        codes = self.rng.integers(0, 5, size=400) * 2 + self.rng.integers(0, 2, size=400)
        check(ENTRIES["branch"], None, codes, self.rng, "five sites")

    def test_branch_sink_guard_traces(self):
        # 1-40 sites with sparse ids, so every site's state carries
        # across chunkings that include empty and 1-event chunks.
        rng = np.random.default_rng(22)
        for _ in range(200):
            ids = rng.choice(4096, size=int(rng.integers(1, 41)), replace=False)
            codes = branches(rng, int(rng.integers(1, 2000)), ids)
            check(ENTRIES["branch"], None, codes, rng, f"{len(ids)} sites")
