"""The write-back model (the write-back ablation's one traffic
instrument): hand-written cases of which evictions cost a line write, and
hypothesis-drawn streams against the plain cache and, through the
differential harness's :func:`check`, ``writeback_reference``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.writeback import WritebackSink
from tests.machine.reference import memory_events
from tests.machine.test_core_differential import ENTRIES, cache_config, check


def cache(size=128, line=32, assoc=2):
    return CacheConfig("L", size, line, assoc)


def replay(config, addrs, writes):
    sink = WritebackSink(config)
    sink.feed(memory_events(np.array(addrs, dtype=np.int64), np.array(writes)))
    return sink.finish()


class TestWriteback:
    def test_clean_evictions_free(self):
        # A read-only stream that thrashes: no writebacks ever.
        addrs = np.arange(0, 32 * 64, 32)
        res = replay(cache(), addrs, np.zeros(len(addrs)))
        assert res.writebacks == 0 and res.dirty_at_end == 0
        assert res.miss_count == len(addrs)

    def test_dirty_eviction_counted(self):
        # One set of two ways: line 0 is written, then evicted by line 64.
        assert replay(cache(size=64), [0, 32, 64], [1, 0, 0]).writebacks == 1

    def test_final_flush_reported(self):
        res = replay(cache(), [0, 32], [1, 1])
        assert res.dirty_at_end == 2
        assert res.total_writeback_lines == 2

    def test_write_hit_keeps_line_dirty_once(self):
        # Three stores to one line, then its single eviction.
        assert replay(cache(size=64), [0, 0, 0, 32, 64], [1, 1, 1, 0, 0]).writebacks == 1

    def test_misses_match_plain_simulator(self):
        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 64, 500) * 8).astype(np.int64)
        writes = rng.integers(0, 2, 500)
        wb = WritebackSink(cache()).feed(memory_events(addrs, writes))
        assert np.array_equal(wb, CacheSink(cache()).feed(addrs))

    def test_negative_address_rejected(self):
        with pytest.raises(MachineError, match="non-negative"):
            WritebackSink(cache()).feed(memory_events(np.array([0, -8]), np.array([1, 0])))

    @given(
        st.sampled_from([1, 2, 4, 8]),  # associativity
        st.sampled_from([1, 3, 4, 12]),  # sets, power of two or not
        st.lists(st.tuples(st.integers(0, 127), st.booleans()), max_size=300),
        st.lists(st.integers(0, 300), max_size=6),  # chunk boundaries
    )
    def test_matches_reference_on_any_chunking(self, assoc, nsets, track, cuts):
        addrs, writes = np.array(track, dtype=np.int64).reshape(-1, 2).T
        bounds = [0, *sorted(min(c, len(track)) for c in cuts), len(track)]
        events = memory_events(addrs * 16, writes)
        config = cache_config(assoc, nsets)
        check(ENTRIES["writeback"], config, events, None, "drawn", [("drawn", bounds)])
