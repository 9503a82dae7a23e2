"""Unit tests for the write-back model, the one traffic instrument
(read by the write-back ablation of ``repro.experiments.ablations``)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine.cache import CacheConfig
from repro.machine.writeback import WritebackSink
from tests.machine.reference import memory_events, writeback_reference


def cache(size=128, line=32, assoc=2):
    return CacheConfig("L", size, line, assoc)


class TestWriteback:
    def test_clean_evictions_free(self):
        c = cache()
        # read-only stream that thrashes: no writebacks ever.
        addrs = np.arange(0, 32 * 64, 32, dtype=np.int64)
        sink = WritebackSink(c)
        sink.feed(memory_events(addrs, np.zeros(len(addrs))))
        res = sink.finish()
        assert res.writebacks == 0 and res.dirty_at_end == 0
        assert res.miss_count == len(addrs)

    def test_dirty_eviction_counted(self):
        c = cache(size=64, line=32, assoc=2)  # one set, two ways
        addrs = np.array([0, 32, 64], dtype=np.int64)
        writes = np.array([1, 0, 0])
        sink = WritebackSink(c)
        sink.feed(memory_events(addrs, writes))
        res = sink.finish()
        # line 0 written, then evicted by line 64 -> one writeback
        assert res.writebacks == 1

    def test_final_flush_reported(self):
        c = cache()
        addrs = np.array([0, 32], dtype=np.int64)
        sink = WritebackSink(c)
        sink.feed(memory_events(addrs, np.array([1, 1])))
        res = sink.finish()
        assert res.dirty_at_end == 2
        assert res.total_writeback_lines == 2

    def test_write_hit_keeps_line_dirty_once(self):
        c = cache(size=64, line=32, assoc=2)
        addrs = np.array([0, 0, 0, 32, 64], dtype=np.int64)
        writes = np.array([1, 1, 1, 0, 0])
        sink = WritebackSink(c)
        sink.feed(memory_events(addrs, writes))
        res = sink.finish()
        assert res.writebacks == 1  # single eviction of the single dirty line

    def test_misses_match_plain_simulator(self):
        from repro.machine.cache import CacheSink

        rng = np.random.default_rng(0)
        addrs = (rng.integers(0, 64, 500) * 8).astype(np.int64)
        writes = rng.integers(0, 2, 500)
        c = cache()
        wb = WritebackSink(c).feed(memory_events(addrs, writes))
        plain = CacheSink(c).feed(addrs)
        assert (wb == plain).all()

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
        config = cache(size=nsets * assoc * 32, line=32, assoc=assoc)
        addrs = np.array([a for a, _ in track], dtype=np.int64) * 16
        writes = np.array([w for _, w in track], dtype=bool)
        bounds = [0, *sorted(min(c, len(track)) for c in cuts), len(track)]
        chunks = [(addrs[lo:hi], writes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        sink = WritebackSink(config)
        masks = [sink.feed(memory_events(*chunk)) for chunk in chunks]
        ref_masks, ref = writeback_reference(config, chunks)
        assert sink.finish() == ref
        assert [m.tolist() for m in masks] == [m.tolist() for m in ref_masks]
