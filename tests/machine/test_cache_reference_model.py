"""Cross-check the cache and write-back sinks against the cache oracle on
hypothesis-drawn traces and geometries, line sizes of 8 to 32 bytes
included (the differential harness in
``tests/machine/test_core_differential.py`` uses 32- and 64-byte lines)."""

import numpy as np
from hypothesis import given, strategies as st

from repro.machine.cache import CacheSink
from repro.machine.writeback import WritebackSink
from tests.machine.reference import memory_events, simulate_cache_reference
from tests.machine.test_core_differential import cache_config

#: 1 to 4 ways, 1 to 8 sets, lines of 8 to 32 bytes.
GEOMETRY = st.builds(cache_config, st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4, 8]),
                     st.sampled_from([8, 16, 32]))


@given(GEOMETRY, st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_simulator_matches_reference(config, track):
    addrs = np.array(track, dtype=np.int64) * 8
    assert np.array_equal(CacheSink(config).feed(addrs), simulate_cache_reference(config, addrs))


@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_writeback_misses_match_reference(track):
    config = cache_config(2, 8, 16)
    addrs = np.array(track, dtype=np.int64) * 8
    misses = WritebackSink(config).feed(memory_events(addrs, np.zeros(len(addrs))))
    assert np.array_equal(misses, simulate_cache_reference(config, addrs))
