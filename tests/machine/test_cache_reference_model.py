"""Cross-check the production cache simulator against an oblivious
reference implementation on random traces and geometries."""

import numpy as np
from hypothesis import given, strategies as st

from repro.machine.cache import CacheConfig, CacheSink


def reference_lru(config: CacheConfig, addresses) -> list[bool]:
    """Deliberately naive set-associative LRU: per-set list of (tag, last
    used timestamp), linear scans, no move-to-front tricks."""
    nsets = config.num_sets
    sets: list[list[list]] = [[] for _ in range(nsets)]
    out = []
    for time, addr in enumerate(addresses):
        line = int(addr) >> config.line_shift
        s = sets[line % nsets]
        found = None
        for entry in s:
            if entry[0] == line:
                found = entry
                break
        if found is not None:
            found[1] = time
            out.append(False)
            continue
        out.append(True)
        if len(s) >= config.assoc:
            victim = min(s, key=lambda e: e[1])
            s.remove(victim)
        s.append([line, time])
    return out


@st.composite
def geometry(draw):
    line = draw(st.sampled_from([8, 16, 32]))
    assoc = draw(st.sampled_from([1, 2, 4]))
    nsets = draw(st.sampled_from([1, 2, 4, 8]))
    return CacheConfig("L", line * assoc * nsets, line, assoc)


@given(
    geometry(),
    st.lists(st.integers(0, 255), min_size=1, max_size=300),
)
def test_simulator_matches_reference(config, track):
    addrs = np.array(track, dtype=np.int64) * 8
    fast = CacheSink(config).feed(addrs).tolist()
    slow = reference_lru(config, addrs)
    assert fast == slow


@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_writeback_misses_match_reference(track):
    from repro.machine.writeback import WritebackSink
    from tests.machine.reference import memory_events

    config = CacheConfig("L", 256, 16, 2)
    addrs = np.array(track, dtype=np.int64) * 8
    writes = np.zeros(len(addrs))
    misses = WritebackSink(config).feed(memory_events(addrs, writes))
    slow = reference_lru(config, addrs)
    assert misses.tolist() == slow
