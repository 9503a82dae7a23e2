"""Unit and property tests for the set-associative LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineError
from repro.machine.cache import CacheConfig, CacheSink
from tests.machine.reference import simulate_cache_reference


def cfg(size=256, line=32, assoc=2):
    return CacheConfig("L", size, line, assoc)


class TestConfig:
    def test_geometry(self):
        c = cfg(1024, 32, 2)
        assert c.num_sets == 16 and c.line_shift == 5

    def test_non_power_of_two_line(self):
        with pytest.raises(MachineError):
            cfg(line=48)

    def test_indivisible_size(self):
        with pytest.raises(MachineError):
            CacheConfig("L", 100, 32, 2)

    def test_positive_fields(self):
        with pytest.raises(MachineError):
            CacheConfig("L", 0, 32, 2)


class TestSimulate:
    def test_cold_misses(self):
        addrs = np.array([0, 32, 64], dtype=np.int64)
        misses = CacheSink(cfg()).feed(addrs)
        assert misses.all()

    def test_hit_on_repeat(self):
        addrs = np.array([0, 0, 8, 31], dtype=np.int64)
        misses = CacheSink(cfg()).feed(addrs)
        assert list(misses) == [True, False, False, False]

    def test_lru_eviction_within_set(self):
        c = cfg(size=128, line=32, assoc=2)  # 2 sets
        s = c.num_sets * c.line_bytes  # stride mapping to same set
        a, b, d = 0, s, 2 * s
        addrs = np.array([a, b, d, a], dtype=np.int64)
        misses = CacheSink(c).feed(addrs)
        # a,b fill the set; d evicts a (LRU); the re-access to a misses.
        assert list(misses) == [True, True, True, True]

    def test_mru_protected(self):
        c = cfg(size=128, line=32, assoc=2)
        s = c.num_sets * c.line_bytes
        addrs = np.array([0, s, 0, 2 * s, 0], dtype=np.int64)
        misses = CacheSink(c).feed(addrs)
        # 0 stays MRU; 2s evicts s, not 0.
        assert list(misses) == [True, True, False, True, False]

    def test_empty_trace(self):
        assert len(CacheSink(cfg()).feed(np.empty(0, dtype=np.int64))) == 0

    def test_2d_rejected(self):
        with pytest.raises(MachineError):
            CacheSink(cfg()).feed(np.zeros((2, 2), dtype=np.int64))


def _fully_associative(ways: int) -> CacheConfig:
    """One set of *ways* lines, one element per line: an LRU stack of
    depth *ways*."""
    config = CacheConfig("L", ways * 8, 8, ways)
    assert config.num_sets == 1
    return config


@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=120),
)
def test_lru_inclusion_property(track):
    """Mattson inclusion: bigger fully-associative LRU never misses more."""
    addrs = np.array(track, dtype=np.int64) * 8
    small = CacheSink(_fully_associative(2)).feed(addrs)
    big = CacheSink(_fully_associative(4)).feed(addrs)
    assert not (big & ~small).any()  # every hit of the small cache hits the big one
    assert big.sum() <= small.sum()


@given(st.lists(st.integers(0, 100), min_size=1, max_size=150))
def test_setassoc_agrees_with_stack_distance_when_one_set(track):
    """A single-set cache of associativity A is a fully-associative LRU
    stack of depth A: it misses exactly where the oracle's walk does."""
    addrs = np.array(track, dtype=np.int64) * 8
    config = _fully_associative(4)
    assert np.array_equal(
        CacheSink(config).feed(addrs), simulate_cache_reference(config, addrs)
    )


@given(st.lists(st.integers(0, 100), min_size=1, max_size=100))
def test_determinism(track):
    addrs = np.array(track, dtype=np.int64) * 4
    c = cfg()
    assert (CacheSink(c).feed(addrs) == CacheSink(c).feed(addrs)).all()
